"""Quasideterminants, Wronski matrices, and Frobenius cells.

The quasideterminant of a square matrix over a noncommutative algebra at
position (i, j) is the (i, j) entry minus row-times-inverse-submatrix-times-
column, with the multiplication order preserved.  Over commutative scalars it
reduces to the signed ratio of determinants, which the tests use as an oracle.

A Wronski matrix stacks iterated derivatives of a family of series; the
quotient (dW) * W^-1 always has Frobenius (companion) shape: every row above
the bottom one is a shifted identity row.  The bottom row is the carrier of
the soliton solutions, and there are two plausible readings of its
quasideterminant expression; ``bottom_row_conventions`` records which one
actually reproduces the computed quotient rather than guessing.
"""

from __future__ import annotations

from .algebra import MatrixAlgebra, SquareMatrix
from .errors import (
    ShapeViolation,
    SingularCell,
    SingularMatrix,
    SingularSubmatrix,
    SingularWronskian,
    VerificationError,
)
from .series import (
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    series_agree,
    series_derive,
)

__all__ = [
    "ConventionNote",
    "quasideterminant",
    "WronskiPair",
    "wronski",
    "FrobeniusCell",
    "frobenius_gamma",
    "frobenius_quotient",
    "frobenius_quotient_closed_form",
    "bottom_row_conventions",
    "solution_entry_via_quasidet",
]


class ConventionNote:
    """Record of an index-convention resolution decided by computation."""

    __slots__ = ("topic", "candidates", "matched", "detail")

    def __init__(self, topic, candidates, matched, detail=""):
        self.topic = topic
        self.candidates = tuple(candidates)
        self.matched = tuple(matched)
        self.detail = detail

    def to_dict(self):
        return {
            "topic": self.topic,
            "candidates": list(self.candidates),
            "matched": list(self.matched),
            "detail": self.detail,
        }

    def __repr__(self):
        return f"ConventionNote({self.topic}: matched {list(self.matched)})"


def quasideterminant(x: SquareMatrix, i: int, j: int):
    """Quasideterminant at 0-based position (i, j).

    Returns x[i][j] - row_i (without j) * inverse(x with row i, col j removed)
    * col_j (without i).  Raises SingularSubmatrix when the submatrix has no
    inverse; a 1x1 matrix has an empty correction term.
    """
    n = x.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"position ({i}, {j}) outside a {n}x{n} matrix")
    base = x.algebra.base
    if n == 1:
        return x.entry(0, 0)
    rows = [r for r in range(n) if r != i]
    cols = [c for c in range(n) if c != j]
    sub = SquareMatrix(
        MatrixAlgebra(base, n - 1),
        tuple(tuple(x.entry(r, c) for c in cols) for r in rows),
    )
    try:
        sub_inv = sub.inverse()
    except SingularMatrix as exc:
        raise SingularSubmatrix(
            f"submatrix for quasideterminant ({i}, {j}) is not invertible"
        ) from exc
    row = [x.entry(i, c) for c in cols]
    col = [x.entry(r, j) for r in rows]
    correction = None
    for s in range(n - 1):
        for t in range(n - 1):
            term = row[s] * sub_inv.entry(s, t) * col[t]
            correction = term if correction is None else correction + term
    return x.entry(i, j) - correction


class WronskiPair:
    """A Wronski matrix W and its entrywise derivative dW.

    Row k of W holds the k-th derivative of each series (k = 0..N-1); row k of
    dW equals row k+1 of W for k < N-1, and the bottom row of dW holds the
    N-th derivatives.
    """

    __slots__ = ("W", "dW", "derivation", "N", "fs")

    def __init__(self, W, dW, derivation, fs):
        self.W = W
        self.dW = dW
        self.derivation = derivation
        self.N = W.dim
        self.fs = tuple(fs)

    def derivative_rows(self):
        """Rows of iterated derivatives, orders 0..N (W plus dW's bottom row)."""
        return tuple(self.W.rows) + (self.dW.rows[-1],)


def wronski(fs, d: Derivation) -> WronskiPair:
    """Build the Wronski pair of a family of series under a derivation."""
    fs = list(fs)
    n = len(fs)
    if n == 0:
        raise ValueError("need at least one series")
    salg = fs[0].algebra
    for f in fs[1:]:
        if f.algebra != salg:
            raise ValueError("all series must share one algebra")
    if min(f.valid_order for f in fs) < n:
        raise ValueError(
            f"valid_order must be at least {n} to take {n} derivatives"
        )
    chain = [tuple(fs)]
    for _ in range(n):
        chain.append(tuple(series_derive(f, d) for f in chain[-1]))
    mat_alg = MatrixAlgebra(salg, n)
    w = SquareMatrix(mat_alg, tuple(chain[k] for k in range(n)))
    dw = SquareMatrix(mat_alg, tuple(chain[k] for k in range(1, n + 1)))
    return WronskiPair(w, dw, d, fs)


class FrobeniusCell:
    """Square matrix whose rows above the bottom form the shifted identity."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: SquareMatrix):
        _require_frobenius_shape(matrix)
        self.matrix = matrix

    @classmethod
    def from_bottom_row(cls, base, bottom_row) -> "FrobeniusCell":
        """Build a cell over algebra ``base`` with the given bottom row."""
        row = [base.coerce(x) for x in bottom_row]
        n = len(row)
        zero, one = base.zero(), base.one()
        rows = [
            tuple(one if q == p + 1 else zero for q in range(n))
            for p in range(n - 1)
        ]
        rows.append(tuple(row))
        return cls(SquareMatrix(MatrixAlgebra(base, n), tuple(rows)))

    @property
    def N(self):
        return self.matrix.dim

    def entry(self, p, q):
        return self.matrix.entry(p, q)

    def bottom_row(self):
        return self.matrix.rows[-1]

    def __eq__(self, other):
        if not isinstance(other, FrobeniusCell):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"FrobeniusCell(N={self.N})"


def _entries_agree(base, x, y) -> bool:
    """Exact equality; relative closeness when the scalars are floats."""
    if base.is_exact:
        return x == y
    if isinstance(base, SeriesAlgebra):
        return series_agree(x, y)
    gap = base.magnitude(x - y)
    return gap <= 1e-9 * max(1.0, base.magnitude(x), base.magnitude(y))


def matrices_agree(a: SquareMatrix, b: SquareMatrix) -> bool:
    if a.algebra != b.algebra:
        return False
    base = a.algebra.base
    return all(
        _entries_agree(base, x, y)
        for ra, rb in zip(a.rows, b.rows)
        for x, y in zip(ra, rb)
    )


def _require_frobenius_shape(matrix: SquareMatrix):
    base = matrix.algebra.base
    n = matrix.dim
    zero, one = base.zero(), base.one()
    for p in range(n - 1):
        for q in range(n):
            want = one if q == p + 1 else zero
            if not _entries_agree(base, matrix.entry(p, q), want):
                raise ShapeViolation(
                    f"row {p} is not a shifted identity row at column {q}"
                )


def frobenius_gamma(wp: WronskiPair) -> FrobeniusCell:
    """The quotient (dW) * W^-1, verified to have exact Frobenius shape.

    The shifted-identity rows are not assumed: they are checked coefficient by
    coefficient through the valid order, so a violation signals an arithmetic
    bug rather than bad input.
    """
    try:
        w_inv = wp.W.inverse()
    except SingularMatrix as exc:
        raise SingularWronskian(f"Wronski matrix not invertible: {exc}") from exc
    gamma = wp.dW * w_inv
    return FrobeniusCell(gamma)


def frobenius_quotient(k_cell: FrobeniusCell, l_cell: FrobeniusCell) -> SquareMatrix:
    """Y = K * L^-1 for Frobenius cells, checked against its closed form.

    L is invertible exactly when its bottom-left entry is; the result has
    identity rows above the bottom, and the bottom row mixes the two cells'
    bottom rows through that one inverse.
    """
    if k_cell.N != l_cell.N or k_cell.matrix.algebra != l_cell.matrix.algebra:
        raise SingularCell("cells must share dimension and algebra")
    closed = frobenius_quotient_closed_form(k_cell, l_cell)
    try:
        direct = k_cell.matrix * l_cell.matrix.inverse()
    except SingularMatrix as exc:
        raise SingularCell(f"cell quotient undefined: {exc}") from exc
    if not matrices_agree(direct, closed):
        raise VerificationError(
            "Frobenius quotient closed form disagrees with the matrix quotient"
        )
    return direct


def frobenius_quotient_closed_form(
    k_cell: FrobeniusCell, l_cell: FrobeniusCell
) -> SquareMatrix:
    """The explicit form of K * L^-1: identity rows plus a mixed bottom row."""
    base = k_cell.matrix.algebra.base
    n = k_cell.N
    mu = k_cell.bottom_row()
    nu = l_cell.bottom_row()
    try:
        nu_inv = base.invert(nu[0])
    except SingularMatrix as exc:
        raise SingularCell(
            "bottom-left entry of the divisor cell is not invertible"
        ) from exc
    pivot = mu[0] * nu_inv
    bottom = [mu[q + 1] - pivot * nu[q + 1] for q in range(n - 1)]
    bottom.append(pivot)
    zero, one = base.zero(), base.one()
    rows = [
        tuple(one if q == p else zero for q in range(n)) for p in range(n - 1)
    ]
    rows.append(tuple(bottom))
    return SquareMatrix(k_cell.matrix.algebra, tuple(rows))


def _submatrix_skipping_order(wp: WronskiPair, skip: int) -> SquareMatrix:
    rows = [r for m, r in enumerate(wp.derivative_rows()) if m != skip]
    return SquareMatrix(wp.W.algebra, tuple(rows))


def bottom_row_conventions(wp: WronskiPair, cell: FrobeniusCell) -> ConventionNote:
    """Compare the computed bottom row against both readings of its
    quasideterminant expression.

    For the 1-based column q the candidate formulas are
    ``|W^q|_NN * |W|^-1_qN`` where W^q drops derivative order q-1
    ("skip-order-q-1") or order q ("skip-order-q") from the orders 0..N.
    Returns which candidates reproduce every bottom-row entry.
    """
    n = wp.N
    results = {"skip-order-q-1": True, "skip-order-q": True}
    details = []
    for q in range(1, n + 1):
        target = cell.entry(n - 1, q - 1)
        try:
            denom = quasideterminant(wp.W, q - 1, n - 1).inverse()
        except (SingularSubmatrix, SingularMatrix):
            details.append(f"q={q}: |W|_qN not invertible, skipped")
            continue
        for name, skip in (("skip-order-q-1", q - 1), ("skip-order-q", q)):
            try:
                numer = quasideterminant(
                    _submatrix_skipping_order(wp, skip), n - 1, n - 1
                )
            except SingularSubmatrix:
                results[name] = False
                details.append(f"q={q}: {name} submatrix singular")
                continue
            value = numer * denom
            if not series_agree(value, target):
                results[name] = False
    matched = [name for name, ok in results.items() if ok]
    return ConventionNote(
        topic="bottom-row-quasideterminant-index",
        candidates=list(results),
        matched=matched,
        detail="; ".join(details),
    )


def solution_entry_via_quasidet(wp: WronskiPair) -> TruncatedSeries:
    """The bottom-left quotient entry expressed through quasideterminants:
    |dW|_NN * |W|^-1_1N."""
    n = wp.N
    numer = quasideterminant(wp.dW, n - 1, n - 1)
    denom = quasideterminant(wp.W, 0, n - 1)
    return numer * denom.inverse()

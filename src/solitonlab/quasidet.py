"""Quasideterminants, Wronski matrices, and Frobenius cells.

The quasideterminant of a square matrix over a noncommutative algebra at
position (i, j) is the (i, j) entry minus row-times-inverse-submatrix-times-
column, with the multiplication order preserved.  Over commutative scalars it
reduces to the signed ratio of determinants, which the tests use as an oracle.
Over a scalar field that ratio is how it is computed: one fraction-free
elimination of the lifted matrix, with pivots from the submatrix, yields it
with no inverse and no product (``_Field.quasideterminant``).  Entries that
are series or matrices still invert the submatrix.

A Wronski matrix stacks iterated derivatives of a family of series; the
quotient (dW) * W^-1 always has Frobenius (companion) shape: every row above
the bottom one is a shifted identity row, so a cell is built from its bottom
row.  For N >= 2 that row x is solved from x * W = (bottom row of dW)
coefficient by coefficient (``SeriesAlgebra.row_solve``), so W is never
inverted, and is then checked by the same relation.  The
bottom row is the carrier of the soliton solutions, and there are two
plausible readings of its quasideterminant expression;
``bottom_row_conventions`` records which one actually reproduces the computed
quotient rather than guessing.
Nothing is inverted beyond the order its result keeps (``series.through``):
``solution_entry_via_quasidet`` reads W, dW and g only through dW's least
valid order, and ``frobenius_gamma`` at N = 1 reads W only through its target's.
"""

from __future__ import annotations

from .algebra import MatrixAlgebra, SquareMatrix, _Field, row_times
from .errors import (
    SingularCell,
    SingularMatrix,
    SingularSubmatrix,
    SingularWronskian,
    VerificationError,
)
from .series import Derivation, TruncatedSeries, series_derive, through

__all__ = [
    "ConventionNote",
    "quasideterminant",
    "WronskiPair",
    "wronski",
    "FrobeniusCell",
    "frobenius_gamma",
    "frobenius_quotient",
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


def note_dicts(notes):
    """Notes as JSON values: a ConventionNote as its dict, a string as is."""
    return [n.to_dict() if isinstance(n, ConventionNote) else n for n in notes]


def quasideterminant(x: SquareMatrix, i: int, j: int):
    """Quasideterminant at 0-based position (i, j).

    Returns x[i][j] - row_i (without j) * inverse(x with row i, col j removed)
    * col_j (without i).  Raises SingularSubmatrix when the submatrix has no
    inverse; a 1x1 matrix has an empty correction term.  Over a scalar field
    the value comes from one fraction-free elimination
    (``_Field.quasideterminant``), with no inverse and no product; series
    and matrix entries invert the submatrix.
    """
    n = x.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"position ({i}, {j}) outside a {n}x{n} matrix")
    base = x.algebra.base
    if n == 1:
        return x.entry(0, 0)
    rows = [r for r in range(n) if r != i]
    cols = [c for c in range(n) if c != j]
    try:
        if isinstance(base, _Field):
            return base.quasideterminant(x, i, j)
        sub_inv = SquareMatrix(
            MatrixAlgebra(base, n - 1),
            tuple(tuple(x.entry(r, c) for c in cols) for r in rows),
        ).inverse()
    except SingularMatrix as exc:
        raise SingularSubmatrix(
            f"submatrix for quasideterminant ({i}, {j}) is not invertible"
        ) from exc
    row = [x.entry(i, c) for c in cols]
    col = [(x.entry(r, j),) for r in rows]
    return x.entry(i, j) - base.matmul([row_times(row, sub_inv)], col)[0][0]


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


class FrobeniusCell(SquareMatrix):
    """The matrix over ``base`` with this bottom row below the shifted
    identity: the identity's rows 1..N-1."""

    __slots__ = ()

    def __init__(self, base, bottom_row):
        alg = MatrixAlgebra(base, len(bottom_row))
        super().__init__(alg, alg.one().rows[1:] + (tuple(map(base.coerce, bottom_row)),))

    def bottom_row(self):
        return self.rows[-1]


def frobenius_gamma(wp: WronskiPair) -> FrobeniusCell:
    """The quotient (dW) * W^-1, of which only the bottom row is computed.

    Row k of dW is row k + 1 of W for k < N - 1, so the rows above are the
    shifted identity.  For N >= 2 the bottom row x is solved from
    x * W = (bottom row of dW) one coefficient at a time, with no inverse of
    W, and then checked by that relation through the valid order, so a
    failure signals an arithmetic bug.  At N = 1 it is the bottom row of dW
    times the series inverse of W, whose recurrence is the relation's own.
    """
    target = wp.dW.rows[-1]
    salg = wp.W.algebra.base
    try:
        if wp.N == 1:
            bottom = row_times(target, through(wp.W, target[0].valid_order).inverse())
        else:
            bottom = salg.row_solve(target, wp.W)
    except SingularMatrix as exc:
        raise SingularWronskian(f"Wronski matrix not invertible: {exc}") from exc
    if wp.N > 1 and row_times(bottom, wp.W) != target:
        raise VerificationError(
            "bottom row of (dW) * W^-1 fails its defining relation x * W = dW"
        )
    return FrobeniusCell(salg, bottom)


def frobenius_quotient(k_cell: FrobeniusCell, l_cell: FrobeniusCell) -> SquareMatrix:
    """Y = K * L^-1 for Frobenius cells, in closed form.

    L is invertible exactly when its bottom-left entry is.  Y has identity
    rows above the bottom row y, which mixes the cells' bottom rows mu and nu
    through the one quotient mu_0 / nu_0.  The identity rows satisfy
    Y * L = K by construction, and y is checked by y * L = mu.
    """
    if k_cell.algebra != l_cell.algebra:
        raise SingularCell("cells must share dimension and algebra")
    mu = k_cell.bottom_row()
    nu = l_cell.bottom_row()
    try:
        pivot = mu[0] / nu[0]
    except (SingularMatrix, ZeroDivisionError) as exc:
        raise SingularCell(
            "bottom-left entry of the divisor cell is not invertible"
        ) from exc
    bottom = [m - pivot * v for m, v in zip(mu[1:], nu[1:])] + [pivot]
    if row_times(bottom, l_cell) != mu:
        raise VerificationError(
            "Frobenius quotient fails its defining relation Y * L = K"
        )
    identity = k_cell.algebra.one().rows
    return SquareMatrix(k_cell.algebra, identity[:-1] + (tuple(bottom),))


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
            if numer * denom != target:
                results[name] = False
    matched = [name for name, ok in results.items() if ok]
    return ConventionNote(
        topic="bottom-row-quasideterminant-index",
        candidates=list(results),
        matched=matched,
        detail="; ".join(details),
    )


def solution_entry_via_quasidet(wp: WronskiPair, g) -> TruncatedSeries:
    """The residual |dW|_NN - g |W|_1N of g against its quasideterminant
    expression |dW|_NN * |W|^-1_1N, as one quasideterminant: the row is
    left-linear and dW's upper rows are W's rows 1..N-1, so it is |M|_NN of
    dW with bottom row (bottom row of dW) - g (top row of W), read through
    dW's least valid order.  |W|_1N is invertible with W, so it vanishes
    exactly when g equals the expression."""
    n = wp.N
    least = min(s.valid_order for row in wp.dW.rows for s in row)
    dw, g = through(wp.dW, least), through(g, least)
    bottom = [x - g * through(w, least) for x, w in zip(dw.rows[-1], wp.W.rows[0])]
    m = SquareMatrix(dw.algebra, dw.rows[:-1] + (bottom,))
    return quasideterminant(m, n - 1, n - 1)

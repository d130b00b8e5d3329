"""Truncated formal power series with noncommutative coefficients.

A series lives in ``SeriesAlgebra(coeff, arity, cap)``: one variable ``t`` or
two commuting variables ``(u, v)``, and coefficients in any algebra from
:mod:`solitonlab.algebra`.

Each series carries ``valid_order`` (at most ``cap``): every coefficient of
total degree strictly below it is guaranteed correct, and those are exactly
the coefficients it stores, densely in graded-lexicographic order, in the one
form every kernel reads: an r x r grid of field scalars, r = 1 over a field
and the flattened size over a matrix tower, whose entry (a, b) is the tuple
of that scalar of every coefficient (``TruncatedSeries.grid``).  ``coeffs``,
the coefficients as elements of the coefficient algebra, is a view built on
request.  Products and sums take the minimum of the operands' valid orders
and compute only that prefix, a formal derivative loses one order, and
inversion preserves the order of its input.  A series with no trusted
coefficient decides nothing: deriving, inverting or row-solving it raises
``ValueError``.

Products, quotients, exponentials and derivatives are formed over integers,
in the integer form of field scalars that :mod:`solitonlab.algebra` owns
(``_lift``, ``_lower``, ``_real_grid`` and the field's ``modulus``); this
module keeps only the algorithms.  One kernel (``_product``) multiplies a
k x N grid of series by an N x m grid, so a product of two series is its
1 x 1 case and a product of matrices of series (``SeriesAlgebra.matmul``)
is one call: the grids of each side are flattened into one
(``algebra._flatten``), read as integer numerators over one denominator,
the left grid as rows of channels and the right one in its real form, and
convolved with plain ``int`` multiply-adds.  Output entry (i, j) is trusted
below the least valid order in row i of the left grid and column j of the
right one, as a sum of series products would be.

Scaling by a coefficient c (``scale_left``, ``scale_right``) is a selection
when c is a matrix over a field each of whose rows (scaling from the left)
or columns (from the right) holds at most one nonzero entry, and that entry
is +-1, as b = +-1 diagonals, the grading projectors (1 +- b)/2 and signed
permutations are: each row or column of the grid is kept, negated or
zeroed.  Scaling by any other coefficient, 2 * 1 included, is a product
with a constant series.

Inverses, quotients and row solves are one right division x * a = y
(``_divide``): a series inverse is the quotient 1 / a, the inverse of a
matrix of series is y = 1 with the N x N matrix of r x r blocks flattened
to Nr x Nr, and ``row_solve`` takes y as one block row.  a_0^-1 comes from
exact Gauss-Jordan elimination, and with the denominators D_a, D_y and m
of a, y and a_0^-1 and s = D_a m, each x_E is Z_E / (D_y m s^|E|) for
integer matrices Z_E given by one recurrence.  One kernel (``_exp_rows``)
forms row * exp(cu*u + cv*v) by one row-times-matrix step per exponent.

Fractions reduce to lowest terms and residues to [0, p), and a product, an
inverse, the solution of x * a = y, a power and a derivative are unique, so
each value, and every report, is the same as from a coefficient-by-coefficient
computation.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, attrgetter, itemgetter, mul, sub

from .algebra import (
    Algebra,
    MatrixAlgebra,
    SquareMatrix,
    _blocks,
    _channel_rows,
    _field_and_dim,
    _flatten,
    _from_grid,
    _gauss_jordan,
    _lift,
    _lower,
    _pair_channels,
    _real_grid,
    _real_scalars,
    _scalar_grid,
)
from .errors import (
    AlgebraMismatch,
    DerivationMismatch,
    NoncommutingExponents,
    SingularConstantTerm,
    SingularMatrix,
)

__all__ = [
    "Derivation",
    "D_U",
    "D_V",
    "D_T",
    "SeriesAlgebra",
    "TruncatedSeries",
    "series_derive",
    "series_exp_linear",
    "series_exp_row",
    "series_inverse",
    "series_equal",
    "constant_series_matrix",
    "through",
]


@lru_cache(maxsize=None)
def _exponents(arity: int, cap: int):
    """All exponent tuples of total degree < cap, graded-lex order."""
    if arity == 1:
        return tuple((m,) for m in range(cap))
    return tuple((d - n, n) for d in range(cap) for n in range(d + 1))


def _count_below(arity: int, degree: int) -> int:
    """How many exponents have total degree < degree: a prefix of the grading."""
    return degree if arity == 1 else degree * (degree + 1) // 2


@lru_cache(maxsize=None)
def _index_of(arity: int, cap: int):
    return {e: i for i, e in enumerate(_exponents(arity, cap))}


@lru_cache(maxsize=None)
def _row_pairs(arity: int, cap: int):
    """Per row ia: the output index of (ia, ib) for each ib whose product stays
    under cap.  Those ib are a prefix of the grading, so the row lists only
    their output indices."""
    exps = _exponents(arity, cap)
    index = _index_of(arity, cap)
    return tuple(
        tuple(
            index[tuple(x + y for x, y in zip(ea, eb))]
            for eb in exps[: _count_below(arity, cap - sum(ea))]
        )
        for ea in exps
    )


@lru_cache(maxsize=None)
def _inverse_pairs(arity: int, cap: int):
    """For each output index E: the (F, E-F) index pairs with F != 0."""
    pairs = [[] for _ in range(_count_below(arity, cap))]
    for i_f, row in enumerate(_row_pairs(arity, cap)):
        if i_f:
            for i_r, iout in enumerate(row):
                pairs[iout].append((i_f, i_r))
    return tuple(map(tuple, pairs))


class Derivation:
    """A formal partial derivative, optionally scaled by a central scalar."""

    __slots__ = ("var", "scale")

    def __init__(self, var: str, scale=1):
        if var not in ("u", "v", "t"):
            raise DerivationMismatch(f"unknown derivation variable {var!r}")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def axis(self, arity: int) -> int:
        if arity == 2 and self.var in ("u", "v"):
            return 0 if self.var == "u" else 1
        if arity == 1 and self.var == "t":
            return 0
        raise DerivationMismatch(
            f"derivation d/d{self.var} does not act on arity-{arity} series"
        )

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.var == other.var and self.scale == other.scale

    def __hash__(self):
        return hash((self.var, self.scale))

    def __repr__(self):
        if self.scale == 1:
            return f"Derivation({self.var!r})"
        return f"Derivation({self.var!r}, scale={self.scale!r})"


D_U = Derivation("u")
D_V = Derivation("v")
D_T = Derivation("t")


class SeriesAlgebra(Algebra):
    """Truncated series in 1 or 2 variables over a coefficient algebra."""

    def __init__(self, coeff: Algebra, arity: int, cap: int):
        if arity not in (1, 2):
            raise ValueError("arity must be 1 or 2")
        if cap < 1:
            raise ValueError("cap must be positive")
        self.coeff = coeff
        self.arity = arity
        self.cap = cap

    @property
    def is_exact(self):
        return self.coeff.is_exact

    def __eq__(self, other):
        return (
            isinstance(other, SeriesAlgebra)
            and other.arity == self.arity
            and other.cap == self.cap
            and other.coeff == self.coeff
        )

    def __hash__(self):
        return hash(("series", self.arity, self.cap, self.coeff))

    def __repr__(self):
        vars_ = "t" if self.arity == 1 else "u,v"
        return f"Series[{vars_}; cap={self.cap}]({self.coeff!r})"

    @property
    def exponents(self):
        return _exponents(self.arity, self.cap)

    def constant(self, value, valid_order=None) -> "TruncatedSeries":
        return self.monomial((0,) * self.arity, value, valid_order)

    def monomial(self, exponent, value=1, valid_order=None) -> "TruncatedSeries":
        """value * u^m v^n (or t^m); only zeros when it lies at or above valid_order."""
        exponent = tuple(exponent)
        idx = _index_of(self.arity, self.cap).get(exponent)
        if idx is None:
            raise ValueError(f"exponent {exponent} out of range for cap {self.cap}")
        vo = self.cap if valid_order is None else valid_order
        pad = (_field_and_dim(self.coeff)[0].zero(),) * _count_below(self.arity, vo)
        grid = [[pad[:idx] + (x,) + pad[idx + 1:] if idx < len(pad) else pad for x in row]
                for row in _scalar_grid(self.coeff, self.coeff.coerce(value))]
        return TruncatedSeries._of(self, grid, vo)

    def zero(self):
        return self.constant(self.coeff.zero())

    def one(self):
        return self.constant(self.coeff.one())

    def coerce(self, value):
        if isinstance(value, TruncatedSeries):
            if value.algebra == self:
                return value
            raise AlgebraMismatch(f"series from {value.algebra!r}, not {self!r}")
        return self.constant(self.coeff.coerce(value))

    def invert(self, a):
        return series_inverse(self.coerce(a))

    def is_zero(self, a):
        return a.is_zero()

    def scalar_mul(self, q, a):
        q = _field_and_dim(self.coeff)[0].coerce(q)
        grid = [[[q * x for x in e] for e in row] for row in a.grid]
        return TruncatedSeries._of(self, grid, a.valid_order)

    def magnitude(self, a):
        magnitude = _field_and_dim(self.coeff)[0].magnitude
        return max((magnitude(x) for row in a.grid for e in row for x in e), default=0.0)

    def format_element(self, a, degree_limit=None):
        field = _field_and_dim(self.coeff)[0]
        out = []
        for k in a.nonzero_indices():
            e = self.exponents[k]
            if degree_limit is None or sum(e) <= degree_limit:
                grid = [[field.format_element(x[k]) for x in row] for row in a.grid]
                out.append({"exponents": list(e), "coefficient": _nested(self.coeff, grid)})
        return out

    def matrix_inverse(self, m):
        """The inverse of a matrix of series: the right division x * m = 1,
        whose rows all keep m's least order."""
        return self.matrix_divide(m.algebra.one(), m)

    def matrix_divide(self, x, m):
        """x * m^-1 for matrices of series: one right division per group of
        rows of x that keep one order, the row's least order capped at m's,
        so every entry keeps the order the product would give it."""
        least = min(map(_valid_order, (s for row in m.rows for s in row)))
        groups = {}
        for i, row in enumerate(x.rows):
            groups.setdefault(min(least, *map(_valid_order, row)), []).append(i)
        rows = [None] * m.dim
        for picks in groups.values():
            solved = self._divide_rows([x.rows[i] for i in picks], m, "divide",
                                       "series constant term is not invertible")
            for i, row in zip(picks, solved):
                rows[i] = row
        return SquareMatrix(m.algebra, rows)

    def row_solve(self, y, m) -> tuple:
        """The row x of series with x * m = y, through the least valid order
        of y and m.

        m is read as one series of N x N matrices, each flattened to a grid
        of field scalars, and y as one block row of such a grid; ``_divide``
        forms x over integers.  Equals ``row_times(y, m.inverse())`` without
        building the inverse, valid order included, and every value is the
        same: the solution is unique and its scalars are canonical.  Raises
        SingularConstantTerm when the constant matrix W_0 is singular and
        ValueError when no coefficient is trusted.
        """
        return self._divide_rows(
            [y], m, "solve", "constant coefficient matrix is not invertible"
        )[0]

    def _divide_rows(self, y_rows, m, action, singular):
        """The rows of series x with x * m = y_rows, the grids of each side
        flattened into one (``_flatten``).  The constant term W_0 is
        inverted by ``invert`` of the matrix algebra over the coefficients."""
        vo = _trusted_order(
            [x for rows in (y_rows, m.rows) for row in rows for x in row], action
        )
        n = _count_below(self.arity, vo)
        field, r = _field_and_dim(self.coeff)
        a, y = (_flatten([[_cut(x.grid, n) for x in row] for row in rows])
                for rows in (m.rows, y_rows))
        alg = MatrixAlgebra(self.coeff, m.dim)
        a0 = _from_grid(alg, [[e[0] for e in row] for row in a])
        x = _divide(self.arity, vo, field, lambda: _scalar_grid(alg, alg.invert(a0)),
                    a, y, singular)
        return [tuple(TruncatedSeries._of(self, b, vo) for b in brow) for brow in _blocks(x, r)]

    def matmul(self, xs, ys) -> list:
        """The rows of the product of a k x N grid ``xs`` by an N x m grid
        ``ys`` of series, in one pass over integers (``_product``)."""
        return _product(self, [[self.coerce(x) for x in row] for row in xs],
                        [[self.coerce(y) for y in row] for row in ys])


class TruncatedSeries:
    """Immutable truncated series; ``*`` is the Cauchy product.

    ``grid`` holds exactly the trusted coefficients, in the form every
    kernel reads: an r x r grid, r = 1 over a field and the flattened size
    over a matrix tower (``_scalar_grid``), whose entry (a, b) is the tuple
    of that scalar of each coefficient of total degree below
    ``valid_order``, in graded-lexicographic order.  The constructor takes
    the coefficients as elements of the coefficient algebra and converts
    them once; ``coeffs`` is a view that builds them back on each read.
    """

    __slots__ = ("algebra", "grid", "valid_order")

    def __init__(self, algebra: SeriesAlgebra, coeffs, valid_order: int):
        if not 0 <= valid_order <= algebra.cap:
            raise ValueError(f"valid_order {valid_order} outside [0, cap]")
        coeffs = tuple(coeffs)
        if len(coeffs) != _count_below(algebra.arity, valid_order):
            raise AlgebraMismatch(f"{len(coeffs)} coefficients for valid_order {valid_order}")
        self._store(algebra, _grid_of(algebra.coeff, coeffs), valid_order)

    @classmethod
    def _of(cls, algebra: SeriesAlgebra, grid, valid_order: int) -> "TruncatedSeries":
        """The series whose ``grid`` is ``grid``, with no conversion."""
        s = object.__new__(cls)
        s._store(algebra, grid, valid_order)
        return s

    def _store(self, algebra, grid, valid_order):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "grid", tuple([tuple(map(tuple, row)) for row in grid]))
        object.__setattr__(self, "valid_order", valid_order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The trusted coefficients as elements of the coefficient algebra,
        built from ``grid`` on each read."""
        alg, grid = self.algebra.coeff, self.grid
        if not isinstance(alg, MatrixAlgebra):
            return grid[0][0]
        return tuple(_from_grid(alg, [[e[k] for e in row] for row in grid])
                     for k in range(len(grid[0][0])))

    def _trusted_index(self, exponent):
        e = tuple(exponent)
        idx = _index_of(self.algebra.arity, self.algebra.cap).get(e)
        if idx is None or idx >= len(self.grid[0][0]):
            raise ValueError(f"exponent {e} not below valid_order {self.valid_order}")
        return idx

    def coeff(self, exponent):
        """Coefficient at an exponent tuple; ValueError at or above valid_order."""
        return self.coeffs[self._trusted_index(exponent)]

    def nonzero_indices(self):
        """The indices of the trusted coefficients with a nonzero scalar (a
        scalar of every field is false exactly when it is zero)."""
        entries = [e for row in self.grid for e in row]
        return tuple(k for k, xs in enumerate(zip(*entries)) if any(xs))

    def is_zero(self) -> bool:
        """True when every trusted coefficient (degree < valid_order) is zero."""
        return not self.nonzero_indices()

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other):
        if other.algebra != self.algebra:
            raise AlgebraMismatch(
                f"series algebra mismatch: {self.algebra!r} vs {other.algebra!r}"
            )

    def _coerce_other(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same(other)
            return other
        return self.algebra.coerce(other)

    def __add__(self, other):
        return self._zip(other, add)

    __radd__ = __add__

    def __neg__(self):
        grid = [[[-x for x in e] for e in row] for row in self.grid]
        return TruncatedSeries._of(self.algebra, grid, self.valid_order)

    def __sub__(self, other):
        return self._zip(other, sub)

    def _zip(self, other, op):
        """The scalarwise op, through the lesser valid order."""
        other = self._coerce_other(other)
        grid = [[map(op, x, y) for x, y in zip(ra, rb)] for ra, rb in zip(self.grid, other.grid)]
        return TruncatedSeries._of(self.algebra, grid, min(self.valid_order, other.valid_order))

    def __rsub__(self, other):
        return self.algebra.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same(other)
            return _convolve(self, other)
        try:
            c = self.algebra.coeff.coerce(other)
        except AlgebraMismatch:
            return NotImplemented
        return self.scale_right(c)

    def __rmul__(self, other):
        try:
            c = self.algebra.coeff.coerce(other)
        except AlgebraMismatch:
            return NotImplemented
        return self.scale_left(c)

    def scale_left(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by ``c`` from the left: by selection
        of rows when ``c`` selects them (see ``_selection``), else by the
        product with a constant series."""
        return self._scale(c, True)

    def scale_right(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by ``c`` from the right: by selection
        of columns when ``c`` selects them, else by the product with a
        constant series."""
        return self._scale(c, False)

    def _scale(self, c, left):
        salg = self.algebra
        c = salg.coeff.coerce(c)
        picks = _selection(salg.coeff, c, left)
        if picks is None:
            const = salg.constant(c, self.valid_order)
            return _convolve(const, self) if left else _convolve(self, const)
        grid = _select(salg.coeff.base.zero(), self.grid, picks, left)
        return TruncatedSeries._of(salg, grid, self.valid_order)

    def derive(self, d: Derivation) -> "TruncatedSeries":
        return series_derive(self, d)

    def inverse(self) -> "TruncatedSeries":
        return series_inverse(self)

    def __truediv__(self, other) -> "TruncatedSeries":
        """self * other^-1 by one right division, through the lesser valid
        order; SingularConstantTerm when other's constant term is singular."""
        other = self._coerce_other(other)
        vo = _trusted_order((self, other), "divide")
        salg = self.algebra
        field = _field_and_dim(salg.coeff)[0]
        n = _count_below(salg.arity, vo)
        a, y = (_cut(x.grid, n) for x in (other, self))
        a0 = [[e[0] for e in row] for row in a]
        x = _divide(salg.arity, vo, field, lambda: _gauss_jordan(field, a0), a, y,
                    "series constant term is not invertible")
        return TruncatedSeries._of(salg, x, vo)

    def with_valid_order(self, valid_order: int) -> "TruncatedSeries":
        """Truncate; raising the order is a ValueError, as nothing is stored there."""
        if not 0 <= valid_order <= self.valid_order:
            raise ValueError(f"cannot cut valid_order {self.valid_order} to {valid_order}")
        k = _count_below(self.algebra.arity, valid_order)
        return TruncatedSeries._of(self.algebra, _cut(self.grid, k), valid_order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_equal(self, other)

    # series of different orders compare equal on their common prefix, so no
    # hash can agree with equality
    __hash__ = None

    def __repr__(self):
        exps, coeffs = self.algebra.exponents, self.coeffs
        names = ("t",) if self.algebra.arity == 1 else ("u", "v")
        nonzero = self.nonzero_indices()
        terms = []
        for i in nonzero[:6]:
            mono = "*".join(f"{n}^{k}" for n, k in zip(names, exps[i]) if k)
            terms.append(f"({coeffs[i]!r})*{mono or '1'}")
        body = " + ".join(terms + ["..."] * (len(nonzero) > 6)) or "0"
        return f"<series {body}; valid<{self.valid_order}>"


def _trusted_order(series, action: str) -> int:
    """The least valid order of ``series``; ValueError when it is 0."""
    vo = min(s.valid_order for s in series)
    if vo < 1:
        raise ValueError(f"no trusted coefficients to {action}")
    return vo


def _convolve(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The Cauchy product a * b through the lesser valid order: the 1 x 1
    case of ``_product``."""
    return _product(a.algebra, ((a,),), ((b,),))[0][0]


def _selection(alg, c, left):
    """How the constant ``c`` of ``alg`` acts by selection, or None.

    It does when ``alg`` is one matrix layer over a field and each row of c
    (scaling from the left) or column (from the right) holds at most one
    nonzero entry, and that entry is +-1: b = +-1 diagonals, the grading
    projectors (1 +- b)/2 and signed permutations.  Then row (column) i of
    c x (x c) is zero, or plus or minus row (column) k of x, and the result
    lists, per i, None or (k, negate).  The scan stops at the first entry
    that is not 0 or +-1, so other constants cost almost nothing here.
    """
    if not isinstance(alg, MatrixAlgebra) or isinstance(alg.base, MatrixAlgebra):
        return None
    zero, one = alg.base.zero(), alg.base.one()
    minus_one = -one
    picks = []
    for line in (c.rows if left else zip(*c.rows)):
        pick = None
        for k, x in enumerate(line):
            if x == zero:
                continue
            if x == one:
                negate = False
            elif x == minus_one:
                negate = True
            else:
                return None
            if pick is not None:
                return None
            pick = (k, negate)
        picks.append(pick)
    return picks


def _select(zero, grid, picks, left):
    """The grid of c x (left) or x c (right) for the series grid of x and
    the ``_selection`` picks of c: each row (column) of the grid kept,
    negated or zeroed."""
    zeros = (zero,) * len(grid[0][0])

    def take(line, p):
        if p is None:
            return zeros
        e = line[p[0]]
        return [-x for x in e] if p[1] else e

    if left:
        return [[take(col, p) for col in zip(*grid)] for p in picks]
    return [[take(row, p) for p in picks] for row in grid]


def _product(salg, xs, ys):
    """The rows of the product of a k x N grid ``xs`` by an N x m grid ``ys``
    of series of ``salg``, over integers.

    Entry (i, j) is the sum over l of xs[i][l] * ys[l][j], trusted below the
    least valid order of those products, as a sum of series products would
    be: the least order in row i of xs and column j of ys.  The series
    grids of each side are flattened into one (``_flatten``) and lifted
    once over one denominator, the left one read as rows of channels
    and the right one in its real form (``_real_grid``).  Every output
    channel adds the products (``_mul_add``) along its row and real column
    in plain ``int``s, and each entry is lowered once, over the product of
    the two denominators.
    """
    arity = salg.arity
    field, r = _field_and_dim(salg.coeff)
    row_orders = [min(map(_valid_order, row)) for row in xs]
    col_orders = [min(map(_valid_order, col)) for col in zip(*ys)]
    # each series is read only as far as some output entry trusts it
    top_row, top_col = max(row_orders), max(col_orders)
    x_counts = [_count_below(arity, min(o, top_col)) for o in row_orders]
    y_counts = [_count_below(arity, min(o, top_row)) for o in col_orders]
    den_x, x_int = _lift(field, _flatten([
        [_cut(x.grid, n) for x in row] for row, n in zip(xs, x_counts)]))
    den_y, y_int = _lift(field, _flatten([
        [_cut(y.grid, n) for y, n in zip(row, y_counts)] for row in ys]))
    den = den_x * den_y
    w = len(x_int[0][0])
    x_rows = _channel_rows(x_int)
    y_cols = list(zip(*_real_grid(field.terms, y_int)))
    out = []
    for i, vo_i in enumerate(row_orders):
        out_row = []
        for j, vo_j in enumerate(col_orders):
            vo = min(vo_i, vo_j)
            n = _count_below(arity, vo)
            pairs = _row_pairs(arity, vo)
            # block (i, j) is rows i r.. and real columns j r w.. (``_flatten``)
            block = []
            for x_row in x_rows[i * r:(i + 1) * r]:
                block_row = []
                for y_col in y_cols[j * r * w:(j + 1) * r * w]:
                    acc = None
                    for x, y in zip(x_row, y_col):
                        if x is not None and y is not None:
                            if acc is None:
                                acc = [0] * n
                            _mul_add(acc, x, y, pairs)
                    block_row.append(acc)
                block.append(block_row)
            grid = _lower(field, _pair_channels(w, block), [den] * n)
            out_row.append(TruncatedSeries._of(salg, grid, vo))
        out.append(tuple(out_row))
    return out


_valid_order = attrgetter("valid_order")


def _mul_add(out, x, y, rows):
    """out += x conv y for integer lists x, y over the pair rows."""
    if x.count(0) < y.count(0):
        x, y = y, x  # integers commute: walk the rows of the sparser list
    for xa, row in zip(x, rows):
        if xa:
            for io, yb in zip(row, y):
                out[io] += xa * yb


def _grid_of(alg, coeffs):
    """Coefficients of ``alg`` as one series grid (see ``TruncatedSeries``):
    entry (a, b) lists that scalar of each coefficient's ``_scalar_grid``."""
    r = _field_and_dim(alg)[1]
    grids = [_scalar_grid(alg, c) for c in coeffs]
    return [[tuple(g[a][b] for g in grids) for b in range(r)] for a in range(r)]


def _cut(grid, n):
    """A series grid read through its first n coefficients."""
    return [[e[:n] for e in row] for row in grid]


def _nested(alg, grid):
    """A grid of values, one per scalar (``_scalar_grid``), nested in lists
    as the rows of an element of ``alg`` are: its ``format_element`` layout."""
    if not isinstance(alg, MatrixAlgebra):
        return grid[0][0]
    return [[_nested(alg.base, block) for block in brow]
            for brow in _blocks(grid, len(grid) // alg.dim)]


def series_derive(s: TruncatedSeries, d: Derivation) -> TruncatedSeries:
    """Formal partial derivative; valid order drops by one.

    The coefficient at E is k * scale times the one at E + e_axis, with
    k = E[axis] + 1: the lifted integer numerators (see ``_lift``) are
    multiplied by k and then by the real block of the lifted scale
    (``_times``), and each output scalar is lowered once, over the product
    of the two denominators.
    """
    vo = _trusted_order((s,), "differentiate")
    salg = s.algebra
    field = _field_and_dim(salg.coeff)[0]
    n = _count_below(salg.arity, vo - 1)
    sources, factors = _derive_map(salg.arity, vo, d.axis(salg.arity))
    den, xs = _lift(field, s.grid)
    scale_den, scale = _scale_block(field, d.scale)
    out = [
        [_times([None if ch is None else list(map(mul, factors, sources(ch)))
                 for ch in x], scale)
         for x in row]
        for row in xs
    ]
    return TruncatedSeries._of(salg, _lower(field, out, [den * scale_den] * n), vo - 1)


@lru_cache(maxsize=None)
def _scale_block(field, scale):
    """(D, block) for a derivation's scale over ``field``: its real block
    (``_real_scalars``), lifted once per field and scale and kept read-only."""
    den, block = _real_scalars(field, [[field.coerce(scale)]])
    return den, tuple(map(tuple, block))


def _times(chans, block):
    """Integer channels (lists, or None for all zeros) times the real block
    of a scalar (``_real_scalars``): the channels of the product."""
    out = []
    for col in zip(*block):
        acc = None
        for x, c in zip(chans, col):
            if x is not None and c:
                nums = x if c == 1 else [c * v for v in x]
                acc = nums if acc is None else list(map(add, acc, nums))
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def _derive_map(arity: int, valid_order: int, axis: int):
    """For d/d(axis) of a series trusted below ``valid_order``: a gather of
    the source index of each output index, and the factor k of each."""
    index = _index_of(arity, valid_order)
    targets = _exponents(arity, valid_order - 1)
    step = tuple(int(i == axis) for i in range(arity))
    return (
        _gather([index[tuple(map(add, e, step))] for e in targets]),
        tuple(e[axis] + 1 for e in targets),
    )


def series_exp_linear(cu, cv, cap: int, algebra: Algebra) -> TruncatedSeries:
    """exp(cu*u + cv*v) through total degree < cap (or exp(cu*t) when cv is None).

    Requires cu*cv = cv*cu so that both one-sided derivative identities
    d/du exp = exp*cu and d/dv exp = exp*cv hold; the coefficient at (m, n)
    is cu^m * cv^n / (m! n!).  It is ``_exp_rows`` from the one-entry row 1.
    """
    return _exp_rows(algebra, algebra, [algebra.one()], cu, cv, cap)[0]


def series_exp_row(row, cu, cv, cap: int, algebra: MatrixAlgebra) -> tuple:
    """row * exp(cu*u + cv*v) for n x n matrices cu, cv of ``algebra``: one
    series over ``algebra.base`` per entry of the row, each coefficient the
    row times that of ``series_exp_linear(cu, cv, cap, algebra)``."""
    if len(row) != algebra.dim:
        raise AlgebraMismatch(f"a row of {len(row)} entries for {algebra!r}")
    return _exp_rows(algebra, algebra.base, row, cu, cv, cap)


def _exp_rows(alg, out, row, cu, cv, cap):
    """row * exp(cu*u + cv*v) (row * exp(cu*t) when cv is None) below total
    degree cap, for cu, cv of ``alg`` and a row over ``out`` that flattens to
    one row of ``alg``'s scalar grid: one series over ``out`` per entry.

    The row, cu and cv are lifted once to P = D_p row, C_u = D_u cu and
    C_v = D_v cv, the row as rows of channels and cu, cv in their real form
    (see ``_real_grid``).  P C_u^m C_v^l is the rows at (m, l - 1) times
    C_v, or at (m - 1, 0) times C_u, reduced over GF(p), and each scalar is
    lowered once, over D_p D_u^m m! D_v^l l!.
    """
    cs = [alg.coerce(c) for c in (cu, cv) if c is not None]
    if len(cs) == 2 and cs[0] * cs[1] != cs[1] * cs[0]:
        raise NoncommutingExponents("exponent coefficients do not commute")
    field = _field_and_dim(alg)[0]
    r = _field_and_dim(out)[1]
    den, p_int = _lift(field, _flatten([[_grid_of(out, [out.coerce(x)]) for x in row]]))
    steps = []
    for c in cs:
        den_c, c_real = _real_scalars(field, _scalar_grid(alg, c))
        steps.append((den_c, list(zip(*c_real))))
    rows = [[[x[0] if x else 0 for x in line] for line in _channel_rows(p_int)]]
    dens = [den]
    modulus = field.modulus
    for prev, axis, k in _exp_steps(len(cs), cap):
        den_c, cols = steps[axis]
        prod = [[sum(map(mul, line, col)) for col in cols] for line in rows[prev]]
        rows.append([[v % modulus for v in line] for line in prod] if modulus else prod)
        dens.append(dens[prev] * den_c * k)
    z = [[list(col) for col in zip(*powers)] for powers in zip(*rows)]
    grid = _lower(field, _pair_channels(len(p_int[0][0]), z), dens)
    salg = SeriesAlgebra(out, len(cs), cap)
    return tuple(TruncatedSeries._of(salg, b, cap) for b in _blocks(grid, r)[0])


@lru_cache(maxsize=None)
def _exp_steps(arity: int, cap: int):
    """Per exponent E > 0: (index of E - e_a, a, E[a]), a the last axis with E[a] > 0."""
    index = _index_of(arity, cap)
    steps = []
    for e in _exponents(arity, cap)[1:]:
        a = arity - 1 if e[-1] else 0
        steps.append((index[tuple(k - (i == a) for i, k in enumerate(e))], a, e[a]))
    return tuple(steps)


def _divide(arity, valid_order, field, invert, a, y, singular):
    """The x with x * a = y through ``valid_order``, formed over integers.

    ``a`` and ``y`` are grids of per-entry lists of ``field`` scalars (see
    ``TruncatedSeries``): n x n for a, k x n for y.  Returns x in the shape
    of y.

    ``invert()`` gives a_0^-1 as a grid of scalars (a SingularMatrix there
    raises SingularConstantTerm with the message ``singular``).  a, y and
    a_0^-1 are lifted to integers A = D_a a, Y = D_y y and M = m a_0^-1, and with
    s = D_a m, x_E = Z_E / (D_y m s^|E|) where

        Z_E = (Y_E s^|E| - sum over F != 0 of s^(|F|-1) Z_(E-F) A_F) M

    is an exact integer recurrence.  Y is read as rows of channels and A
    and M in their real form (see ``_real_grid``), and over GF(p) every Z_E
    is reduced.
    """
    try:
        a0_inv = invert()
    except SingularMatrix as exc:
        raise SingularConstantTerm(singular) from exc
    den_a, a_int = _lift(field, a)
    m, m_int = _real_scalars(field, a0_inv)
    den_y, y_int = _lift(field, y)
    s = den_a * m
    z = _divide_integers(arity, valid_order, _real_grid(field.terms, a_int), m_int,
                         _channel_rows(y_int), s, field.modulus)
    dens = [den_y * m * s ** sum(e) for e in _exponents(arity, valid_order)]
    return _lower(field, _pair_channels(len(a_int[0][0]), z), dens)


def _divide_integers(arity, valid_order, a, m, y, s, modulus):
    """Z_E = (Y_E s^|E| - sum over F != 0 of s^(|F|-1) Z_(E-F) A_F) M for
    every index E below ``valid_order``, reduced mod ``modulus`` if given.

    A and Y are grids of per-index integer lists (None for an all-zero
    entry) and M a grid of integers; Z comes back in Y's shape.  Each row of
    Z depends only on the same row of Y.
    """
    n = _count_below(arity, valid_order)
    size = len(m)
    powers = [s ** d for d in range(valid_order)]
    degrees = [sum(e) for e in _exponents(arity, valid_order)]
    pairs = _inverse_pairs(arity, valid_order)
    take_rest = [_gather([i_r for _, i_r in p]) for p in pairs]
    # per index E, per column j: (k, s^(|F|-1) * A_F[k][j] over E's pairs)
    weights = [0] + [powers[d - 1] for d in degrees[1:]]
    scaled = [
        [None if x is None else [v * w for v, w in zip(x, weights)] for x in row]
        for row in a
    ]
    cols = [
        [[(k, take(row[j])) for k, row in enumerate(scaled) if row[j] is not None]
         for j in range(size)]
        for take in (_gather([i_f for i_f, _ in p]) for p in pairs)
    ]
    m_cols = list(zip(*m))
    z = []
    for y_row in y:
        z_row = [[] for _ in range(size)]
        for e in range(n):
            scale = powers[degrees[e]]
            t = [0 if ys is None else ys[e] * scale for ys in y_row]
            if e:
                past = [take_rest[e](zs) for zs in z_row]
                for j, col in enumerate(cols[e]):
                    for k, values in col:
                        t[j] -= sum(map(mul, past[k], values))
            for zs, m_col in zip(z_row, m_cols):
                v = sum(map(mul, t, m_col))
                zs.append(v % modulus if modulus else v)
        z.append(z_row)
    return z


def _gather(indices):
    """A function returning the tuple of a sequence's items at ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda xs: (xs[i],)
    return itemgetter(*indices) if indices else lambda xs: ()


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse through the input's valid order: the right
    division 1 / s.

    Needs an invertible constant term; ValueError when no coefficient is trusted.
    """
    _trusted_order((s,), "invert")
    return s.algebra.one() / s


def series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Exact agreement of every coefficient both sides trust."""
    if a.algebra != b.algebra:
        return False
    n = _count_below(a.algebra.arity, min(a.valid_order, b.valid_order))
    return all(x[:n] == y[:n] for ra, rb in zip(a.grid, b.grid) for x, y in zip(ra, rb))


def through(x, order: int):
    """A series, or a square matrix of series, read only through ``order``.

    Each coefficient of a product, inverse or derivative reads only lower
    degrees, so cutting the operands of a term to the largest order any
    entry of the sum or comparison it feeds keeps moves nothing there."""
    if isinstance(x, TruncatedSeries):
        return x if x.valid_order <= order else x.with_valid_order(order)
    return SquareMatrix(x.algebra, [[through(s, order) for s in row] for row in x.rows])


def constant_series_matrix(m: SquareMatrix, arity: int, cap: int) -> SquareMatrix:
    """Embed a constant matrix as a matrix of constant series."""
    salg = SeriesAlgebra(m.algebra.base, arity, cap)
    rows = [[salg.constant(x) for x in row] for row in m.rows]
    return SquareMatrix(MatrixAlgebra(salg, m.dim), rows)


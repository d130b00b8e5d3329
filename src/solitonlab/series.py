"""Truncated formal power series with noncommutative coefficients.

A series lives in ``SeriesAlgebra(coeff, arity, cap)``: one variable ``t`` or
two commuting variables ``(u, v)``, and coefficients in any algebra from
:mod:`solitonlab.algebra`.

Each series carries ``valid_order`` (at most ``cap``): every coefficient of
total degree strictly below it is guaranteed correct, and those are exactly
the coefficients it stores, as integer numerators over one reduced
denominator per coefficient (see ``TruncatedSeries``).  ``coeffs`` and
reports are views built on request.  Products and sums take the minimum of
the operands' valid orders and compute only that prefix, a formal derivative
loses one order, and inversion preserves the order of its input.  A series
with no trusted coefficient decides nothing: deriving, inverting or
row-solving it raises ``ValueError``.

Every kernel works in plain ``int``s on the integer form of field scalars
that :mod:`solitonlab.algebra` owns, and builds no field scalar: one
product kernel for grids of series (``_product``), one right division
x * a = y in lowest terms for inverses, quotients and row solves
(``_divide``), one exponential kernel (``_exp_rows``), and index-local sums
and derivatives.  Scaling by a constant, the grading b and its projectors
included, multiplies each index's integers by the constant's real form in
one pass (``_scaled``), as a derivation's scale does.  Every result is
reduced once per index (``_reduced``).  A product, an inverse, the
solution of x * a = y, a power and a derivative are unique and their
stored form is canonical, so each value, and every report, is the same as
from a coefficient-by-coefficient computation.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import add, attrgetter, floordiv, itemgetter, mul, neg, sub

from .algebra import (
    Algebra,
    MatrixAlgebra,
    SquareMatrix,
    _blocks,
    _channel_rows,
    _field_and_dim,
    _flatten,
    _from_grid,
    _integers,
    _pair_channels,
    _real_grid,
    _real_inverse,
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
        # the field under the coefficients, and the size r of their grids
        self.field, self.size = _field_and_dim(coeff)

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
        n = _count_below(self.arity, vo)
        nums, dens = _integers(self.field, _grid_of(self.coeff, [self.coeff.coerce(value)]))
        before, after = (0,) * idx, (0,) * (len(self.exponents) - idx - 1)
        nums = [[[ch and before + ch + after for ch in e] for e in row] for row in nums]
        dens = (1,) * idx + dens + (1,) * len(after)
        return TruncatedSeries._of(self, _cut(nums, (1,) * n), dens[:n], vo)

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

    def is_zero(self, a):
        return a.is_zero()

    def scalar_mul(self, q, a):
        return a.scale_left(q)

    def magnitude(self, a):
        field = self.field
        return max((field.magnitude(x) for row in a.nums for e in row if any(e)
                    for x in field.join(e, a.dens)), default=0.0)

    def format_element(self, a, degree_limit=None):
        coeffs, exps, fmt = a.coeffs, self.exponents, self.coeff.format_element
        return [{"exponents": list(exps[k]), "coefficient": fmt(coeffs[k])}
                for k in a.nonzero_indices()
                if degree_limit is None or sum(exps[k]) <= degree_limit]

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
        flattened into one (``_flatten``).  The constant term W_0 is built
        as a matrix over the coefficients and inverted by that matrix
        algebra's ``invert``."""
        vo = _trusted_order(
            [x for rows in (y_rows, m.rows) for row in rows for x in row], action
        )
        n = _count_below(self.arity, vo)
        field, alg = self.field, MatrixAlgebra(self.coeff, m.dim)
        w0 = _from_grid(alg, _flatten([[_constant(s) for s in row] for row in m.rows]))
        x, dens = _divide(self.arity, vo, field,
                          lambda: _real_scalars(field, _scalar_grid(alg, alg.invert(w0))),
                          *(_lift([[(s, n) for s in row] for row in rows])
                            for rows in (m.rows, y_rows)), singular)
        return [tuple(_reduced(self, b, dens, vo) for b in brow)
                for brow in _blocks(x, self.size)]

    def matmul(self, xs, ys) -> list:
        """The rows of the product of a k x N grid ``xs`` by an N x m grid
        ``ys`` of series, in one pass over integers (``_product``)."""
        return _product(self, [[self.coerce(x) for x in row] for row in xs],
                        [[self.coerce(y) for y in row] for row in ys])


class TruncatedSeries:
    """Immutable truncated series; ``*`` is the Cauchy product.

    It stores its coefficients of total degree below ``valid_order``, in
    graded-lexicographic order, as integer numerators ``nums`` over one
    denominator per index, ``dens``.  ``nums`` is an r x r grid, r = 1 over
    a field and the flattened size over a matrix tower (``_scalar_grid``),
    whose entry (a, b) lists that scalar's channels (one, or (re, im) over
    QQ(i)), each the tuple of its numerators at every index, or None when
    they are all zero.  Each index is reduced: its denominator is the least
    common one of its scalars (1 at a zero index, and 1 over GF(p), whose
    numerators are residues in [0, p)), so equal values are stored alike.
    The constructor converts coefficients of the coefficient algebra once;
    ``coeffs`` builds them back on each read.
    """

    __slots__ = ("algebra", "nums", "dens", "valid_order")

    def __init__(self, algebra: SeriesAlgebra, coeffs, valid_order: int):
        if not 0 <= valid_order <= algebra.cap:
            raise ValueError(f"valid_order {valid_order} outside [0, cap]")
        coeffs = tuple(coeffs)
        if len(coeffs) != _count_below(algebra.arity, valid_order):
            raise AlgebraMismatch(f"{len(coeffs)} coefficients for valid_order {valid_order}")
        self._store(algebra, *_integers(algebra.field, _grid_of(algebra.coeff, coeffs)),
                    valid_order)

    @classmethod
    def _of(cls, algebra: SeriesAlgebra, nums, dens, valid_order: int) -> "TruncatedSeries":
        """The series stored as ``nums`` over ``dens``, already reduced."""
        s = object.__new__(cls)
        s._store(algebra, nums, dens, valid_order)
        return s

    def _store(self, algebra, nums, dens, valid_order):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "nums", tuple([tuple(map(tuple, row)) for row in nums]))
        object.__setattr__(self, "dens", tuple(dens))
        object.__setattr__(self, "valid_order", valid_order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The trusted coefficients as elements of the coefficient algebra,
        built from the stored integers on each read."""
        alg, join = self.algebra.coeff, self.algebra.field.join
        grid = [[join(e, self.dens) for e in row] for row in self.nums]
        if not isinstance(alg, MatrixAlgebra):
            return tuple(grid[0][0])
        return tuple(_from_grid(alg, [[e[k] for e in row] for row in grid])
                     for k in range(len(self.dens)))

    def _trusted_index(self, exponent):
        e = tuple(exponent)
        idx = _index_of(self.algebra.arity, self.algebra.cap).get(e)
        if idx is None or idx >= len(self.dens):
            raise ValueError(f"exponent {e} not below valid_order {self.valid_order}")
        return idx

    def coeff(self, exponent):
        """Coefficient at an exponent tuple; ValueError at or above valid_order."""
        return self.coeffs[self._trusted_index(exponent)]

    def nonzero_indices(self):
        """The indices of the trusted coefficients with a nonzero numerator."""
        return tuple(k for k, xs in enumerate(zip(*_channels(self.nums))) if any(xs))

    def is_zero(self) -> bool:
        """True when every trusted coefficient (degree < valid_order) is zero."""
        return not any(map(any, _channels(self.nums)))

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
        return self._zip(self._coerce_other(other), add)

    __radd__ = __add__

    def __neg__(self):
        modulus = self.algebra.field.modulus
        nums = [[_negated(e, modulus) for e in row] for row in self.nums]
        return TruncatedSeries._of(self.algebra, nums, self.dens, self.valid_order)

    def __sub__(self, other):
        """The difference through the lesser valid order: the stored zero
        when both sides store the same coefficients there, else ``_zip``."""
        other = self._coerce_other(other)
        vo = min(self.valid_order, other.valid_order)
        n = _count_below(self.algebra.arity, vo)
        if _stored_alike(self, other, n):
            salg = self.algebra
            zeros = (None,) * len(self.nums[0][0])
            return TruncatedSeries._of(salg, [[zeros] * salg.size] * salg.size, (1,) * n, vo)
        return self._zip(other, sub)

    def _zip(self, other, op):
        """The sum or difference (``op``) with a series of the same algebra,
        through the lesser valid order: both sides rescaled to the lcm of
        their denominators at each index, and their numerators added or
        subtracted channel by channel."""
        vo = min(self.valid_order, other.valid_order)
        n = _count_below(self.algebra.arity, vo)
        dens = list(map(lcm, self.dens[:n], other.dens[:n]))
        xs, ys = (_cut(s.nums, list(map(floordiv, dens, s.dens))) for s in (self, other))
        nums = [[[_combine(x, y, op) for x, y in zip(ex, ey)] for ex, ey in zip(rx, ry)]
                for rx, ry in zip(xs, ys)]
        return _reduced(self.algebra, nums, dens, vo)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_same(other)
            return _product(self.algebra, ((self,),), ((other,),))[0][0]
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
        """Multiply every coefficient by ``c`` from the left, in one integer
        pass (``_scaled``)."""
        return _scaled(self, self.algebra.coeff.coerce(c), True)

    def scale_right(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by ``c`` from the right, in one
        integer pass (``_scaled``)."""
        return _scaled(self, self.algebra.coeff.coerce(c), False)

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
        n = _count_below(salg.arity, vo)
        x, dens = _divide(salg.arity, vo, salg.field, lambda: _constant_inverse(other),
                          _lift([[(other, n)]]), _lift([[(self, n)]]),
                          "series constant term is not invertible")
        return TruncatedSeries._of(salg, x, dens, vo)

    def with_valid_order(self, valid_order: int) -> "TruncatedSeries":
        """Truncate; raising the order is a ValueError, as nothing is stored there."""
        if not 0 <= valid_order <= self.valid_order:
            raise ValueError(f"cannot cut valid_order {self.valid_order} to {valid_order}")
        n = _count_below(self.algebra.arity, valid_order)
        return TruncatedSeries._of(self.algebra, _cut(self.nums, (1,) * n), self.dens[:n],
                                   valid_order)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_equal(self, other)

    # series of different orders compare equal on their common prefix, so no
    # hash can agree with equality
    __hash__ = None


def _trusted_order(series, action: str) -> int:
    """The least valid order of ``series``; ValueError when it is 0."""
    vo = min(s.valid_order for s in series)
    if vo < 1:
        raise ValueError(f"no trusted coefficients to {action}")
    return vo


def _scaled(s, c, left):
    """c s (``left``) or s c for a constant c of the coefficient algebra,
    in one integer pass: each row of channels of s times the real form of
    c's scalar grid (``_real_scalars``, ``_times``), over the product of the
    two denominators, reduced once.  Scalars commute, so c s is read as
    (s^T c^T)^T, with s and c's grid transposed and each scalar's block
    kept."""
    salg = s.algebra
    grid, nums = _scalar_grid(salg.coeff, c), s.nums
    if left:
        grid, nums = list(zip(*grid)), list(zip(*nums))
    den, real = _real_scalars(salg.field, grid)
    cols = list(zip(*real))
    rows = _pair_channels(len(nums[0][0]), [_times(row, cols) for row in _channel_rows(nums)])
    return _reduced(salg, list(zip(*rows)) if left else rows, [d * den for d in s.dens],
                    s.valid_order)


def _stored_alike(a, b, n):
    """Whether series a and b of one algebra store the same coefficients
    through index n, read in place: stored forms are canonical, so this is
    a - b = 0 there."""
    if a.valid_order == b.valid_order:
        return a.dens == b.dens and a.nums == b.nums
    if a.dens[:n] != b.dens[:n]:
        return False
    zeros = (0,) * n
    return all((x and x[:n] or zeros) == (y and y[:n] or zeros)
               for ra, rb in zip(a.nums, b.nums) for ea, eb in zip(ra, rb)
               for x, y in zip(ea, eb) if x is not y)


def _product(salg, xs, ys):
    """The rows of the product of a k x N grid ``xs`` by an N x m grid ``ys``
    of series of ``salg``, over integers.

    Entry (i, j) is the sum over l of xs[i][l] * ys[l][j], trusted below the
    least valid order of those products, as a sum of series products would
    be: the least order in row i of xs and column j of ys.  The series
    grids of each side are flattened into one and lifted once over one
    denominator (``_lift``), the left one read as rows of channels and the
    right one in its real form (``_real_grid``).  Every output channel adds
    the products (``_mul_add``) along its row and real column in plain
    ``int``s, over the product of the two denominators, and each output
    series is reduced once (``_reduced``).
    """
    arity, r = salg.arity, salg.size
    row_orders = [min(map(_valid_order, row)) for row in xs]
    col_orders = [min(map(_valid_order, col)) for col in zip(*ys)]
    # each series is read only as far as some output entry trusts it
    top_row, top_col = max(row_orders), max(col_orders)
    x_counts = [_count_below(arity, min(o, top_col)) for o in row_orders]
    y_counts = [_count_below(arity, min(o, top_row)) for o in col_orders]
    den_x, x_int = _lift([[(x, n) for x in row] for row, n in zip(xs, x_counts)])
    den_y, y_int = _lift([[(y, n) for y, n in zip(row, y_counts)] for row in ys])
    den = den_x * den_y
    w = len(x_int[0][0])
    x_rows = _channel_rows(x_int)
    y_cols = list(zip(*_real_grid(salg.field.terms, y_int)))
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
            out_row.append(_reduced(salg, _pair_channels(w, block), [den] * n, vo))
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
    """Coefficients of ``alg`` as one grid of scalars: entry (a, b) lists
    that scalar of each coefficient's ``_scalar_grid``."""
    r = _field_and_dim(alg)[1]
    grids = [_scalar_grid(alg, c) for c in coeffs]
    return [[tuple(g[a][b] for g in grids) for b in range(r)] for a in range(r)]


def _channels(grid):
    """Every channel of a stored grid that is not all zeros."""
    return [ch for row in grid for e in row for ch in e if ch is not None]


def _negated(e, modulus):
    """The channels of an entry negated, residues kept in [0, p)."""
    return tuple(ch and tuple([-v % modulus for v in ch] if modulus else map(neg, ch))
                 for ch in e)


def _combine(x, y, op):
    """Integer channels x op y for ``add`` or ``sub``; None is all zeros."""
    if y is None:
        return x
    if x is None:
        return y if op is add else list(map(neg, y))
    return list(map(op, x, y))


def _lift(cuts):
    """(D, grid) for rows of (series, n) pairs: their stored grids through
    index n, flattened into one, over the lcm D of those denominators."""
    den = lcm(*{d for row in cuts for s, n in row for d in s.dens[:n]})
    return den, _flatten([[_cut(s.nums, [den // d for d in s.dens[:n]]) for s, n in row]
                          for row in cuts])


def _cut(nums, factors):
    """A stored grid through index n = len(factors), the numerators at each
    index times its factor; a channel all zero there becomes None."""
    n = len(factors)
    if factors.count(1) < n:
        nums = [[[ch and list(map(mul, ch, factors)) for ch in e] for e in row] for row in nums]
    return [[[c if c is None or any(c) else None for c in [ch and ch[:n] for ch in e]]
             for e in row] for row in nums]


def _reduced(salg, grid, dens, valid_order):
    """The series of ``salg`` whose coefficient k is the integer channels of
    ``grid`` over dens[k], each index reduced to the stored form: over GF(p)
    by one inverse of dens[k], else by one gcd over its nonzero channels."""
    modulus = salg.field.modulus
    if modulus:
        qs, dens = [pow(d, -1, modulus) for d in dens], [1] * len(dens)
        grid = [[[ch and [v * q % modulus for v, q in zip(ch, qs)] for ch in e] for e in row]
                for row in grid]
    nums = [[[tuple(ch) if ch and any(ch) else None for ch in e] for e in row] for row in grid]
    if not (chans := _channels(nums)):
        dens = [1] * len(dens)
    elif not modulus and (gs := list(map(gcd, dens, *chans))).count(1) < len(gs):
        nums = [[[ch and tuple(map(floordiv, ch, gs)) for ch in e] for e in r] for r in nums]
        dens = list(map(floordiv, dens, gs))
    return TruncatedSeries._of(salg, nums, dens, valid_order)


def series_derive(s: TruncatedSeries, d: Derivation) -> TruncatedSeries:
    """Formal partial derivative; valid order drops by one.

    The coefficient at E is k * scale times the one at E + e_axis, with
    k = E[axis] + 1: that index's numerators times k and the real block of
    the lifted scale (``_times``), over its denominator times the scale's.
    """
    vo = _trusted_order((s,), "differentiate")
    salg = s.algebra
    sources, factors = _derive_map(salg.arity, vo, d.axis(salg.arity))
    scale_den, scale = _scale_block(salg.field, d.scale)
    nums = [[_times([ch and list(map(mul, factors, sources(ch))) for ch in e], scale)
             for e in row] for row in s.nums]
    return _reduced(salg, nums, [den * scale_den for den in sources(s.dens)], vo - 1)


@lru_cache(maxsize=None)
def _scale_block(field, scale):
    """(D, columns) for a derivation's scale over ``field``: the columns of
    its real block (``_real_scalars``), lifted once per field and scale and
    kept read-only."""
    den, block = _real_scalars(field, [[field.coerce(scale)]])
    return den, tuple(zip(*block))


def _times(chans, cols):
    """A row of integer channels (lists, or None for all zeros) times the
    columns of a real form (``_real_scalars``): the channels of the product."""
    out = []
    for col in cols:
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
    C_v, or at (m - 1, 0) times C_u, reduced mod p over GF(p), and each
    output series is reduced once, over D_p D_u^m m! D_v^l l!.
    """
    cs = [alg.coerce(c) for c in (cu, cv) if c is not None]
    if len(cs) == 2 and cs[0] * cs[1] != cs[1] * cs[0]:
        raise NoncommutingExponents("exponent coefficients do not commute")
    salg = SeriesAlgebra(out, len(cs), cap)
    p_int, (den,) = _integers(
        salg.field, _flatten([[_grid_of(out, [out.coerce(x)]) for x in row]]))
    steps = []
    for c in cs:
        den_c, c_real = _real_scalars(salg.field, _scalar_grid(alg, c))
        steps.append((den_c, list(zip(*c_real))))
    rows = [[[x[0] if x else 0 for x in line] for line in _channel_rows(p_int)]]
    dens = [den]
    modulus = salg.field.modulus
    for prev, axis, k in _exp_steps(len(cs), cap):
        den_c, cols = steps[axis]
        prod = [[sum(map(mul, line, col)) for col in cols] for line in rows[prev]]
        rows.append([[v % modulus for v in line] for line in prod] if modulus else prod)
        dens.append(dens[prev] * den_c * k)
    z = [[list(col) for col in zip(*powers)] for powers in zip(*rows)]
    grid = _pair_channels(len(p_int[0][0]), z)
    return tuple(_reduced(salg, b, dens, cap) for b in _blocks(grid, salg.size)[0])


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
    """The x with x * a = y through ``valid_order``, formed over integers
    one index at a time, each in lowest terms.

    ``a`` and ``y`` are (D, grid) pairs from ``_lift``, A = D_a a and Y = D_y y:
    n x n for a, k x n for y.  Returns (Z, dens), x in the shape of y as
    channels (tuples, None for all zeros) with x_E = Z_E / dens[E] reduced.

    ``invert()`` gives (m, M) with M the real form of m a_0^-1 and m the lcm
    of its scalars' denominators (a SingularMatrix there raises
    SingularConstantTerm with the message ``singular``).  The indices before
    E are kept as numerators P over Q, the lcm of their dens, so that
    x_E = T M / (D_y Q D_a m) with

        T = Y_E Q D_a - D_y sum over F != 0 of P_(E-F) A_F,

    reduced by one gcd over the whole grid to Z_E / dens[E]; Q then grows to
    lcm(Q, dens[E]), rescaling the kept P.  Y is read as rows of channels, A
    and M in their real form (``_real_grid``); over GF(p) every denominator is 1."""
    (den_a, a_int), (den_y, y_int) = a, y
    try:
        m, m_int = invert()
    except SingularMatrix as exc:
        raise SingularConstantTerm(singular) from exc
    modulus, size = field.modulus, len(m_int)
    pairs = _inverse_pairs(arity, valid_order)
    take_rest = [_gather([i_r for _, i_r in p]) for p in pairs]
    a_real = _real_grid(field.terms, a_int)
    # per index E, per column j: (k, A_F[k][j] over E's pairs)
    cols = [
        [[(k, take(row[j])) for k, row in enumerate(a_real) if row[j] is not None]
         for j in range(size)]
        for take in (_gather([i_f for i_f, _ in p]) for p in pairs)
    ]
    m_cols = list(zip(*m_int))
    y_rows = _channel_rows(y_int)
    kept = [[] for _ in range(len(y_rows) * size)]  # P per column, x's rows end to end
    q, dens, z = 1, [], []
    for e, e_cols in enumerate(cols):
        scale, take, xs = q * den_a, take_rest[e], []
        for i, y_row in enumerate(y_rows):
            past = list(map(take, kept[i * size:(i + 1) * size]))
            t = [0 if ys is None else ys[e] * scale for ys in y_row]
            for j, col in enumerate(e_cols):
                acc = 0
                for k, values in col:
                    acc += sum(map(mul, past[k], values))
                t[j] -= den_y * acc
            xs += [sum(map(mul, t, m_col)) for m_col in m_cols]
        if modulus:
            xs = [v % modulus for v in xs]
        d = den_y * scale * m
        g = gcd(d, *xs)
        xs, d = [v // g for v in xs], d // g
        if q % d:
            f = d // gcd(q, d)
            kept = [[v * f for v in ps] for ps in kept]
            q *= f
        dens.append(d)
        z.append(xs)
        f = q // d
        for ps, v in zip(kept, xs if f == 1 else [v * f for v in xs]):
            ps.append(v)
    z = [tuple(zs) if any(zs) else None for zs in zip(*z)]
    rows = [z[i:i + size] for i in range(0, len(z), size)]
    return _pair_channels(len(a_int[0][0]), rows), dens


def _constant(s):
    """The grid of field scalars of the constant term of ``s``."""
    join = s.algebra.field.join
    return [[join(e, s.dens[:1])[0] for e in row] for row in s.nums]


def _constant_inverse(s):
    """(m, M) as ``_real_scalars`` gives them for a_0^-1, a_0 the constant
    term of ``s``, by one elimination of its real integer form A_0 = D a_0
    (``_real_inverse``): with B = det A_0^-1, a_0^-1 = D B / det, so
    m = |det| / gcd(det, D B) and M = m D B / det."""
    field, den = s.algebra.field, s.dens[0]
    a0 = [[v[0] if v else 0 for v in line]
          for line in _real_grid(field.terms, _cut(s.nums, (1,)))]
    det, inv = _real_inverse(a0, len(s.nums[0][0]), field.modulus)
    if field.modulus:  # the denominator is 1
        q = pow(det, -1, field.modulus)
        return 1, [[v * q % field.modulus for v in row] for row in inv]
    m = abs(det) // gcd(det, *[den * v for row in inv for v in row])
    return m, [[den * m * v // det for v in row] for row in inv]


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
    vo = min(a.valid_order, b.valid_order)
    return _stored_alike(a, b, _count_below(a.algebra.arity, vo))


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


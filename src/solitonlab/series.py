"""Truncated formal power series with noncommutative coefficients.

A series lives in ``SeriesAlgebra(coeff, arity, cap)``: one variable ``t`` or
two commuting variables ``(u, v)``, and coefficients in any algebra from
:mod:`solitonlab.algebra`.

Each series carries ``valid_order`` (at most ``cap``): every coefficient of
total degree strictly below it is guaranteed correct, and those are exactly
the coefficients it stores, densely in graded-lexicographic order.  Products
and sums take the minimum of the operands' valid orders and compute only that
prefix, a formal derivative loses one order, and inversion preserves the order
of its input.  A series with no trusted coefficient decides nothing: deriving,
inverting or row-solving it raises ``ValueError``.

Products are formed over integers.  Each operand's trusted prefix is read as
integer numerators over one common denominator, the lcm of every scalar
denominator in it (1 over GF(p)), with one channel per entry of a matrix
coefficient and two (re, im) over QQ(i).  The channels are convolved with
plain ``int`` multiply-adds, and every output scalar is built once, as a
``Fraction`` over the product of the two denominators (or a ``Residue``).
Fractions reduce to lowest terms and residues to [0, p), so each value, and
every report, is the same as from a coefficient-by-coefficient product.
Scaling by a coefficient is a product with a constant series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, lcm, prod
from operator import mul

from .algebra import (
    Algebra,
    GaussianRationals,
    MatrixAlgebra,
    PrimeField,
    Rationals,
    SquareMatrix,
    row_times,
)
from .errors import (
    AlgebraMismatch,
    DerivationMismatch,
    NoncommutingExponents,
    SingularConstantTerm,
    SingularMatrix,
)
from .scalars import GaussianRational, Residue

__all__ = [
    "Derivation",
    "D_U",
    "D_V",
    "D_T",
    "SeriesAlgebra",
    "TruncatedSeries",
    "series_derive",
    "series_exp_linear",
    "series_inverse",
    "series_equal",
    "constant_series_matrix",
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
        value = self.coeff.coerce(value)
        vo = self.cap if valid_order is None else valid_order
        coeffs = [self.coeff.zero()] * _count_below(self.arity, vo)
        if idx < len(coeffs):
            coeffs[idx] = value
        return TruncatedSeries(self, coeffs, vo)

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
        return TruncatedSeries(
            self,
            [self.coeff.scalar_mul(q, c) for c in a.coeffs],
            a.valid_order,
        )

    @property
    def scalar_field(self):
        return self.coeff.scalar_field

    def magnitude(self, a):
        return max((self.coeff.magnitude(c) for c in a.coeffs), default=0.0)

    def format_element(self, a, degree_limit=None):
        zero = self.coeff.zero()
        return [
            {"exponents": list(e), "coefficient": self.coeff.format_element(c)}
            for e, c in zip(self.exponents, a.coeffs)
            if c != zero and (degree_limit is None or sum(e) <= degree_limit)
        ]

    def _coefficient_matrices(self, m, valid_order):
        # a matrix of series is a series of N x N matrices in disguise
        mat = MatrixAlgebra(self.coeff, m.dim)
        coeffs = [
            SquareMatrix(mat, [[x.coeffs[k] for x in row] for row in m.rows])
            for k in range(_count_below(self.arity, valid_order))
        ]
        return mat, coeffs

    def matrix_inverse(self, m):
        # invert the coefficient matrices read off the entries, then write
        # them back
        n = m.dim
        vo = _trusted_order([x for row in m.rows for x in row], "invert")
        mat, coeffs = self._coefficient_matrices(m, vo)
        inv = _inverse_coeffs(self.arity, vo, mat, coeffs)
        rows = [
            [TruncatedSeries(self, [c.rows[i][j] for c in inv], vo) for j in range(n)]
            for i in range(n)
        ]
        return SquareMatrix(m.algebra, rows)

    def row_solve(self, y, m) -> tuple:
        """The row x of series with x * m = y, one coefficient at a time.

        x_E = (y_E - sum over F != 0 of x_(E-F) * W_F) * W_0^-1, where W_F
        are the coefficient matrices of m: one inversion of W_0, then one
        row-times-matrix product per (F, E-F) pair.  Equals
        ``row_times(y, m.inverse())`` without building the inverse, valid
        order included.  Raises SingularConstantTerm when W_0 is singular
        and ValueError when no coefficient is trusted.
        """
        vo = _trusted_order([*y, *(x for row in m.rows for x in row)], "solve")
        mat, coeffs = self._coefficient_matrices(m, vo)
        try:
            w0_inv = mat.invert(coeffs[0])
        except SingularMatrix as exc:
            raise SingularConstantTerm(
                "constant coefficient matrix is not invertible"
            ) from exc
        pairs = _inverse_pairs(self.arity, vo)
        xs = []
        for e, e_pairs in enumerate(pairs):
            acc = [s.coeffs[e] for s in y]
            for i_f, i_r in e_pairs:
                acc = [a - t for a, t in zip(acc, row_times(xs[i_r], coeffs[i_f]))]
            xs.append(row_times(acc, w0_inv))
        return tuple(
            TruncatedSeries(self, [x[j] for x in xs], vo) for j in range(m.dim)
        )


class TruncatedSeries:
    """Immutable truncated series; ``*`` is the Cauchy product.

    ``coeffs`` holds exactly the trusted coefficients: one per exponent of
    total degree below ``valid_order``, in graded-lexicographic order.
    """

    __slots__ = ("algebra", "coeffs", "valid_order", "_nonzero")

    def __init__(self, algebra: SeriesAlgebra, coeffs, valid_order: int):
        if not 0 <= valid_order <= algebra.cap:
            raise ValueError(f"valid_order {valid_order} outside [0, cap]")
        coeffs = tuple(coeffs)
        if len(coeffs) != _count_below(algebra.arity, valid_order):
            raise AlgebraMismatch(f"{len(coeffs)} coefficients for valid_order {valid_order}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "valid_order", valid_order)
        object.__setattr__(self, "_nonzero", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- inspection ---------------------------------------------------------

    def _trusted_index(self, exponent):
        e = tuple(exponent)
        idx = _index_of(self.algebra.arity, self.algebra.cap).get(e)
        if idx is None or idx >= len(self.coeffs):
            raise ValueError(f"exponent {e} not below valid_order {self.valid_order}")
        return idx

    def coeff(self, exponent):
        """Coefficient at an exponent tuple; ValueError at or above valid_order."""
        return self.coeffs[self._trusted_index(exponent)]

    def nonzero_indices(self):
        cached = self._nonzero
        if cached is None:
            zero = self.algebra.coeff.zero()
            cached = tuple(i for i, c in enumerate(self.coeffs) if c != zero)
            object.__setattr__(self, "_nonzero", cached)
        return cached

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
        other = self._coerce_other(other)
        return TruncatedSeries(
            self.algebra,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.valid_order, other.valid_order),
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.algebra, [-c for c in self.coeffs], self.valid_order
        )

    def __sub__(self, other):
        other = self._coerce_other(other)
        return TruncatedSeries(
            self.algebra,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.valid_order, other.valid_order),
        )

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
        """Multiply every coefficient by ``c`` from the left."""
        return _convolve(self.algebra.constant(c, self.valid_order), self)

    def scale_right(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by ``c`` from the right."""
        return _convolve(self, self.algebra.constant(c, self.valid_order))

    def derive(self, d: Derivation) -> "TruncatedSeries":
        return series_derive(self, d)

    def inverse(self) -> "TruncatedSeries":
        return series_inverse(self)

    def with_coeff(self, exponent, value) -> "TruncatedSeries":
        """Copy with one trusted coefficient replaced; ValueError at or above valid_order."""
        coeffs = list(self.coeffs)
        coeffs[self._trusted_index(exponent)] = self.algebra.coeff.coerce(value)
        return TruncatedSeries(self.algebra, coeffs, self.valid_order)

    def with_valid_order(self, valid_order: int) -> "TruncatedSeries":
        """Truncate; raising the order is a ValueError, as nothing is stored there."""
        if valid_order > self.valid_order:
            raise ValueError(f"cannot raise valid_order {self.valid_order} to {valid_order}")
        k = _count_below(self.algebra.arity, valid_order)
        return TruncatedSeries(self.algebra, self.coeffs[:k], valid_order)

    def evaluate(self, point):
        """Sum the trusted coefficients at a point of the scalar field."""
        if len(point) != self.algebra.arity:
            raise ValueError("point arity mismatch")
        alg = self.algebra.coeff
        total = alg.zero()
        for e, c in zip(self.algebra.exponents, self.coeffs):
            w = None
            for x, k in zip(point, e):
                for _ in range(k):
                    w = x if w is None else w * x
            total = total + (c if w is None else alg.scalar_mul(w, c))
        return total

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return series_equal(self, other)

    # series of different orders compare equal on their common prefix, so no
    # hash can agree with equality
    __hash__ = None

    def __repr__(self):
        terms = []
        exps = self.algebra.exponents
        names = ("t",) if self.algebra.arity == 1 else ("u", "v")
        for i in self.nonzero_indices()[:6]:
            mono = "*".join(
                f"{n}^{k}" for n, k in zip(names, exps[i]) if k
            ) or "1"
            terms.append(f"({self.coeffs[i]!r})*{mono}")
        body = " + ".join(terms) if terms else "0"
        if len(self.nonzero_indices()) > 6:
            body += " + ..."
        return f"<series {body}; valid<{self.valid_order}>"


def _trusted_order(series, action: str) -> int:
    """The least valid order of ``series``; ValueError when it is 0."""
    vo = min(s.valid_order for s in series)
    if vo < 1:
        raise ValueError(f"no trusted coefficients to {action}")
    return vo


def _convolve(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The Cauchy product a * b through the lesser valid order, over integers.

    Each operand's trusted prefix is lifted to integer numerator channels over
    one common denominator, the channels are convolved with plain ``int``
    multiply-adds (block entries as (i, k) * (k, j), summed over k), and each
    output scalar is lowered once, over the product of the two denominators.
    """
    salg = a.algebra
    vo = min(a.valid_order, b.valid_order)
    n = _count_below(salg.arity, vo)
    rows = _row_pairs(salg.arity, vo)
    field, dim = _field_and_dim(salg.coeff)
    terms = _GAUSSIAN_TERMS if isinstance(field, GaussianRationals) else _REAL_TERMS
    den_a, xs = _lift(a.coeffs[:n], salg.coeff, field, dim)
    den_b, ys = _lift(b.coeffs[:n], salg.coeff, field, dim)
    out = [[[None, None] for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = out[i][j]
            for k in range(dim):
                x, y = xs[i][k], ys[k][j]
                for ca, cb, co, sign in terms:
                    if x[ca] is not None and y[cb] is not None:
                        if acc[co] is None:
                            acc[co] = [0] * n
                        _mul_add(acc[co], x[ca], y[cb], rows, sign)
    coeffs = _lower(salg.coeff, field, dim, out, den_a * den_b, n)
    return TruncatedSeries(salg, coeffs, vo)


# Channel products (a, b, out, sign) add sign * a * b to channel out.  A scalar
# of QQ or GF(p) is one channel; over QQ(i) it is (re, im), and
# (a + bi)(c + di) = (ac - bd) + (ad + bc)i.
_REAL_TERMS = ((0, 0, 0, 1),)
_GAUSSIAN_TERMS = ((0, 0, 0, 1), (1, 1, 0, -1), (0, 1, 1, 1), (1, 0, 1, 1))


def _mul_add(out, x, y, rows, sign):
    """out += sign * (x conv y) for integer channels x, y over the pair rows."""
    if x.count(0) < y.count(0):
        x, y = y, x  # integers commute: walk the rows of the sparser channel
    for xa, row in zip(x, rows):
        if xa:
            if sign < 0:
                xa = -xa
            for io, yb in zip(row, y):
                out[io] += xa * yb


def _field_and_dim(alg):
    """The scalar field under ``alg`` and the size of its flattened coefficients."""
    dim = 1
    while isinstance(alg, MatrixAlgebra):
        dim *= alg.dim
        alg = alg.base
    return alg, dim


def _lift(coeffs, alg, field, dim):
    """(D, xs): xs[i][j][c] lists the integer numerators over D of channel c of
    entry (i, j) of every coefficient, or is None when they are all zero.  D is
    the lcm of every scalar denominator in ``coeffs`` (1 over GF(p))."""
    if dim == 1:
        entries = [[coeffs]]
    else:
        grids = [_scalar_grid(alg, c) for c in coeffs]
        entries = [[[g[i][j] for g in grids] for j in range(dim)] for i in range(dim)]
    chans = [[_split(field, e) for e in row] for row in entries]
    den = lcm(*{v.denominator for row in chans for ch in row for part in ch
                 for v in part})
    return den, [
        [[_numerators(part, den) for part in ch] for ch in row]
        for row in chans
    ]


def _numerators(values, den):
    nums = [v.numerator * (den // v.denominator) for v in values]
    return nums if any(nums) else None


def _split(field, xs):
    """Field scalars as channels of rationals or integers: (re, im) over QQ(i)."""
    if isinstance(field, Rationals):
        return (xs,)
    if isinstance(field, GaussianRationals):
        return [z.re for z in xs], [z.im for z in xs]
    if isinstance(field, PrimeField):
        return ([r.v for r in xs],)
    raise AlgebraMismatch(f"no integer channels for scalars of {field!r}")


def _lower(alg, field, dim, out, den, n):
    """The output coefficients from their numerator channels over ``den``."""
    entries = [[_join(field, ch, den, n) for ch in row] for row in out]
    if dim == 1:
        return entries[0][0]
    return [
        _from_grid(alg, tuple(tuple(e[k] for e in row) for row in entries))
        for k in range(n)
    ]


def _join(field, chans, den, n):
    if isinstance(field, GaussianRationals):
        re, im = (_fractions(c, den, n) for c in chans)
        return [GaussianRational(x, y) for x, y in zip(re, im)]
    if isinstance(field, PrimeField):
        return [Residue(v) for v in chans[0]] if chans[0] else [field.zero()] * n
    return _fractions(chans[0], den, n)


def _fractions(nums, den, n):
    if nums is None:
        return [_ZERO] * n
    return [Fraction(v, den) if v else _ZERO for v in nums]


_ZERO = Fraction(0)


def _scalar_grid(alg, x):
    """A matrix coefficient as rows of field scalars, nested blocks flattened."""
    if not isinstance(alg.base, MatrixAlgebra):
        return x.rows
    blocks = [[_scalar_grid(alg.base, e) for e in row] for row in x.rows]
    return [
        [s for block in brow for s in block[a]]
        for brow in blocks
        for a in range(len(brow[0]))
    ]


def _from_grid(alg, grid):
    """Inverse of _scalar_grid."""
    if not isinstance(alg.base, MatrixAlgebra):
        return SquareMatrix(alg, grid)
    s = len(grid) // alg.dim
    return SquareMatrix(alg, tuple(
        tuple(
            _from_grid(alg.base, tuple(row[j * s:(j + 1) * s]
                                       for row in grid[i * s:(i + 1) * s]))
            for j in range(alg.dim)
        )
        for i in range(alg.dim)
    ))


def series_derive(s: TruncatedSeries, d: Derivation) -> TruncatedSeries:
    """Formal partial derivative; valid order drops by one."""
    _trusted_order((s,), "differentiate")
    salg = s.algebra
    axis = d.axis(salg.arity)
    index = _index_of(salg.arity, salg.cap)
    alg = salg.coeff
    zero = alg.zero()
    out = [zero] * _count_below(salg.arity, s.valid_order - 1)
    for e, src in zip(salg.exponents, s.coeffs):
        k = e[axis]
        if k == 0 or src == zero:
            continue
        tgt = list(e)
        tgt[axis] = k - 1
        factor = Fraction(k) if d.scale == 1 else Fraction(k) * d.scale
        out[index[tuple(tgt)]] = alg.scalar_mul(factor, src)
    return TruncatedSeries(salg, out, s.valid_order - 1)


def series_exp_linear(cu, cv, cap: int, algebra: Algebra) -> TruncatedSeries:
    """exp(cu*u + cv*v) through total degree < cap (or exp(cu*t) when cv is None).

    Requires cu*cv = cv*cu so that both one-sided derivative identities
    d/du exp = exp*cu and d/dv exp = exp*cv hold; the coefficient at (m, n)
    is cu^m * cv^n / (m! n!).
    """
    cs = [algebra.coerce(cu)]
    if cv is not None:
        cs.append(algebra.coerce(cv))
        if cs[0] * cs[1] != cs[1] * cs[0]:
            raise NoncommutingExponents("exponent coefficients do not commute")
    powers = [_power_list(algebra, c, cap) for c in cs]
    salg = SeriesAlgebra(algebra, len(cs), cap)
    coeffs = [
        algebra.scalar_mul(
            Fraction(1, prod(factorial(k) for k in e)),
            reduce(mul, (p[k] for p, k in zip(powers, e))),
        )
        for e in salg.exponents
    ]
    return TruncatedSeries(salg, coeffs, cap)


def _power_list(alg: Algebra, x, cap: int):
    powers = [alg.one()]
    for _ in range(1, cap):
        powers.append(powers[-1] * x)
    return powers


def _inverse_coeffs(arity: int, valid_order: int, alg: Algebra, coeffs) -> list:
    """Trusted coefficients of the two-sided inverse of a series over ``alg``."""
    try:
        c_inv = alg.invert(coeffs[0])
    except SingularMatrix as exc:
        raise SingularConstantTerm("series constant term is not invertible") from exc
    pairs = _inverse_pairs(arity, valid_order)
    out = [alg.zero()] * len(coeffs)
    out[0] = c_inv
    for iout in range(1, len(coeffs)):
        acc = None
        for i_f, i_r in pairs[iout]:
            term = coeffs[i_f] * out[i_r]
            acc = term if acc is None else acc + term
        if acc is not None:
            out[iout] = -(c_inv * acc)
    return out


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse through the input's valid order.

    Needs an invertible constant term; ValueError when no coefficient is trusted.
    """
    _trusted_order((s,), "invert")
    salg = s.algebra
    out = _inverse_coeffs(salg.arity, s.valid_order, salg.coeff, s.coeffs)
    return TruncatedSeries(salg, out, s.valid_order)


def series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Exact agreement of every coefficient both sides trust."""
    if a.algebra != b.algebra:
        return False
    return all(x == y for x, y in zip(a.coeffs, b.coeffs))


def constant_series_matrix(m: SquareMatrix, arity: int, cap: int) -> SquareMatrix:
    """Embed a constant matrix as a matrix of constant series."""
    salg = SeriesAlgebra(m.algebra.base, arity, cap)
    out_alg = MatrixAlgebra(salg, m.dim)
    return SquareMatrix(
        out_alg,
        tuple(tuple(salg.constant(x) for x in row) for row in m.rows),
    )


"""Truncated formal power series with noncommutative coefficients.

A series lives in ``SeriesAlgebra(coeff, arity, cap)``: one variable ``t`` or
two commuting variables ``(u, v)``, coefficients in any algebra from
:mod:`solitonlab.algebra`, and dense storage of every coefficient of total
degree below ``cap`` in graded-lexicographic order.

Each series also carries ``valid_order``: all coefficients of total degree
strictly below it are guaranteed correct.  Storage above ``valid_order`` (but
below ``cap``) holds deterministic values that lost information to truncation;
no claim is ever made about them.  Products and sums take the minimum of the
operands' valid orders, a formal derivative loses one order, and inversion
preserves the order of its input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import Algebra, MatrixAlgebra, SquareMatrix
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
    degree = max(degree, 0)
    return degree if arity == 1 else degree * (degree + 1) // 2


@lru_cache(maxsize=None)
def _index_of(arity: int, cap: int):
    return {e: i for i, e in enumerate(_exponents(arity, cap))}


@lru_cache(maxsize=None)
def _pair_table(arity: int, cap: int):
    """(ia, ib) -> output index for every product that stays under cap."""
    exps = _exponents(arity, cap)
    index = _index_of(arity, cap)
    table = {}
    for ia, ea in enumerate(exps):
        da = sum(ea)
        for ib, eb in enumerate(exps):
            if da + sum(eb) >= cap:
                continue
            table[(ia, ib)] = index[tuple(x + y for x, y in zip(ea, eb))]
    return table


@lru_cache(maxsize=None)
def _inverse_pairs(arity: int, cap: int):
    """For each output index E: the (F, E-F) index pairs with F != 0."""
    exps = _exponents(arity, cap)
    index = _index_of(arity, cap)
    pairs = [[] for _ in exps]
    for i_f, ef in enumerate(exps):
        if i_f == 0:
            continue
        for i_r, er in enumerate(exps):
            tot = tuple(x + y for x, y in zip(ef, er))
            if sum(tot) >= cap:
                continue
            pairs[index[tot]].append((i_f, i_r))
    return tuple(tuple(p) for p in pairs)


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

    @property
    def size(self):
        return len(self.exponents)

    def constant(self, value, valid_order=None) -> "TruncatedSeries":
        value = self.coeff.coerce(value)
        z = self.coeff.zero()
        coeffs = [z] * self.size
        coeffs[0] = value
        vo = self.cap if valid_order is None else valid_order
        return TruncatedSeries(self, coeffs, vo)

    def monomial(self, exponent, value=1, valid_order=None) -> "TruncatedSeries":
        exponent = tuple(exponent)
        idx = _index_of(self.arity, self.cap).get(exponent)
        if idx is None:
            raise ValueError(f"exponent {exponent} out of range for cap {self.cap}")
        z = self.coeff.zero()
        coeffs = [z] * self.size
        coeffs[idx] = self.coeff.coerce(value)
        vo = self.cap if valid_order is None else valid_order
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
        return a.max_coeff_magnitude()

    def format_element(self, a, degree_limit=None):
        out = []
        limit = a.valid_order if degree_limit is None else min(a.valid_order, degree_limit + 1)
        k = _count_below(self.arity, limit)
        zero = self.coeff.zero()
        for e, c in zip(self.exponents, a.coeffs[:k]):
            if c == zero:
                continue
            out.append({"exponents": list(e), "coefficient": self.coeff.format_element(c)})
        return out

    def matrix_inverse(self, m):
        # a matrix of series is a series of N x N matrices in disguise: invert
        # the coefficient matrices read off the entries, then write them back
        n, mat = m.dim, MatrixAlgebra(self.coeff, m.dim)
        coeffs = [
            SquareMatrix(mat, [[x.coeffs[k] for x in row] for row in m.rows])
            for k in range(self.size)
        ]
        inv = _inverse_coeffs(self.arity, self.cap, mat, coeffs)
        vo = min(x.valid_order for row in m.rows for x in row)
        rows = [
            [TruncatedSeries(self, [c.rows[i][j] for c in inv], vo) for j in range(n)]
            for i in range(n)
        ]
        return SquareMatrix(m.algebra, rows)


class TruncatedSeries:
    """Immutable dense truncated series; ``*`` is the Cauchy product."""

    __slots__ = ("algebra", "coeffs", "valid_order", "_nonzero")

    def __init__(self, algebra: SeriesAlgebra, coeffs, valid_order: int):
        if len(coeffs) != algebra.size:
            raise AlgebraMismatch("coefficient storage does not match cap")
        if not 0 <= valid_order <= algebra.cap:
            raise ValueError(f"valid_order {valid_order} outside [0, cap]")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "valid_order", valid_order)
        object.__setattr__(self, "_nonzero", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- inspection ---------------------------------------------------------

    def coeff(self, exponent):
        """Coefficient at an exponent tuple (stored range only)."""
        idx = _index_of(self.algebra.arity, self.algebra.cap).get(tuple(exponent))
        if idx is None:
            raise ValueError(f"exponent {tuple(exponent)} not stored (cap {self.algebra.cap})")
        return self.coeffs[idx]

    def nonzero_indices(self):
        cached = self._nonzero
        if cached is None:
            zero = self.algebra.coeff.zero()
            cached = tuple(i for i, c in enumerate(self.coeffs) if c != zero)
            object.__setattr__(self, "_nonzero", cached)
        return cached

    def is_zero(self) -> bool:
        """True when every trusted coefficient (degree < valid_order) is zero."""
        k = _count_below(self.algebra.arity, self.valid_order)
        return all(i >= k for i in self.nonzero_indices())

    def max_coeff_magnitude(self) -> float:
        alg = self.algebra.coeff
        k = _count_below(self.algebra.arity, self.valid_order)
        return max((alg.magnitude(c) for c in self.coeffs[:k]), default=0.0)

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
        c = self.algebra.coeff.coerce(c)
        return TruncatedSeries(
            self.algebra, [c * x for x in self.coeffs], self.valid_order
        )

    def scale_right(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by ``c`` from the right."""
        c = self.algebra.coeff.coerce(c)
        return TruncatedSeries(
            self.algebra, [x * c for x in self.coeffs], self.valid_order
        )

    def derive(self, d: Derivation) -> "TruncatedSeries":
        return series_derive(self, d)

    def inverse(self) -> "TruncatedSeries":
        return series_inverse(self)

    def with_coeff(self, exponent, value) -> "TruncatedSeries":
        """Copy with one stored coefficient replaced (testing/corruption aid)."""
        exponent = tuple(exponent)
        idx = _index_of(self.algebra.arity, self.algebra.cap)[exponent]
        coeffs = list(self.coeffs)
        coeffs[idx] = self.algebra.coeff.coerce(value)
        return TruncatedSeries(self.algebra, coeffs, self.valid_order)

    def with_valid_order(self, valid_order: int) -> "TruncatedSeries":
        """Explicit re-truncation; the one way valid_order may increase."""
        return TruncatedSeries(self.algebra, self.coeffs, valid_order)

    def evaluate(self, point):
        """Sum the trusted coefficients at a point of the scalar field."""
        if len(point) != self.algebra.arity:
            raise ValueError("point arity mismatch")
        alg = self.algebra.coeff
        k = _count_below(self.algebra.arity, self.valid_order)
        total = alg.zero()
        for e, c in zip(self.algebra.exponents, self.coeffs[:k]):
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

    # equality ignores untrusted coefficients, so no hash can agree with it
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


def _convolve(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    salg = a.algebra
    alg = salg.coeff
    table = _pair_table(salg.arity, salg.cap)
    out = [alg.zero()] * salg.size
    ca, cb = a.coeffs, b.coeffs
    for ia in a.nonzero_indices():
        x = ca[ia]
        for ib in b.nonzero_indices():
            iout = table.get((ia, ib))
            if iout is None:
                continue
            out[iout] += x * cb[ib]
    return TruncatedSeries(salg, out, min(a.valid_order, b.valid_order))


def series_derive(s: TruncatedSeries, d: Derivation) -> TruncatedSeries:
    """Formal partial derivative; valid order drops by one."""
    if s.valid_order < 1:
        raise ValueError("series has no trusted coefficients to differentiate")
    salg = s.algebra
    axis = d.axis(salg.arity)
    exps = salg.exponents
    index = _index_of(salg.arity, salg.cap)
    alg = salg.coeff
    zero = alg.zero()
    out = [zero] * salg.size
    for i, e in enumerate(exps):
        k = e[axis]
        if k == 0:
            continue
        src = s.coeffs[i]
        if src == zero:
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
    cu = algebra.coerce(cu)
    if cv is None:
        salg = SeriesAlgebra(algebra, 1, cap)
        powers = _power_list(algebra, cu, cap)
        coeffs = [
            algebra.scalar_mul(Fraction(1, factorial(m)), powers[m])
            for m in range(cap)
        ]
        return TruncatedSeries(salg, coeffs, cap)
    cv = algebra.coerce(cv)
    if not algebra.agree(
        cu * cv, cv * cu, algebra.magnitude(cu) * algebra.magnitude(cv)
    ):
        raise NoncommutingExponents("exponent coefficients do not commute")
    salg = SeriesAlgebra(algebra, 2, cap)
    pu = _power_list(algebra, cu, cap)
    pv = _power_list(algebra, cv, cap)
    coeffs = []
    for m, n in salg.exponents:
        coeffs.append(
            algebra.scalar_mul(
                Fraction(1, factorial(m) * factorial(n)), pu[m] * pv[n]
            )
        )
    return TruncatedSeries(salg, coeffs, cap)


def _power_list(alg: Algebra, x, cap: int):
    powers = [alg.one()]
    for _ in range(1, cap):
        powers.append(powers[-1] * x)
    return powers


def _inverse_coeffs(arity: int, cap: int, alg: Algebra, coeffs) -> list:
    """Coefficients of the two-sided inverse of a series over ``alg``."""
    try:
        c_inv = alg.invert(coeffs[0])
    except SingularMatrix as exc:
        raise SingularConstantTerm(
            "series constant term is not invertible"
        ) from exc
    pairs = _inverse_pairs(arity, cap)
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
    """Two-sided inverse through the stored range; needs an invertible constant."""
    salg = s.algebra
    out = _inverse_coeffs(salg.arity, salg.cap, salg.coeff, s.coeffs)
    return TruncatedSeries(salg, out, s.valid_order)


def series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Exact agreement of every coefficient both sides trust."""
    if a.algebra != b.algebra:
        return False
    k = _count_below(a.algebra.arity, min(a.valid_order, b.valid_order))
    return all(x == y for x, y in zip(a.coeffs[:k], b.coeffs[:k]))


def constant_series_matrix(m: SquareMatrix, arity: int, cap: int) -> SquareMatrix:
    """Embed a constant matrix as a matrix of constant series."""
    salg = SeriesAlgebra(m.algebra.base, arity, cap)
    out_alg = MatrixAlgebra(salg, m.dim)
    return SquareMatrix(
        out_alg,
        tuple(tuple(salg.constant(x) for x in row) for row in m.rows),
    )


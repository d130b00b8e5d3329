"""Exact unital associative algebras and square matrices over them.

The algebra tower is: a scalar field (rationals, Gaussian rationals, or the
residues modulo one 31-bit prime) at the bottom, with ``MatrixAlgebra`` layers
stacked on top.  Entries of a matrix may themselves be matrices; inversion
flattens the nesting down to one big matrix over the scalar field, runs a
Gauss-Jordan elimination there, and re-nests the result.  The elimination
is fraction-free, over integers (``_gauss_jordan``): the matrix is lifted
once to integer numerators over one denominator (Gaussian-integer pairs
over QQ(i), residues over GF(p)), every step divides exactly by the previous
pivot, and each entry of the inverse is built once.

All values are immutable; every operation is a pure function.  Every field is
exact, so zero and agreement tests are ``alg.is_zero(x)`` and ``==``, with no
tolerance.  ``is_exact`` says whether a zero proves a zero over QQ or QQ(i):
over GF(p) it is evidence only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import AlgebraMismatch, SingularMatrix
from .scalars import PRIME, GaussianRational, Residue, format_gaussian, format_rational

__all__ = [
    "Algebra",
    "Rationals",
    "GaussianRationals",
    "PrimeField",
    "MatrixAlgebra",
    "SquareMatrix",
    "dot",
    "row_times",
    "QQ",
    "QQI",
    "GFP",
    "random_nonzero_rational",
    "random_invertible",
    "random_element",
]


class Algebra:
    """Descriptor of a unital associative algebra; elements are plain values."""

    is_exact = True

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        """Bring ``value`` into this algebra, or raise AlgebraMismatch."""
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def scalar_mul(self, q, a):
        """Multiply by a central scalar of the ground field."""
        raise NotImplementedError

    @property
    def scalar_field(self) -> "Algebra":
        """The commutative field at the bottom of the tower."""
        return self

    def magnitude(self, a) -> float:
        """Float size estimate of an element (diagnostics only)."""
        raise NotImplementedError

    def format_element(self, a):
        """JSON-friendly exact encoding (string, or nested lists of strings)."""
        raise NotImplementedError

    def matrix_inverse(self, m: "SquareMatrix") -> "SquareMatrix":
        """Invert a square matrix whose entries live in this algebra."""
        raise NotImplementedError


class _Field(Algebra):
    """Shared behaviour for the commutative scalar fields."""

    def matrix_inverse(self, m):
        rows = [list(r) for r in m.rows]
        inv = _gauss_jordan(self, rows)
        return SquareMatrix(m.algebra, inv)

    def scalar_mul(self, q, a):
        return self.coerce(q) * a


class Rationals(_Field):
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise AlgebraMismatch(f"cannot coerce {value!r} into rationals")

    def invert(self, a):
        if a == 0:
            raise SingularMatrix("division by zero rational")
        return 1 / a

    def magnitude(self, a):
        return abs(float(a))

    def format_element(self, a):
        return format_rational(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class GaussianRationals(_Field):
    def zero(self):
        return GaussianRational(0)

    def one(self):
        return GaussianRational(1)

    def coerce(self, value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise AlgebraMismatch(f"cannot coerce {value!r} into Gaussian rationals")

    def invert(self, a):
        if not a:
            raise SingularMatrix("division by zero Gaussian rational")
        return a.reciprocal()

    def magnitude(self, a):
        return abs(a)

    def format_element(self, a):
        return format_gaussian(a)

    def __repr__(self):
        return "QQ_I"

    def __eq__(self, other):
        return isinstance(other, GaussianRationals)

    def __hash__(self):
        return hash("QQ_I")


class PrimeField(_Field):
    """GF(p) for p = PRIME: exact arithmetic, but a zero here is evidence,
    not a proof, of a zero over QQ."""

    is_exact = False

    def zero(self):
        return Residue(0)

    def one(self):
        return Residue(1)

    def coerce(self, value):
        if isinstance(value, Residue):
            return value
        if isinstance(value, (int, Fraction)):
            return Residue(value)
        raise AlgebraMismatch(f"cannot coerce {value!r} into GF({PRIME})")

    def invert(self, a):
        if not a:
            raise SingularMatrix("division by zero residue")
        return Residue(pow(a.v, -1, PRIME))

    def magnitude(self, a):
        # the size of the symmetric residue, in (-PRIME/2, PRIME/2)
        return float(min(a.v, PRIME - a.v))

    def format_element(self, a):
        return str(a)

    def __repr__(self):
        return "GFP"

    def __eq__(self, other):
        return isinstance(other, PrimeField)

    def __hash__(self):
        return hash("GFP")


QQ = Rationals()
QQI = GaussianRationals()
GFP = PrimeField()


class MatrixAlgebra(Algebra):
    """dim x dim matrices over a base algebra (which may itself be matrices)."""

    def __init__(self, base: Algebra, dim: int):
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        self.base = base
        self.dim = dim

    @property
    def is_exact(self):
        return self.base.is_exact

    def __eq__(self, other):
        return (
            isinstance(other, MatrixAlgebra)
            and other.dim == self.dim
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("mat", self.dim, self.base))

    def __repr__(self):
        return f"Mat({self.dim}, {self.base!r})"

    def matrix(self, rows) -> "SquareMatrix":
        """Build an element, coercing every entry into the base algebra."""
        coerced = tuple(
            tuple(self.base.coerce(entry) for entry in row) for row in rows
        )
        if len(coerced) != self.dim or any(len(r) != self.dim for r in coerced):
            raise AlgebraMismatch(f"expected {self.dim}x{self.dim} rows")
        return SquareMatrix(self, coerced)

    def zero(self):
        z = self.base.zero()
        return SquareMatrix(self, tuple((z,) * self.dim for _ in range(self.dim)))

    def one(self):
        z, e = self.base.zero(), self.base.one()
        return SquareMatrix(
            self,
            tuple(
                tuple(e if i == j else z for j in range(self.dim))
                for i in range(self.dim)
            ),
        )

    def diagonal(self, entries) -> "SquareMatrix":
        entries = [self.base.coerce(x) for x in entries]
        if len(entries) != self.dim:
            raise AlgebraMismatch("diagonal length mismatch")
        z = self.base.zero()
        return SquareMatrix(
            self,
            tuple(
                tuple(entries[i] if i == j else z for j in range(self.dim))
                for i in range(self.dim)
            ),
        )

    def coerce(self, value):
        if isinstance(value, SquareMatrix):
            if value.algebra == self:
                return value
            raise AlgebraMismatch(f"matrix from {value.algebra!r}, not {self!r}")
        # scalars of the ground field embed as multiples of the identity
        return self.scalar_mul(value, self.one())

    def invert(self, a):
        return self.base.matrix_inverse(self.coerce(a))

    def scalar_mul(self, q, a):
        return SquareMatrix(
            self,
            tuple(
                tuple(self.base.scalar_mul(q, x) for x in row) for row in a.rows
            ),
        )

    @property
    def scalar_field(self):
        return self.base.scalar_field

    def magnitude(self, a):
        return max(self.base.magnitude(x) for row in a.rows for x in row)

    def format_element(self, a):
        return [[self.base.format_element(x) for x in row] for row in a.rows]

    def matrix_inverse(self, m):
        # entries are themselves matrices: peel one nesting level and recurse
        flat = _flatten_once(m)
        inv = flat.inverse()
        return _nest_once(inv, self, m.algebra.dim)


class SquareMatrix:
    """Immutable square matrix; ``*`` is the noncommutative matrix product."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: MatrixAlgebra, rows):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    @property
    def dim(self):
        return self.algebra.dim

    def entry(self, i, j):
        return self.rows[i][j]

    def _check_same(self, other):
        if not isinstance(other, SquareMatrix):
            raise AlgebraMismatch(f"expected a matrix, got {other!r}")
        if other.algebra != self.algebra:
            raise AlgebraMismatch(
                f"algebra mismatch: {self.algebra!r} vs {other.algebra!r}"
            )

    def __add__(self, other):
        self._check_same(other)
        return SquareMatrix(
            self.algebra,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        self._check_same(other)
        return SquareMatrix(
            self.algebra,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self):
        return self._map(lambda a: -a)

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_same(other)
        n = self.dim
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = row[0] * col[0]
                for k in range(1, n):
                    acc = acc + row[k] * col[k]
                out_row.append(acc)
            out.append(tuple(out_row))
        return SquareMatrix(self.algebra, tuple(out))

    def inverse(self) -> "SquareMatrix":
        return self.algebra.base.matrix_inverse(self)

    # -- entrywise maps: a matrix of series gets the interface of a series --

    def _map(self, fn) -> "SquareMatrix":
        return SquareMatrix(
            self.algebra, tuple(tuple(fn(x) for x in row) for row in self.rows)
        )

    def derive(self, d) -> "SquareMatrix":
        """Entrywise formal derivative."""
        return self._map(lambda x: x.derive(d))

    def scale_left(self, c) -> "SquareMatrix":
        """Multiply every entry by ``c`` from the left."""
        return self._map(lambda x: x.scale_left(c))

    def scale_right(self, c) -> "SquareMatrix":
        """Multiply every entry by ``c`` from the right."""
        return self._map(lambda x: x.scale_right(c))

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.algebra == other.algebra and self.rows == other.rows

    def __hash__(self):
        return hash((self.algebra, self.rows))

    def __repr__(self):
        return f"SquareMatrix({self.rows!r})"


def dot(xs, ys):
    """Sum of xs[k] * ys[k], left factor first, added left to right."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def row_times(row, m: SquareMatrix) -> tuple:
    """The row vector ``row`` times the matrix ``m``."""
    return tuple(dot(row, col) for col in zip(*m.rows))


def _gauss_jordan(field: Algebra, rows):
    """The inverse rows of a square matrix over a field, by fraction-free
    Gauss-Jordan elimination over integers (Bareiss 1968).

    The rows are lifted once to integers A = D * rows (``_integer_rows``) and
    set beside the identity.  Column by column, the first row with a nonzero
    entry there is the pivot row y, with pivot p; every other row x becomes
    (p x - f y) / prev, with f the row's entry in the column and prev the
    previous pivot (1 at first).  The division is exact, and the zero pattern
    of each column is that of the elimination over the field, so the pivots,
    and the column a SingularMatrix names, are the same.  At the end the left
    half is det * I and the right half det * A^-1, and each entry of the
    inverse is built once, as D * (det * A^-1) / det.
    """
    n = len(rows)
    den, ints = _integer_rows(field, rows)
    zero, one, step = (
        ((0, 0), (1, 0), _gaussian_step) if isinstance(field, GaussianRationals)
        else (0, 1, _residue_step) if isinstance(field, PrimeField)
        else (0, 1, _integer_step)
    )
    aug = [row + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(ints)]
    prev = one
    for col in range(n):
        for pivot_row in range(col, n):
            if aug[pivot_row][col] != zero:
                break
        else:
            raise SingularMatrix(f"no invertible pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        y = aug[col]
        p = y[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and (f != zero or p != prev):
                aug[r] = step(p, f, prev, aug[r], y)
        prev = p
    return _from_integer_rows(field, den, prev, [row[n:] for row in aug])


def _integer_rows(field, rows):
    """(D, integer rows): D * rows with D the lcm of every denominator over
    QQ, Gaussian integers as (re, im) pairs over QQ(i), and the residues
    themselves (D = 1) over GF(p)."""
    if isinstance(field, PrimeField):
        return 1, [[x.v for x in row] for row in rows]
    if isinstance(field, GaussianRationals):
        den = lcm(*(q.denominator for row in rows for z in row for q in (z.re, z.im)))
        return den, [[(_numerator(z.re, den), _numerator(z.im, den)) for z in row]
                     for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[_numerator(x, den) for x in row] for row in rows]


def _numerator(x, den):
    return x.numerator * (den // x.denominator)


def _from_integer_rows(field, den, det, rows):
    """The field scalars D * v / det of integer rows as from ``_integer_rows``."""
    if isinstance(field, PrimeField):
        inv = pow(det, -1, PRIME)
        return [[Residue(v * inv) for v in row] for row in rows]
    if isinstance(field, GaussianRationals):
        # (vr + vi i) / (dr + di i) = (vr + vi i)(dr - di i) / (dr^2 + di^2)
        dr, di = det
        norm = dr * dr + di * di
        return [
            [GaussianRational(Fraction(den * (vr * dr + vi * di), norm),
                              Fraction(den * (vi * dr - vr * di), norm))
             for vr, vi in row]
            for row in rows
        ]
    return [[Fraction(den * v, det) if v else _ZERO for v in row] for row in rows]


_ZERO = Fraction(0)


def _integer_step(p, f, prev, x, y):
    """(p x - f y) / prev over integers; the division is exact."""
    return [(p * a - f * b) // prev for a, b in zip(x, y)]


def _residue_step(p, f, prev, x, y):
    """(p x - f y) / prev mod PRIME."""
    q = pow(prev, -1, PRIME)
    p, f = p * q % PRIME, f * q % PRIME
    return [(p * a - f * b) % PRIME for a, b in zip(x, y)]


def _gaussian_step(p, f, prev, x, y):
    """(p x - f y) / prev over Gaussian integers as (re, im) pairs; the
    division, by multiplying with the conjugate of prev and dividing by its
    norm, is exact."""
    (pr, pi), (fr, fi), (gr, gi) = p, f, prev
    norm = gr * gr + gi * gi
    out = []
    for (xr, xi), (yr, yi) in zip(x, y):
        re = pr * xr - pi * xi - fr * yr + fi * yi
        im = pr * xi + pi * xr - fr * yi - fi * yr
        out.append(((re * gr + im * gi) // norm, (im * gr - re * gi) // norm))
    return out


def _flatten_once(m: SquareMatrix) -> SquareMatrix:
    """Matrix over MatrixAlgebra(base, r) -> matrix over base of size dim*r."""
    inner = m.algebra.base
    if not isinstance(inner, MatrixAlgebra):
        raise AlgebraMismatch("entries are not matrices; nothing to flatten")
    r = inner.dim
    big = MatrixAlgebra(inner.base, m.dim * r)
    rows = []
    for i in range(m.dim):
        for a in range(r):
            rows.append(
                tuple(
                    m.rows[i][j].rows[a][b]
                    for j in range(m.dim)
                    for b in range(r)
                )
            )
    return SquareMatrix(big, tuple(rows))


def _nest_once(flat: SquareMatrix, outer: MatrixAlgebra, dim: int) -> SquareMatrix:
    """Inverse of _flatten_once for an outer algebra of matrices of size dim."""
    r = outer.dim
    target = MatrixAlgebra(outer, dim)
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            block = tuple(
                tuple(flat.rows[i * r + a][j * r + b] for b in range(r))
                for a in range(r)
            )
            row.append(SquareMatrix(outer, block))
        rows.append(tuple(row))
    return SquareMatrix(target, tuple(rows))


def random_nonzero_rational(rng, bound: int = 7) -> Fraction:
    """Small random nonzero rational with |num|, den <= bound."""
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


def random_element(algebra: Algebra, rng, bound: int = 7):
    """Random element built from small nonzero rationals; over GF(p) the same
    draws as over QQ, reduced mod p."""
    if isinstance(algebra, (Rationals, PrimeField)):
        return algebra.coerce(random_nonzero_rational(rng, bound))
    if isinstance(algebra, GaussianRationals):
        return GaussianRational(
            random_nonzero_rational(rng, bound),
            rng.choice([Fraction(0), random_nonzero_rational(rng, bound)]),
        )
    if isinstance(algebra, MatrixAlgebra):
        return SquareMatrix(
            algebra,
            tuple(
                tuple(random_element(algebra.base, rng, bound)
                      for _ in range(algebra.dim))
                for _ in range(algebra.dim)
            ),
        )
    raise AlgebraMismatch(f"cannot sample from {algebra!r}")


def random_invertible(algebra: Algebra, rng, bound: int = 7, attempts: int = 64):
    """Random element with an exact inverse (rejection sampling)."""
    for _ in range(attempts):
        x = random_element(algebra, rng, bound)
        try:
            algebra.invert(x)
        except SingularMatrix:
            continue
        return x
    raise SingularMatrix("could not sample an invertible element")

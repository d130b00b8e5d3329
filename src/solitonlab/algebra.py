"""Exact unital associative algebras and square matrices over them.

The algebra tower is: a scalar field (rationals, Gaussian rationals, or
complex floats for diagnostics) at the bottom, with ``MatrixAlgebra`` layers
stacked on top.  Entries of a matrix may themselves be matrices; inversion
flattens the nesting down to one big matrix over the scalar field, runs a
pivoted Gauss-Jordan elimination there, and re-nests the result.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, SingularMatrix
from .scalars import GaussianRational, format_gaussian, format_rational

__all__ = [
    "Algebra",
    "Rationals",
    "GaussianRationals",
    "ComplexFloats",
    "MatrixAlgebra",
    "SquareMatrix",
    "QQ",
    "QQI",
    "CC",
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


class ComplexFloats(_Field):
    """Floating complex numbers; diagnostics only, never exactness-critical."""

    is_exact = False

    def zero(self):
        return complex(0)

    def one(self):
        return complex(1)

    def coerce(self, value):
        if isinstance(value, (complex, float, int, Fraction)):
            return complex(value)
        if isinstance(value, GaussianRational):
            return complex(value)
        raise AlgebraMismatch(f"cannot coerce {value!r} into complex floats")

    def invert(self, a):
        if a == 0:
            raise SingularMatrix("division by zero complex float")
        return 1 / a

    def magnitude(self, a):
        return abs(a)

    def format_element(self, a):
        return repr(a)

    def __repr__(self):
        return "CC"

    def __eq__(self, other):
        return isinstance(other, ComplexFloats)

    def __hash__(self):
        return hash("CC")


QQ = Rationals()
QQI = GaussianRationals()
CC = ComplexFloats()


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

    def is_zero(self) -> bool:
        """True when every entry is zero through its own valid order."""
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.algebra == other.algebra and self.rows == other.rows

    def __hash__(self):
        return hash((self.algebra, self.rows))

    def __repr__(self):
        return f"SquareMatrix({self.rows!r})"


def _gauss_jordan(field: Algebra, rows):
    """In-place Gauss-Jordan over a field; returns the inverse rows."""
    n = len(rows)
    aug = [list(rows[i]) + [field.one() if i == j else field.zero() for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot_row = None
        if field.is_exact:
            for r in range(col, n):
                if aug[r][col]:
                    pivot_row = r
                    break
        else:
            best = 0.0
            for r in range(col, n):
                mag = field.magnitude(aug[r][col])
                if mag > best:
                    best, pivot_row = mag, r
            if best == 0.0:
                pivot_row = None
        if pivot_row is None:
            raise SingularMatrix(f"no invertible pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_p = field.invert(aug[col][col])
        aug[col] = [inv_p * x for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if not factor:
                continue
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
    """Random element built from small nonzero rationals."""
    if isinstance(algebra, Rationals):
        return random_nonzero_rational(rng, bound)
    if isinstance(algebra, GaussianRationals):
        return GaussianRational(
            random_nonzero_rational(rng, bound),
            rng.choice([Fraction(0), random_nonzero_rational(rng, bound)]),
        )
    if isinstance(algebra, ComplexFloats):
        return complex(
            float(random_nonzero_rational(rng, bound)),
            float(rng.choice([Fraction(0), random_nonzero_rational(rng, bound)])),
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

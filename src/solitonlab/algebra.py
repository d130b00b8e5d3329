"""Exact unital associative algebras and square matrices over them.

The algebra tower is: a scalar field (rationals, Gaussian rationals, or the
residues modulo one 31-bit prime) at the bottom, with ``MatrixAlgebra`` layers
stacked on top.  Entries of a matrix may themselves be matrices; inversion
flattens the whole tower once to one big matrix over the scalar field
(``_scalar_grid``), runs a Gauss-Jordan elimination there, and re-nests the
result (``_from_grid``); a series over a matrix tower stores its coefficients
in that flattened layout, as integer numerators per entry.  Products and
inverses of matrices are the entry algebra's job (``matmul``,
``matrix_inverse``): entry by entry by default, whole grids for series.

This module owns the integer form of field scalars (see ``_Field``), on
which the fraction-free elimination here (``_bareiss``, behind both
``_gauss_jordan`` and a field's ``quasideterminant``) and the series kernels
of :mod:`solitonlab.series` run: ``_integers`` reads scalars as integer
numerators over one denominator per index, the form a series stores, and a
field's ``join`` builds scalars back from it.  An integer scalar enters
every kernel as the row of its channels (a left factor) or as its real
block (``_real_grid``), so every kernel works on one integer per entry.

All values are immutable; every operation is a pure function.  Every field is
exact, so zero and agreement tests are ``alg.is_zero(x)`` and ``==``, with no
tolerance.  ``is_exact`` says whether a zero proves a zero over QQ or QQ(i):
over GF(p) it is evidence only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .errors import AlgebraMismatch, SingularMatrix
from .scalars import PRIME, GaussianRational, Residue

__all__ = [
    "Algebra",
    "Rationals",
    "GaussianRationals",
    "PrimeField",
    "MatrixAlgebra",
    "SquareMatrix",
    "row_times",
    "QQ",
    "QQI",
    "GFP",
    "random_nonzero_rational",
    "random_invertible",
    "random_element",
]


class Algebra:
    """Descriptor of a unital associative algebra; elements are plain values.

    Each algebra defines ``zero`` and ``one``; ``coerce``, which brings a
    value in or raises AlgebraMismatch; ``invert``; ``scalar_mul`` by a
    central scalar of the ground field; ``magnitude``, a float size for
    diagnostics; ``format_element``, its exact JSON encoding; and
    ``matrix_inverse`` of a square matrix of its elements."""

    is_exact = True

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def matrix_divide(self, x: "SquareMatrix", m: "SquareMatrix") -> "SquareMatrix":
        """x * m^-1 for square matrices with entries in this algebra."""
        return x * m.inverse()

    def matmul(self, xs, ys) -> list:
        """The rows of the product of a k x N grid ``xs`` by an N x m grid
        ``ys`` of elements: entry (i, j) adds xs[i][l] * ys[l][j] over l, left
        factor first, from left to right."""
        cols = tuple(zip(*ys))
        out = []
        for row in xs:
            out_row = []
            for col in cols:
                products = map(mul, row, col)
                acc = next(products)
                for p in products:
                    acc = acc + p
                out_row.append(acc)
            out.append(tuple(out_row))
        return out


class _Field(Algebra):
    """Shared behaviour for the commutative scalar fields.

    A field declares ``kind``, the type of its scalars, ``accepts``, the types
    that ``coerce`` sends through ``kind``, ``label``, its name in errors, and
    ``name``, its repr; ``zero``, ``one``, ``coerce``, ``format_element``
    (``str`` of a scalar) and equality are read from them here.

    A field also declares its integer form: ``split`` reads scalars as
    channels of rationals or integers (one, or (re, im) over QQ(i)),
    ``join`` builds scalars from integer channels over denominators,
    ``terms`` lists the channel products (a, b, out, sign) that add
    sign * a * b to channel out, and ``modulus`` is PRIME over GF(p).  Every
    integer kernel reads a scalar as its row of channels (a left factor) or
    its real block (``_real_grid``: a right factor, or under elimination),
    so it works on one integer per entry over every field."""

    terms = ((0, 0, 0, 1),)
    modulus = None

    def zero(self):
        return self.kind(0)

    def one(self):
        return self.kind(1)

    def coerce(self, value):
        if isinstance(value, self.kind):
            return value
        if isinstance(value, self.accepts):
            return self.kind(value)
        raise AlgebraMismatch(f"cannot coerce {value!r} into {self.label}")

    def format_element(self, a):
        return str(a)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.name)

    def matrix_inverse(self, m):
        return SquareMatrix(m.algebra, _gauss_jordan(self, m.rows))

    _lifted = (None, 1, ())  # the last matrix a quasideterminant lifted, its D and A

    def quasideterminant(self, m, i, j):
        """|m|_ij = m_ij - r * S^-1 * c, S being m without row i and column
        j, by one forward elimination and no inverse.  m is lifted once to
        its real integer form A = D * m (``_real_scalars``), w x w per
        scalar, kept for the next position of the same m; row i and column j
        of A are moved last, and of the last w rows only the first is read.
        Eliminating S's columns with pivots from S's rows, updating only the
        rows below each pivot (``_bareiss``, forward), leaves det(D * S) as
        the last pivot and, in that row, the first row of the real block of
        D * |m|_ij times it (the Schur complement of S, bordered), so the
        channels of |m|_ij are that row's last w entries over D * det(D * S).
        Raises SingularMatrix when S is singular."""
        if self._lifted[0] is not m:
            self._lifted = (m, *_real_scalars(self, m.rows))
        _, den, real = self._lifted
        w = len(real) // m.dim
        lo, hi = j * w, (j + 1) * w
        aug = [row[:lo] + row[hi:] + row[lo:hi]
               for row in real[:i * w] + real[(i + 1) * w:] + real[i * w:i * w + 1]]
        last = len(real) - w
        det = _bareiss(aug, last, w, self.modulus, forward=True)
        return self.join([[v] for v in aug[last][last:]], [den * det])[0]

    def scalar_mul(self, q, a):
        return self.coerce(q) * a


class Rationals(_Field):
    kind = Fraction
    accepts = (int,)
    label = "rationals"
    name = "QQ"

    def invert(self, a):
        if a == 0:
            raise SingularMatrix("division by zero rational")
        return 1 / a

    def magnitude(self, a):
        return abs(float(a))

    def split(self, xs):
        return (xs,)

    def join(self, chans, dens):
        return _fractions(chans[0], dens)


class GaussianRationals(_Field):
    # a scalar is (re, im), and (a + bi)(c + di) = (ac - bd) + (ad + bc)i
    terms = ((0, 0, 0, 1), (1, 1, 0, -1), (0, 1, 1, 1), (1, 0, 1, 1))
    kind = GaussianRational
    accepts = (int, Fraction)
    label = "Gaussian rationals"
    name = "QQ_I"

    def invert(self, a):
        if not a:
            raise SingularMatrix("division by zero Gaussian rational")
        return a.reciprocal()

    def magnitude(self, a):
        return abs(a)

    def split(self, xs):
        return [z.re for z in xs], [z.im for z in xs]

    def join(self, chans, dens):
        re, im = (_fractions(c, dens) for c in chans)
        return [GaussianRational(x, y) for x, y in zip(re, im)]


class PrimeField(_Field):
    """GF(p) for p = PRIME: exact arithmetic, but a zero here is evidence,
    not a proof, of a zero over QQ."""

    is_exact = False
    modulus = PRIME
    kind = Residue
    accepts = (int, Fraction)
    label = f"GF({PRIME})"
    name = "GFP"

    def invert(self, a):
        if not a:
            raise SingularMatrix("division by zero residue")
        return Residue(pow(a.v, -1, PRIME))

    def magnitude(self, a):
        # the size of the symmetric residue, in (-PRIME/2, PRIME/2)
        return float(min(a.v, PRIME - a.v))

    def split(self, xs):
        return ([r.v for r in xs],)

    def join(self, chans, dens):
        inverse = {d: pow(d, -1, PRIME) for d in set(dens)}
        return [Residue(v * inverse[d]) for v, d in zip(chans[0] or [0] * len(dens), dens)]


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
        return self.diagonal([self.base.zero()] * self.dim)

    def one(self):
        return self.diagonal([self.base.one()] * self.dim)

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

    def magnitude(self, a):
        return max(self.base.magnitude(x) for row in a.rows for x in row)

    def format_element(self, a):
        return [[self.base.format_element(x) for x in row] for row in a.rows]

    def matrix_inverse(self, m):
        # entries are themselves matrices: invert the whole tower flattened once
        bottom = _field_and_dim(self)[0]
        grid = _scalar_grid(m.algebra, m)
        inv = bottom.matrix_inverse(SquareMatrix(MatrixAlgebra(bottom, len(grid)), grid))
        return _from_grid(m.algebra, inv.rows)


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
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def _zip(self, other, op):
        """The entrywise op of two matrices of one algebra."""
        self._check_same(other)
        return SquareMatrix(
            self.algebra, [map(op, ra, rb) for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return self._map(lambda a: -a)

    def __mul__(self, other):
        """The matrix product, formed by the entry algebra's ``matmul``: entry
        by entry over fields and matrices, in one integer pass over series."""
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_same(other)
        return SquareMatrix(self.algebra, self.algebra.base.matmul(self.rows, other.rows))

    def inverse(self) -> "SquareMatrix":
        return self.algebra.base.matrix_inverse(self)

    def __truediv__(self, other) -> "SquareMatrix":
        """self * other^-1, formed by the entry algebra's ``matrix_divide``."""
        self._check_same(other)
        return self.algebra.base.matrix_divide(self, other)

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


def row_times(row, m: SquareMatrix) -> tuple:
    """The row vector ``row`` times the matrix ``m``."""
    return m.algebra.base.matmul([row], m.rows)[0]


def _gauss_jordan(field: Algebra, rows):
    """The inverse rows of a square matrix over a field, by fraction-free
    Gauss-Jordan elimination of its real integer form A = D * rows
    (``_real_scalars``, ``_real_inverse``): det * A^-1 is the real form of
    det * rows^-1 / D, so each inverse scalar is built once from the first
    row of its block, as D * (det * A^-1) / det.
    """
    n = len(rows)
    den, real = _real_scalars(field, rows)
    w = len(real) // n
    det, inv = _real_inverse(real, w, field.modulus)
    chans = [[den * v for row in inv[::w] for v in row[c::w]] for c in range(w)]
    inv = field.join(chans, [det] * (n * n))
    return [inv[i * n:(i + 1) * n] for i in range(n)]


def _real_inverse(rows, w, modulus):
    """(det, B) for integer rows in real form (``_real_grid``, w integers
    per scalar): B = det * rows^-1, by Bareiss elimination beside the
    identity, and det the last pivot.  SingularMatrix when singular."""
    size = len(rows)
    aug = [list(row) + [0] * size for row in rows]
    for i, row in enumerate(aug):
        row[size + i] = 1
    det = _bareiss(aug, size, w, modulus)
    return det, [row[size:] for row in aug]


def _bareiss(aug, pivots, w, modulus, forward=False):
    """Fraction-free elimination (Bareiss 1968) of the integer rows ``aug``
    in place, over their first ``pivots`` columns; returns the last pivot.

    The rows are a real form (``_real_grid``), w integers per scalar.  Column
    by column, the first of rows col..pivots-1 with a nonzero entry there is
    the pivot row y, with pivot p; every other row x (Gauss-Jordan, as an
    inverse beside the identity needs) or, when ``forward``, every later one
    (all a Schur complement reads) becomes (p x - f y) / prev, with f its
    entry in the column and prev the previous pivot (1 at first).  The
    division is exact, and mod ``modulus`` it is a product with prev's
    inverse.  A real block is invertible exactly when its scalar is, so the
    elimination stops at column w k exactly when the one over the field
    stops at column k, and SingularMatrix names column k.  Rows below a pivot
    are updated alike either way, so the last pivot is the determinant of
    the leading pivots x pivots block, and each entry of a later row ends as
    that block bordered by the row and the entry's column, both up to one
    sign from the row swaps.  Rows are rebuilt whole: on rows this small,
    cutting off the columns left of the pivot costs more than it saves.
    """
    prev = 1
    for col in range(pivots):
        for pivot_row in range(col, pivots):
            if aug[pivot_row][col]:
                break
        else:
            raise SingularMatrix(f"no invertible pivot in column {col // w}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        y = aug[col]
        p = y[col]
        if modulus:
            q = pow(prev, -1, modulus)
        for r in range(col + 1 if forward else 0, len(aug)):
            f = aug[r][col]
            if r != col and (f or p != prev):
                if modulus:
                    aug[r] = [(p * a - f * b) * q % modulus for a, b in zip(aug[r], y)]
                else:
                    aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], y)]
        prev = p
    return prev


def _field_and_dim(alg):
    """The algebra under the matrix tower ``alg`` and its flattened size."""
    dim = 1
    while isinstance(alg, MatrixAlgebra):
        dim *= alg.dim
        alg = alg.base
    return alg, dim


def _flatten(blocks):
    """A grid of square blocks of one size s (each a list of rows) as one
    grid: entry (a, b) of block (i, j) is at (i s + a, j s + b)."""
    return [
        [e for block in brow for e in block[a]]
        for brow in blocks
        for a in range(len(brow[0]))
    ]


def _blocks(grid, s):
    """Inverse of _flatten: the grid cut into blocks of size s."""
    return [
        [[row[j:j + s] for row in grid[i:i + s]] for j in range(0, len(grid[0]), s)]
        for i in range(0, len(grid), s)
    ]


def _scalar_grid(alg, x):
    """An element of ``alg`` as rows of bottom-algebra scalars, nested blocks
    flattened (see ``_flatten``)."""
    if not isinstance(alg, MatrixAlgebra):
        return [[x]]
    if not isinstance(alg.base, MatrixAlgebra):
        return x.rows
    return _flatten([[_scalar_grid(alg.base, e) for e in row] for row in x.rows])


def _from_grid(alg, grid):
    """Inverse of _scalar_grid."""
    if not isinstance(alg.base, MatrixAlgebra):
        return SquareMatrix(alg, grid)
    return SquareMatrix(alg, [
        [_from_grid(alg.base, block) for block in brow]
        for brow in _blocks(grid, len(grid) // alg.dim)
    ])


def _integers(field, grid):
    """(nums, dens) for a grid of per-entry sequences of ``field`` scalars:
    dens[k] is the least common denominator of the scalars at index k, and
    nums[i][j][c] the tuple of numerators over dens of channel c (``split``)
    of entry (i, j), or None when they are all zero."""
    chans = [[field.split(e) for e in row] for row in grid]
    parts = [part for row in chans for ch in row for part in ch]
    dens = tuple(lcm(*[v.denominator for v in vs]) for vs in zip(*parts))
    return [[[_numerators(part, dens) for part in ch] for ch in row] for row in chans], dens


def _numerators(values, dens):
    nums = tuple([v.numerator * (d // v.denominator) for v, d in zip(values, dens)])
    return nums if any(nums) else None


def _real_grid(terms, grid):
    """The real form of a grid of integer entries (see ``_integers``): entry
    (i, j) becomes the w x w block at rows i w.. and columns j w.. whose
    entry (a, out) is sign * channel b, for each channel product
    (a, b, out, sign) of ``terms``.  So the row of x's channels times y's
    block is the row of x * y's channels; over QQ(i) the block of re + im i
    is [[re, im], [-im, re]], and over QQ and GF(p) it is the entry."""
    w = len(grid[0][0])
    real = [[None] * (w * len(row)) for row in grid for _ in range(w)]
    for ca, cb, co, sign in terms:
        for i, row in enumerate(grid):
            out = real[i * w + ca]
            for j, ch in enumerate(row):
                x = ch[cb]
                out[j * w + co] = x if x is None or sign > 0 else [-v for v in x]
    return real


def _real_scalars(field, rows):
    """(D, A) for a grid of field scalars: A is the real form (``_real_grid``)
    of the integers D * rows, as rows of ints, lifted in one flat pass: each
    scalar's channels are read once as integer ratios, and each channel
    product (a, b, out, sign) of ``terms`` fills, in row i w + a of A, the
    columns j w + out from channel b of row i."""
    n, k = len(rows), len(rows[0])
    ratios = [v.as_integer_ratio()
              for part in field.split([x for row in rows for x in row]) for v in part]
    den = lcm(*{d for _, d in ratios})
    ints = [v * (den // d) for v, d in ratios]  # channel b of (i, j) at (b n + i) k + j
    w = len(ints) // (n * k)
    real = [[0] * (w * k) for _ in range(w * n)]
    for a, b, out, sign in field.terms:
        for i in range(n):
            line = ints[(b * n + i) * k:(b * n + i + 1) * k]
            real[i * w + a][out::w] = line if sign > 0 else [-v for v in line]
    return den, real


def _channel_rows(grid):
    """Each row of a grid of integer entries as the row of their channels,
    laid end to end: the left factor of a real form."""
    return [[ch for e in row for ch in e] for row in grid]


def _pair_channels(w, rows):
    """Inverse of ``_channel_rows``: rows of w channels per entry, laid end
    to end, back to rows of per-entry channel lists."""
    return [[row[j:j + w] for j in range(0, len(row), w)] for row in rows]


def _fractions(nums, dens):
    if nums is None:
        return [_ZERO] * len(dens)
    return [Fraction(v, d) if v else _ZERO for v, d in zip(nums, dens)]


_ZERO = Fraction(0)


def random_nonzero_rational(rng) -> Fraction:
    """Small random nonzero rational with |num|, den <= 7."""
    num = 0
    while num == 0:
        num = rng.randint(-7, 7)
    return Fraction(num, rng.randint(1, 7))


def random_element(algebra: Algebra, rng):
    """Random element built from small nonzero rationals; over GF(p) the same
    draws as over QQ, reduced mod p."""
    if isinstance(algebra, (Rationals, PrimeField)):
        return algebra.coerce(random_nonzero_rational(rng))
    if isinstance(algebra, GaussianRationals):
        return GaussianRational(
            random_nonzero_rational(rng),
            rng.choice([Fraction(0), random_nonzero_rational(rng)]),
        )
    if isinstance(algebra, MatrixAlgebra):
        return SquareMatrix(
            algebra,
            tuple(
                tuple(random_element(algebra.base, rng) for _ in range(algebra.dim))
                for _ in range(algebra.dim)
            ),
        )
    raise AlgebraMismatch(f"cannot sample from {algebra!r}")


def random_invertible(algebra: Algebra, rng):
    """Random element with an exact inverse (rejection sampling, 64 tries)."""
    for _ in range(64):
        x = random_element(algebra, rng)
        try:
            algebra.invert(x)
        except SingularMatrix:
            continue
        return x
    raise SingularMatrix("could not sample an invertible element")

"""Inverses of scalar matrices against a reference that never uses
solitonlab's arithmetic.

Over QQ and QQ(i) the reference is sympy's ``Matrix.inv()`` on ``Rational``
and ``I`` entries; over GF(p) it is a Gauss-Jordan elimination on plain
``int`` residues.  Inputs are drawn as reference scalars and built into
solitonlab values with their constructors; outputs are read back as
numerator/denominator pairs.  For a singular matrix the reference names the
first column j whose leading j + 1 columns have rank at most j: that is
where an elimination taking the first nonzero pivot of each column stops.
"""

from fractions import Fraction
from math import prod
from random import Random

import pytest
import sympy

from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix
from solitonlab.errors import SingularMatrix
from solitonlab.scalars import PRIME, GaussianRational, Residue

FIELDS = {"QQ": QQ, "QQi": QQI, "GFp": GFP}
SIZES = range(1, 7)
# denominators with distinct prime factors, so the lcm differs from each one
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 16, 27, 1001)
RESIDUES = (0, 1, PRIME - 1, PRIME - 2)


def _draw(field, rng, zeros):
    """A reference scalar; ``zeros`` is the share of exact zeros, which
    forces row swaps."""
    if rng.random() < zeros:
        return 0
    if field == GFP:
        return rng.choice(RESIDUES + (rng.randrange(PRIME),))

    def rational():
        return sympy.Rational(rng.randint(-9, 9), rng.choice(DENOMINATORS))

    return rational() + sympy.I * rational() if field == QQI else rational()


def _scalar(field, v):
    if field == GFP:
        return Residue(v)
    re, im = (sympy.Rational(part) for part in sympy.expand(v).as_real_imag())
    if field == QQI:
        return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))
    return Fraction(re.p, re.q)


def _key(field, v):
    """A solitonlab scalar as exact integers."""
    if field == GFP:
        return v.v
    if field == QQI:
        return (v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)
    return (v.numerator, v.denominator)


def _ref_key(field, v):
    """A reference scalar as the same integers."""
    if field == GFP:
        return v % PRIME
    re, im = (sympy.Rational(part) for part in sympy.expand(v).as_real_imag())
    if field == QQI:
        return (int(re.p), int(re.q), int(im.p), int(im.q))
    return (int(re.p), int(re.q))


def _mod_p_reduce(rows):
    """Row echelon form mod p of int rows: (rank, rows)."""
    rows = [[v % PRIME for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, PRIME)
        rows[rank] = [v * inv % PRIME for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % PRIME for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank, rows


def _ref_inverse(field, grid):
    """The inverse grid, or None when the grid is singular."""
    n = len(grid)
    if field == GFP:
        rank, rows = _mod_p_reduce([row + [int(i == j) for j in range(n)]
                                    for i, row in enumerate(grid)])
        left = [row[:n] for row in rows]
        if left != [[int(i == j) for j in range(n)] for i in range(n)]:
            return None
        return [row[n:] for row in rows]
    m = sympy.Matrix(grid)
    if m.det() == 0:
        return None
    return [[sympy.expand(v) for v in row] for row in m.inv().tolist()]


def _rank(field, grid):
    if field == GFP:
        return _mod_p_reduce(grid)[0]
    return sympy.Matrix(grid).rank(simplify=True)


def _singular_column(field, grid):
    """The first column whose leading columns are dependent."""
    return next(j for j in range(len(grid))
                if _rank(field, [row[:j + 1] for row in grid]) <= j)


def _matrix(field, grid):
    return SquareMatrix(MatrixAlgebra(field, len(grid)),
                        [[_scalar(field, v) for v in row] for row in grid])


def _keys(field, m):
    return [[_key(field, v) for v in row] for row in m.rows]


def _ref_keys(field, grid):
    return [[_ref_key(field, v) for v in row] for row in grid]


def _cases():
    return [
        pytest.param(name, size, zeros, id=f"{name}-n{size}-zeros{zeros}")
        for name in FIELDS
        for size in SIZES
        for zeros in (0.0, 0.5)
    ]


@pytest.mark.parametrize("name,size,zeros", _cases())
def test_inverse_matches_reference(name, size, zeros):
    field = FIELDS[name]
    rng = Random(f"inverse {name} {size} {zeros}")
    done = 0
    while done < 3:
        grid = [[_draw(field, rng, zeros) for _ in range(size)] for _ in range(size)]
        expected = _ref_inverse(field, grid)
        if expected is None:
            continue
        got = _matrix(field, grid).inverse()
        assert got.algebra == MatrixAlgebra(field, size)
        assert _keys(field, got) == _ref_keys(field, expected)
        done += 1


# towers Mat(d_0, Mat(d_1, ... field)), outermost size first
TOWERS = ((QQ, (2, 2)), (QQ, (2, 3)), (QQI, (2, 2)), (GFP, (3, 2)), (QQ, (2, 2, 2)))
TOWER_IDS = [f"{field!r}-{'x'.join(map(str, dims))}" for field, dims in TOWERS]


def _nested(field, dims, grid, top=0, left=0):
    """The tower element whose block (i, j), of size s, holds the grid's
    rows from top + i*s and columns from left + j*s, down to the scalars."""
    if not dims:
        return _scalar(field, grid[top][left])
    inner = field
    for d in reversed(dims[1:]):
        inner = MatrixAlgebra(inner, d)
    s = prod(dims[1:])
    return SquareMatrix(MatrixAlgebra(inner, dims[0]), [
        [_nested(field, dims[1:], grid, top + i * s, left + j * s)
         for j in range(dims[0])]
        for i in range(dims[0])
    ])


def _flat_entry(m, size, i, j):
    """Entry (i, j) of the size x size flattened grid of a tower element."""
    while isinstance(m, SquareMatrix):
        s = size // m.dim
        m, i, j, size = m.rows[i // s][j // s], i % s, j % s, s
    return m


def test_nested_inverse_matches_reference():
    """A tower over QQ, QQ(i) or GF(p) is inverted as its flattened grid,
    with block (i, j) of size s at rows i*s.. and columns j*s.."""
    rng = Random("nested")
    for field, dims in TOWERS:
        size = prod(dims)
        for zeros in (0.0, 0.5):
            grid = None
            while grid is None or _ref_inverse(field, grid) is None:
                grid = [[_draw(field, rng, zeros) for _ in range(size)]
                        for _ in range(size)]
            m = _nested(field, dims, grid)
            got = m.inverse()
            assert got.algebra == m.algebra
            flat = [[_key(field, _flat_entry(got, size, i, j)) for j in range(size)]
                    for i in range(size)]
            assert flat == _ref_keys(field, _ref_inverse(field, grid))


def _singular_grids(field, size, rng):
    """Grids whose column j is a combination of the columns before it (zero
    for j = 0), and grids with two equal rows."""
    for j in range(size):
        grid = [[_draw(field, rng, 0.3) for _ in range(size)] for _ in range(size)]
        weights = [_draw(field, rng, 0.0) for _ in range(j)]
        for row in grid:
            row[j] = sum((w * v for w, v in zip(weights, row)), 0)
            if field == GFP:
                row[j] %= PRIME
        yield grid
    if size > 1:
        grid = [[_draw(field, rng, 0.3) for _ in range(size)] for _ in range(size)]
        grid[-1] = list(grid[0])
        yield grid


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("size", SIZES)
def test_singular_matrix_names_its_column(name, size):
    field = FIELDS[name]
    rng = Random(f"singular {name} {size}")
    for grid in _singular_grids(field, size, rng):
        column = _singular_column(field, grid)
        with pytest.raises(SingularMatrix) as info:
            _matrix(field, grid).inverse()
        assert str(info.value) == f"no invertible pivot in column {column}"


@pytest.mark.parametrize("field,dims", TOWERS, ids=TOWER_IDS)
def test_nested_singular_matrix_names_its_column(field, dims):
    """A singular tower names the column of its flattened grid."""
    size = prod(dims)
    rng = Random(f"nested singular {field} {dims}")
    for grid in _singular_grids(field, size, rng):
        column = _singular_column(field, grid)
        with pytest.raises(SingularMatrix) as info:
            _nested(field, dims, grid).inverse()
        assert str(info.value) == f"no invertible pivot in column {column}"

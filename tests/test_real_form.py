"""The real form of lifted scalars is a homomorphism.

Every integer kernel reads a lifted scalar either as the row of its
channels (a left factor) or as its w x w real block (``_real_grid``: a
right factor, or under elimination).  For grids X, Y of field scalars lifted
to integers over D_x and D_y, the channel rows of X times the real form of
Y are the channels of D_x D_y X Y, and the real forms multiply as X Y's
does.  Products are formed here over plain ints and compared with the
field's own ``*`` and ``+``.
"""

from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import (
    GFP,
    QQ,
    QQI,
    _channel_rows,
    _integers,
    _pair_channels,
    _real_grid,
)
from solitonlab.scalars import PRIME, GaussianRational, Residue

FIELDS = {"QQ": QQ, "QQi": QQI, "GFp": GFP}
# denominators with distinct prime factors, so the lcm differs from each one
DENOMINATORS = (1, 2, 3, 4, 9, 11, 1001)


def _scalar(field, rng):
    if rng.random() < 0.2:
        return field.zero()
    if field == GFP:
        return Residue(rng.randrange(PRIME))

    def rational():
        return Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))

    return GaussianRational(rational(), rational()) if field == QQI else rational()


def _grid(field, rng, rows, cols):
    return [[_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]


def _times(field, xs, ys):
    """The grid product over the field's own arithmetic."""
    return [[sum((x * y for x, y in zip(row, col)), field.zero()) for col in zip(*ys)]
            for row in xs]


def _lifted(field, grid):
    """(D, lifted grid) with one index per entry (see ``_integers``)."""
    nums, (den,) = _integers(field, [[(x,) for x in row] for row in grid])
    return den, nums


def _ints(grid):
    """A grid of one-index integer lists (None for zero) as a grid of ints."""
    return [[0 if x is None else x[0] for x in row] for row in grid]


def _matmul(xs, ys, modulus):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*ys)] for row in xs]
    return [[v % modulus for v in row] for row in out] if modulus else out


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", range(4))
def test_channel_row_times_block_is_the_product(name, seed):
    field = FIELDS[name]
    rng = Random(f"channel rows {name} {seed}")
    k, n, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    xs, ys = _grid(field, rng, k, n), _grid(field, rng, n, m)
    (den_x, x_int), (den_y, y_int) = _lifted(field, xs), _lifted(field, ys)
    w = len(x_int[0][0])
    real = _matmul(_ints(_channel_rows(x_int)), _ints(_real_grid(field.terms, y_int)),
                   field.modulus)
    chans = _pair_channels(w, [[[v] for v in row] for row in real])
    got = [[field.join(ch, [den_x * den_y])[0] for ch in row] for row in chans]
    assert got == _times(field, xs, ys)


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("seed", range(4))
def test_real_forms_multiply_as_their_grids(name, seed):
    field = FIELDS[name]
    rng = Random(f"real forms {name} {seed}")
    k, n, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    xs, ys = _grid(field, rng, k, n), _grid(field, rng, n, m)
    (den_x, x_int), (den_y, y_int) = _lifted(field, xs), _lifted(field, ys)
    den_xy, xy_int = _lifted(field, _times(field, xs, ys))
    # X Y's denominators divide D_x D_y, so D_x D_y X Y is an integer grid
    scale = den_x * den_y // den_xy
    want = [[v * scale for v in row] for row in _ints(_real_grid(field.terms, xy_int))]
    got = _matmul(_ints(_real_grid(field.terms, x_int)), _ints(_real_grid(field.terms, y_int)),
                  field.modulus)
    if field.modulus:
        want = [[v % field.modulus for v in row] for row in want]
    assert got == want


def test_gaussian_block_layout():
    """Over QQ(i) the block of re + im i is [[re, im], [-im, re]], one block
    per entry, interleaved."""
    _, lifted = _lifted(QQI, [[GaussianRational(1, 2), GaussianRational(3, -4)]])
    assert _ints(_real_grid(QQI.terms, lifted)) == [[1, 2, 3, -4], [-2, 1, 4, 3]]
    assert _ints(_channel_rows(lifted)) == [[1, 2, 3, -4]]

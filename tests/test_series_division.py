"""Series division against an independent reference.

``series_inverse``, ``SeriesAlgebra.matrix_inverse`` and
``SeriesAlgebra.row_solve`` are compared with recurrences written here over
sympy ``Rational`` and ``I`` (QQ and QQ(i)) or plain ``int`` mod p (GF(p)).
The reference never uses solitonlab's scalar or series arithmetic: inputs are
drawn as reference scalars, then built into solitonlab values with their
constructors, and outputs are read back as numerator/denominator pairs.

The reference inverse runs the left recurrence
x_E = -a_0^-1 * sum over F != 0 of a_F * x_(E-F), and a row solve is the
Cauchy product y * W^-1, so it shares no step with the kernel's right
division.  Every scalar is canonical, so the two must agree exactly.  The
kernel's own output, integer numerators over one denominator per index, is
also checked to be in lowest terms at every index as it comes out.
"""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
import sympy

from solitonlab import series
from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix
from solitonlab.errors import SingularConstantTerm
from solitonlab.scalars import PRIME, GaussianRational, Residue
from solitonlab.series import SeriesAlgebra, TruncatedSeries, series_inverse

CAP = 5
COEFFS = {
    "QQ": QQ,
    "QQi": QQI,
    "GFp": GFP,
    "Mat1-QQ": MatrixAlgebra(QQ, 1),
    "Mat2-QQi": MatrixAlgebra(QQI, 2),
    "Mat3-GFp": MatrixAlgebra(GFP, 3),
    "Mat2-Mat2-QQ": MatrixAlgebra(MatrixAlgebra(QQ, 2), 2),
}
# denominators with distinct prime factors, so the lcm differs from each one
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 16, 27, 1001)
# residues at both ends of [0, p)
RESIDUES = (0, 1, 2, PRIME - 1, PRIME - 2, PRIME - 3)


def _exponents(arity, order):
    """Exponents of total degree < order in graded-lex order."""
    if arity == 1:
        return [(d,) for d in range(order)]
    return [(d - k, k) for d in range(order) for k in range(d + 1)]


def _field_and_size(alg):
    size = 1
    while isinstance(alg, MatrixAlgebra):
        size *= alg.dim
        alg = alg.base
    return alg, size


# -- reference matrices: lists of rows over sympy or over ints mod p --------


class Ref:
    """Matrix arithmetic over one field, on lists of rows."""

    def __init__(self, field):
        self.modular = field == GFP

    def reduce(self, v):
        return v % PRIME if self.modular else sympy.expand(v)

    def mul(self, x, y):
        return [[self.reduce(sum((a * b for a, b in zip(row, col)), 0))
                 for col in zip(*y)] for row in x]

    def add(self, x, y, sign=1):
        return [[self.reduce(a + sign * b) for a, b in zip(rx, ry)]
                for rx, ry in zip(x, y)]

    def zero(self, rows, cols):
        return [[0] * cols for _ in range(rows)]

    def reciprocal(self, v):
        if self.modular:
            return pow(v, -1, PRIME)
        # a rational denominator: 1/v = conj(v) / |v|^2
        conj = sympy.conjugate(v)
        return sympy.expand(conj / sympy.expand(v * conj))

    def inv(self, x):
        """The inverse by Gauss-Jordan, or None when x is singular."""
        n = len(x)
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(x)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                return None
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = self.reciprocal(aug[col][col])
            aug[col] = [self.reduce(v * inv_p) for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [self.reduce(v - f * w) for v, w in zip(aug[r], aug[col])]
        return [row[n:] for row in aug]


def _ref_inverse(ref, arity, order, a):
    """Coefficient grids of a^-1 by the left recurrence; None if a_0 is singular."""
    exps = _exponents(arity, order)
    index = {e: i for i, e in enumerate(exps)}
    c_inv = ref.inv(a[0])
    if c_inv is None:
        return None
    size = len(a[0])
    x = [c_inv]
    for e in exps[1:]:
        acc = ref.zero(size, size)
        for f in exps[1:]:
            rest = tuple(p - q for p, q in zip(e, f))
            if min(rest) >= 0:
                acc = ref.add(acc, ref.mul(a[index[f]], x[index[rest]]))
        x.append(ref.mul(c_inv, ref.add(ref.zero(size, size), acc, -1)))
    return x


def _ref_product(ref, arity, order, y, w):
    """Coefficient grids of the Cauchy product y * w."""
    exps = _exponents(arity, order)
    index = {e: i for i, e in enumerate(exps)}
    out = [ref.zero(len(y[0]), len(w[0][0])) for _ in exps]
    for ea, ya in zip(exps, y):
        for eb, wb in zip(exps, w):
            e = tuple(p + q for p, q in zip(ea, eb))
            if sum(e) < order:
                out[index[e]] = ref.add(out[index[e]], ref.mul(ya, wb))
    return out


# -- drawing reference data and building solitonlab values from it ----------


def _draw_scalar(field, rng):
    if rng.random() < 0.15:
        return 0
    if field == GFP:
        return rng.choice(RESIDUES + (rng.randrange(PRIME),))

    def rational():
        return sympy.Rational(rng.randint(-9, 9), rng.choice(DENOMINATORS))

    return rational() + sympy.I * rational() if field == QQI else rational()


def _draw_grids(field, rows, cols, count, rng):
    return [[[_draw_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]
            for _ in range(count)]


def _scalar(field, v):
    if field == GFP:
        return Residue(v)
    re, im = (sympy.Rational(part) for part in sympy.expand(v).as_real_imag())
    if field == QQI:
        return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))
    return Fraction(re.p, re.q)


def _block(grid, i, j, size):
    """Block (i, j) of a grid cut into size x size blocks."""
    return [row[j * size:(j + 1) * size] for row in grid[i * size:(i + 1) * size]]


def _join_blocks(blocks):
    """The grid made of rows of equal-height blocks."""
    return [[v for block in brow for v in block[a]]
            for brow in blocks for a in range(len(brow[0]))]


def _element(alg, field, grid):
    """A coefficient of ``alg`` from its flattened grid of reference scalars."""
    if not isinstance(alg, MatrixAlgebra):
        return _scalar(field, grid[0][0])
    s = len(grid) // alg.dim
    return SquareMatrix(alg, [[_element(alg.base, field, _block(grid, i, j, s))
                               for j in range(alg.dim)] for i in range(alg.dim)])


def _series_grid(salg, grids, rows, cols, orders):
    """Rows x cols series whose entry (i, j) is block (i, j) of every grid,
    truncated to ``orders[i][j]``."""
    field, size = _field_and_size(salg.coeff)
    return [
        [
            TruncatedSeries(
                salg,
                [_element(salg.coeff, field, _block(g, i, j, size))
                 for g in grids[:len(_exponents(salg.arity, orders[i][j]))]],
                orders[i][j],
            )
            for j in range(cols)
        ]
        for i in range(rows)
    ]


# -- reading solitonlab values back ----------------------------------------


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


def _grid_keys(alg, field, x):
    """A coefficient of ``alg`` as its flattened grid of keys."""
    if not isinstance(alg, MatrixAlgebra):
        return [[_key(field, x)]]
    return _join_blocks([[_grid_keys(alg.base, field, e) for e in row] for row in x.rows])


def _flat_keys(salg, rows):
    """Per index, the flattened grid of keys of rows of series."""
    field = _field_and_size(salg.coeff)[0]
    return [
        _join_blocks([[_grid_keys(salg.coeff, field, x.coeffs[e]) for x in row]
                      for row in rows])
        for e in range(len(rows[0][0].coeffs))
    ]


def _ref_keys(field, grids):
    return [[[_ref_key(field, v) for v in row] for row in g] for g in grids]


def _invertible_grids(ref, field, size, order, arity, rng):
    while True:
        grids = _draw_grids(field, size, size, len(_exponents(arity, order)), rng)
        if ref.inv(grids[0]) is not None:
            return grids


def _algebras():
    return [
        pytest.param(name, arity, id=f"{name}-arity{arity}")
        for name in COEFFS
        for arity in (1, 2)
    ]


@pytest.mark.parametrize("order", [CAP, 1])
@pytest.mark.parametrize("name,arity", _algebras())
def test_series_inverse_matches_reference(name, arity, order):
    alg = COEFFS[name]
    field, size = _field_and_size(alg)
    ref, rng = Ref(field), Random(f"inverse {name} {arity} {order}")
    salg = SeriesAlgebra(alg, arity, CAP)
    grids = _invertible_grids(ref, field, size, order, arity, rng)
    (s,), = _series_grid(salg, grids, 1, 1, [[order]])
    got = series_inverse(s)
    assert got.valid_order == order
    expected = _ref_inverse(ref, arity, order, grids)
    assert _flat_keys(salg, [[got]]) == _ref_keys(field, expected)


@pytest.mark.parametrize("name,arity", _algebras())
def test_matrix_inverse_matches_reference(name, arity):
    """A 2 x 2 matrix of series with unequal valid orders, inverted in place."""
    alg = COEFFS[name]
    field, size = _field_and_size(alg)
    ref, rng = Ref(field), Random(f"matrix {name} {arity}")
    salg = SeriesAlgebra(alg, arity, CAP)
    orders = [[CAP, CAP - 1], [CAP, CAP]]
    grids = _invertible_grids(ref, field, 2 * size, CAP, arity, rng)
    m = SquareMatrix(MatrixAlgebra(salg, 2), _series_grid(salg, grids, 2, 2, orders))
    got = m.inverse()
    assert {x.valid_order for row in got.rows for x in row} == {CAP - 1}
    count = len(_exponents(arity, CAP - 1))
    expected = _ref_inverse(ref, arity, CAP - 1, grids[:count])
    assert _flat_keys(salg, got.rows) == _ref_keys(field, expected)


def _solve_cases():
    """Every algebra and arity with W of 1 x 1 and 3 x 3 series.  Over QQ
    and QQ(i) the sympy reference is kept to flattened sizes of at most 6 (4
    at arity 2); the integer reference over GF(p) runs every size."""
    return [
        pytest.param(name, arity, n_modes, id=f"{name}-arity{arity}-N{n_modes}")
        for name, alg in COEFFS.items()
        for arity in (1, 2)
        for n_modes in (1, 3)
        if _field_and_size(alg)[0] == GFP
        or n_modes * _field_and_size(alg)[1] <= (6 if arity == 1 else 4)
    ]


@pytest.mark.parametrize("name,arity,n_modes", _solve_cases())
def test_row_solve_matches_reference(name, arity, n_modes):
    """x * W = y for an n_modes x n_modes W, with y of a lower valid order."""
    alg = COEFFS[name]
    field, size = _field_and_size(alg)
    ref, rng = Ref(field), Random(f"solve {name} {arity} {n_modes}")
    salg = SeriesAlgebra(alg, arity, CAP)
    order = CAP - 1
    count = len(_exponents(arity, order))
    w_grids = _invertible_grids(ref, field, n_modes * size, CAP, arity, rng)
    y_grids = _draw_grids(field, size, n_modes * size, count, rng)
    orders = [[CAP] * n_modes] * n_modes
    w = SquareMatrix(MatrixAlgebra(salg, n_modes),
                     _series_grid(salg, w_grids, n_modes, n_modes, orders))
    (y,) = _series_grid(salg, y_grids, 1, n_modes, [[order] * n_modes])
    got = salg.row_solve(y, w)
    assert [x.valid_order for x in got] == [order] * n_modes
    w_inv = _ref_inverse(ref, arity, order, w_grids[:count])
    expected = _ref_product(ref, arity, order, y_grids, w_inv)
    assert _flat_keys(salg, [got]) == _ref_keys(field, expected)


@pytest.mark.parametrize("name,arity", _algebras())
def test_singular_constant_term_raises(name, arity):
    """A constant term with two equal rows: every division raises."""
    alg = COEFFS[name]
    field, size = _field_and_size(alg)
    rng = Random(f"singular {name} {arity}")
    salg = SeriesAlgebra(alg, arity, CAP)
    grids = _draw_grids(field, 2 * size, 2 * size, len(_exponents(arity, CAP)), rng)
    grids[0][-1] = list(grids[0][0])
    m = SquareMatrix(MatrixAlgebra(salg, 2),
                     _series_grid(salg, grids, 2, 2, [[CAP] * 2] * 2))
    with pytest.raises(SingularConstantTerm):
        m.inverse()
    with pytest.raises(SingularConstantTerm):
        salg.row_solve(m.rows[0], m)
    grids = _draw_grids(field, size, size, len(_exponents(arity, CAP)), rng)
    grids[0] = [[0] * size for _ in range(size)]
    (s,), = _series_grid(salg, grids, 1, 1, [[CAP]])
    with pytest.raises(SingularConstantTerm):
        series_inverse(s)


# -- the right division's own output: lowest terms at every index -----------


def _recorded_divisions(monkeypatch):
    """Every (Z, dens) that the right division kernel returns, in call order."""
    calls = []
    divide = series._divide

    def recorded(*args):
        out = divide(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(series, "_divide", recorded)
    return calls


def _quotient_keys(field, z, dens):
    """Per index, the grid of keys of x_E = Z_E / dens[E], each channel read
    as a Fraction of plain ints (a residue over GF(p), where dens[E] = 1)."""
    def key(entry, k):
        values = [ch[k] if ch else 0 for ch in entry]
        if field == GFP:
            return values[0]
        parts = [Fraction(v, dens[k]) for v in values]
        return tuple(n for f in parts for n in (f.numerator, f.denominator))

    return [[[key(e, k) for e in row] for row in z] for k in range(len(dens))]


def _division_case(field, kind, arity, rng, grids=None):
    """A quotient y / a of single series (``kind`` "series") or a row solve
    x * W = y for N = 2 modes over Mat(2, field) ("row"), both y and a
    drawn with denominators: (the reference grids of a and y, run)."""
    alg = field if kind == "series" else MatrixAlgebra(field, 2)
    size = _field_and_size(alg)[1]
    n_modes = 1 if kind == "series" else 2
    salg = SeriesAlgebra(alg, arity, CAP)
    count = len(_exponents(arity, CAP))
    if grids is None:
        ref = Ref(field)
        grids = (_invertible_grids(ref, field, n_modes * size, CAP, arity, rng),
                 _draw_grids(field, size, n_modes * size, count, rng))
    a_grids, y_grids = grids
    a = _series_grid(salg, a_grids, n_modes, n_modes, [[CAP] * n_modes] * n_modes)
    (y,) = _series_grid(salg, y_grids, 1, n_modes, [[CAP] * n_modes])
    if kind == "series":
        return grids, lambda: y[0] / a[0][0]
    w = SquareMatrix(MatrixAlgebra(salg, n_modes), a)
    return grids, lambda: salg.row_solve(y, w)


@pytest.mark.parametrize("kind", ["series", "row"])
@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("field", [QQ, QQI], ids=["QQ", "QQi"])
def test_right_division_comes_out_in_lowest_terms(field, arity, kind, monkeypatch):
    """The (Z, dens) of the division kernel: at every index the denominator
    is positive and shares no factor with all the numerators there, and
    Z_E / dens[E] is the reference quotient y * a^-1."""
    rng = Random(f"lowest {field!r} {arity} {kind}")
    (a_grids, y_grids), run = _division_case(field, kind, arity, rng)
    calls = _recorded_divisions(monkeypatch)
    run()
    ((z, dens),) = calls
    assert len(dens) == len(_exponents(arity, CAP))
    for k, den in enumerate(dens):
        values = [ch[k] for row in z for e in row for ch in e if ch]
        assert den > 0 and gcd(den, *values) == 1, k
    ref = Ref(field)
    expected = _ref_product(ref, arity, CAP, y_grids, _ref_inverse(ref, arity, CAP, a_grids))
    assert _quotient_keys(field, z, dens) == _ref_keys(field, expected)


def _residues(grids):
    """Reference grids of rationals reduced mod p, in plain ints."""
    fractions = [[[sympy.Rational(v) for v in row] for row in g] for g in grids]
    return [[[int(v.p) * pow(int(v.q), -1, PRIME) % PRIME for v in row] for row in g]
            for g in fractions]


@pytest.mark.parametrize("kind", ["series", "row"])
@pytest.mark.parametrize("arity", [1, 2])
def test_gfp_division_is_the_rational_quotient_mod_p(arity, kind, monkeypatch):
    """One division loop serves every field: over GF(p), from the same draws
    reduced mod p, every denominator is 1 and every numerator is the
    residue of the QQ quotient's Z_E / dens[E]."""
    rng = Random(f"mod p {arity} {kind}")
    calls = _recorded_divisions(monkeypatch)
    grids, run = _division_case(QQ, kind, arity, rng)
    run()
    _, run = _division_case(GFP, kind, arity, rng, [_residues(g) for g in grids])
    run()
    (z, dens), (z_p, dens_p) = calls
    assert set(dens_p) == {1}
    for row, row_p in zip(z, z_p):
        for e, e_p in zip(row, row_p):
            for ch, ch_p in zip(e, e_p):
                got = list(ch_p or [0] * len(dens))
                assert all(0 <= v < PRIME for v in got)
                assert got == [v * pow(d, -1, PRIME) % PRIME
                               for v, d in zip(ch or [0] * len(dens), dens)]

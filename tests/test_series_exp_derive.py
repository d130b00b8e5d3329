"""Integer exponentials and derivatives against formulas over the coefficient
algebra's own ``*`` and ``+``.

``series_exp_linear`` is compared with cu^m * cv^n / (m! n!), formed as a
product of m factors cu and n factors cv times the embedded scalar
1/(m! n!), and ``series_derive`` with k * (scale * x), formed as k copies of
scale * x added up.  Neither reference lifts to integers.  The row form
``series_exp_row`` is compared with ``row_times`` of the row and each
coefficient of ``series_exp_linear``.  Every scalar type
is canonical (lowest-terms fractions, residues in [0, p)), so the kernels
must agree exactly, coefficient by coefficient.
"""

from fractions import Fraction
from math import factorial
from random import Random

import pytest

from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix, row_times
from solitonlab.errors import AlgebraMismatch, NoncommutingExponents
from solitonlab.scalars import GAUSSIAN_I, PRIME, GaussianRational, Residue
from solitonlab.series import (
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    _count_below,
    series_derive,
    series_exp_linear,
    series_exp_row,
)

CAP = 6
COEFFS = {
    "QQ": QQ,
    "QQi": QQI,
    "GFp": GFP,
    "Mat1-QQ": MatrixAlgebra(QQ, 1),
    "Mat2-QQi": MatrixAlgebra(QQI, 2),
    "Mat2-Mat2-QQ": MatrixAlgebra(MatrixAlgebra(QQ, 2), 2),
}
SCALES = {"1": 1, "-1": -1, "i": GAUSSIAN_I, "3/2": Fraction(3, 2)}
# denominators with distinct prime factors, so the lcm differs from each one
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 16, 27, 1001)
RESIDUES = (0, 1, 2, PRIME - 1, PRIME - 2)


def _field(alg):
    while isinstance(alg, MatrixAlgebra):
        alg = alg.base
    return alg


def _element(alg, rng):
    if isinstance(alg, MatrixAlgebra):
        return SquareMatrix(alg, [[_element(alg.base, rng) for _ in range(alg.dim)]
                                  for _ in range(alg.dim)])
    if rng.random() < 0.2:
        return alg.zero()
    if alg == GFP:
        return Residue(rng.choice(RESIDUES + (rng.randrange(PRIME),)))

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))

    return GaussianRational(rational(), rational()) if alg == QQI else rational()


def _series(salg, valid_order, rng):
    coeffs = [_element(salg.coeff, rng) for _ in range(_count_below(salg.arity, valid_order))]
    return TruncatedSeries(salg, coeffs, valid_order)


def _power(alg, x, k):
    out = alg.one()
    for _ in range(k):
        out = out * x
    return out


def _exp_reference(alg, cs, cap):
    """cu^m * cv^n / (m! n!) at every exponent of total degree < cap."""
    out = []
    for e in SeriesAlgebra(alg, len(cs), cap).exponents:
        term = alg.one()
        for c, k in zip(cs, e):
            term = term * _power(alg, c, k)
        weight = 1
        for k in e:
            weight *= factorial(k)
        out.append(term * alg.coerce(Fraction(1, weight)))
    return tuple(out)


def _derive_reference(s, d, axis):
    """k * (scale * x) for the source x at E + e_axis of every E below
    valid_order - 1, the k copies added up."""
    alg = s.algebra.coeff
    scale = alg.coerce(d.scale)
    out = []
    for e in s.algebra.exponents[:_count_below(s.algebra.arity, s.valid_order - 1)]:
        source = tuple(k + (i == axis) for i, k in enumerate(e))
        term = scale * s.coeff(source)
        total = alg.zero()
        for _ in range(e[axis] + 1):
            total = total + term
        out.append(total)
    return tuple(out)


def _cases():
    return [
        pytest.param(name, arity, id=f"{name}-arity{arity}")
        for name in COEFFS
        for arity in (1, 2)
    ]


@pytest.mark.parametrize("name,arity", _cases())
def test_exp_linear_matches_reference(name, arity):
    alg = COEFFS[name]
    rng = Random(f"exp {name} {arity}")
    for cu in (_element(alg, rng), alg.zero(), alg.one()):
        # cv a polynomial in cu, so the pair commutes
        cs = [cu] if arity == 1 else [cu, cu * cu + cu * alg.coerce(-2) + alg.one()]
        got = series_exp_linear(cs[0], cs[1] if arity == 2 else None, CAP, alg)
        assert got.algebra == SeriesAlgebra(alg, arity, CAP)
        assert got.valid_order == CAP
        assert got.coeffs == _exp_reference(alg, cs, CAP)


@pytest.mark.parametrize("name", ["Mat2-QQi", "Mat2-Mat2-QQ"])
def test_exp_linear_rejects_noncommuting_pair(name):
    alg = COEFFS[name]
    rng = Random(f"noncommuting {name}")
    cu, cv = _element(alg, rng), _element(alg, rng)
    assert cu * cv != cv * cu
    with pytest.raises(NoncommutingExponents):
        series_exp_linear(cu, cv, CAP, alg)


def _derive_cases():
    """Every algebra, arity and valid order with each scale of its field:
    i only over QQ(i)."""
    return [
        pytest.param(name, arity, order, scale, id=f"{name}-arity{arity}-vo{order}-{scale}")
        for name, alg in COEFFS.items()
        for arity in (1, 2)
        for order in (CAP, 1)
        for scale in SCALES
        if scale != "i" or _field(alg) == QQI
    ]


@pytest.mark.parametrize("name,arity,valid_order,scale", _derive_cases())
def test_derive_matches_reference(name, arity, valid_order, scale):
    alg = COEFFS[name]
    rng = Random(f"derive {name} {arity} {valid_order} {scale}")
    salg = SeriesAlgebra(alg, arity, CAP)
    s = _series(salg, valid_order, rng)
    for axis, var in enumerate("t" if arity == 1 else "uv"):
        d = Derivation(var, SCALES[scale])
        got = series_derive(s, d)
        assert got.valid_order == valid_order - 1
        assert got.coeffs == _derive_reference(s, d, axis)


# the entry algebras of Toda's rows: the three fields, and r = 2 blocks
ROW_ENTRIES = {"QQ": QQ, "QQi": QQI, "GFp": GFP, "Mat2-QQ": MatrixAlgebra(QQ, 2)}


def _rows(base, n, rng):
    """A row with random entries, the same row with one entry zeroed, and
    a zero row."""
    row = [_element(base, rng) for _ in range(n)]
    return [row, row[:-1] + [base.zero()], [base.zero()] * n]


@pytest.mark.parametrize("name", sorted(ROW_ENTRIES))
@pytest.mark.parametrize("arity", (1, 2))
def test_exp_row_matches_row_times_of_exp_linear(name, arity):
    base = ROW_ENTRIES[name]
    rng = Random(f"exp row {name} {arity}")
    for n in (1, 3):
        alg = MatrixAlgebra(base, n)
        cu = _element(alg, rng)
        # cv a polynomial in cu, so the pair commutes
        cv = None if arity == 1 else cu * cu + cu * alg.coerce(3) + alg.one()
        exp = series_exp_linear(cu, cv, CAP, alg)
        for row in _rows(base, n, rng):
            got = series_exp_row(row, cu, cv, CAP, alg)
            expected = zip(*(row_times(row, c) for c in exp.coeffs))
            assert len(got) == n
            for series, coeffs in zip(got, expected):
                assert series.algebra == SeriesAlgebra(base, arity, CAP)
                assert series.valid_order == CAP
                assert series.coeffs == coeffs


@pytest.mark.parametrize("name", sorted(ROW_ENTRIES))
def test_exp_row_rejects_noncommuting_pair_and_wrong_width(name):
    base = ROW_ENTRIES[name]
    alg = MatrixAlgebra(base, 3)
    rng = Random(f"exp row noncommuting {name}")
    cu, cv = _element(alg, rng), _element(alg, rng)
    assert cu * cv != cv * cu
    row = [_element(base, rng) for _ in range(3)]
    with pytest.raises(NoncommutingExponents):
        series_exp_row(row, cu, cv, CAP, alg)
    with pytest.raises(AlgebraMismatch):
        series_exp_row(row[:2], cu, None, CAP, alg)

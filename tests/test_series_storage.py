"""A series stores exactly its trusted coefficients, as integer numerators
over one reduced denominator per coefficient, and nothing is decided from a
series that trusts none."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import with_coeff
from solitonlab import series
from solitonlab.algebra import (
    GFP,
    QQ,
    QQI,
    MatrixAlgebra,
    SquareMatrix,
    _field_and_dim,
    _flatten,
    _from_grid,
    _scalar_grid,
)
from solitonlab.errors import AlgebraMismatch
from solitonlab.scalars import GaussianRational, Residue
from solitonlab.series import (
    D_T,
    D_U,
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    _count_below,
    series_derive,
    series_exp_linear,
    series_inverse,
)

CAP = 6
COEFFS = {
    "QQ": QQ,
    "QQi": QQI,
    "Mat2-QQ": MatrixAlgebra(QQ, 2),
    "GFp": GFP,
    "Mat2-QQi": MatrixAlgebra(QQI, 2),
    "Mat2-Mat2-QQ": MatrixAlgebra(MatrixAlgebra(QQ, 2), 2),
}


def _algebras():
    return [
        pytest.param(SeriesAlgebra(alg, arity, CAP), id=f"{name}-arity{arity}")
        for name, alg in COEFFS.items()
        for arity in (1, 2)
    ]


def _x(salg):
    """The first-degree monomial exponent of the first variable."""
    return (1,) + (0,) * (salg.arity - 1)


def _pair(salg):
    """An invertible series at order CAP and one at order 4."""
    x = _x(salg)
    a = salg.one() + salg.monomial(x, 2)
    b = (a * a + salg.monomial(tuple(2 * k for k in x), 5)).with_valid_order(4)
    return a, b


def _derivation(salg):
    return D_T if salg.arity == 1 else D_U


def _produced(salg):
    """One series from every producer, over ``salg``."""
    x = _x(salg)
    d = _derivation(salg)
    c = salg.coeff.coerce(3)
    a, b = _pair(salg)
    m = SquareMatrix(MatrixAlgebra(salg, 2), [[a, b], [salg.monomial(x), a]])
    out = {
        "constant": salg.constant(7),
        "constant-low": salg.constant(7, valid_order=2),
        "monomial": salg.monomial(x, 5, valid_order=3),
        "monomial-above-order": salg.monomial(x, 5, valid_order=1),
        "sum": a + b,
        "difference": a - b,
        "negation": -b,
        "scale_left": b.scale_left(c),
        "scale_right": b.scale_right(c),
        "scalar_mul": salg.scalar_mul(Fraction(1, 3), b),
        "derive": series_derive(b, d),
        "derive-full": a.derive(d),
        "product": a * b,
        "inverse": series_inverse(b),
        "with_valid_order": a.with_valid_order(2),
        "with_coeff": with_coeff(b, x, 9),
        "exp_linear": series_exp_linear(
            salg.coeff.one(), None if salg.arity == 1 else salg.coeff.one(),
            CAP, algebra=salg.coeff,
        ),
    }
    for i, row in enumerate(m.inverse().rows):
        for j, s in enumerate(row):
            out[f"matrix_inverse[{i}][{j}]"] = s
    for j, s in enumerate(salg.row_solve((a, b), m)):
        out[f"row_solve[{j}]"] = s
    return out


@pytest.mark.parametrize("salg", _algebras())
def test_every_producer_stores_exactly_the_trusted_prefix(salg):
    produced = _produced(salg)
    for name, s in produced.items():
        assert len(s.coeffs) == _count_below(salg.arity, s.valid_order), name
    # the cases cover several orders, the full cap included
    assert {s.valid_order for s in produced.values()} >= {1, 2, 3, 4, 5, CAP}
    # the derivative of b (order 4) keeps only degrees below 3
    assert produced["derive"].valid_order == 3
    assert produced["monomial-above-order"].is_zero()


@pytest.mark.parametrize("salg", _algebras())
def test_constructor_rejects_storage_beyond_or_short_of_the_order(salg):
    zero = salg.coeff.zero()
    trusted = _count_below(salg.arity, 3)
    assert TruncatedSeries(salg, [zero] * trusted, 3).is_zero()
    for wrong in (trusted - 1, trusted + 1, len(salg.exponents)):
        with pytest.raises(AlgebraMismatch):
            TruncatedSeries(salg, [zero] * wrong, 3)
    with pytest.raises(ValueError):
        TruncatedSeries(salg, [zero] * len(salg.exponents), CAP + 1)


@pytest.mark.parametrize("salg", _algebras())
def test_positions_and_orders_at_or_above_valid_order_are_rejected(salg):
    a, b = _pair(salg)
    x = _x(salg)
    top = tuple(3 * k for k in x)  # degree 3: stored in a, trusted there
    assert a.with_valid_order(4).coeff(top) == salg.coeff.zero()
    low = a.with_valid_order(3)
    for exponent in (top, tuple(CAP * k for k in x)):
        with pytest.raises(ValueError):
            low.coeff(exponent)
        with pytest.raises(ValueError):
            with_coeff(low, exponent, 1)
    for order in (4, CAP, CAP + 1):
        with pytest.raises(ValueError):
            low.with_valid_order(order)
    with pytest.raises(ValueError):
        low.with_valid_order(-1)
    assert low.with_valid_order(3) == low


@pytest.mark.parametrize("salg", _algebras())
def test_nothing_trusted_nothing_decided(salg):
    a, b = _pair(salg)
    void = a.with_valid_order(0)
    assert void.coeffs == ()
    for act in (lambda: series_inverse(void), lambda: void.derive(_derivation(salg))):
        with pytest.raises(ValueError):
            act()
    mat = MatrixAlgebra(salg, 2)
    with pytest.raises(ValueError):
        SquareMatrix(mat, [[a, void], [salg.zero(), a]]).inverse()
    m = SquareMatrix(mat, [[a, b], [salg.zero(), a]])
    with pytest.raises(ValueError):
        salg.row_solve((a, void), m)
    with pytest.raises(ValueError):
        salg.row_solve((a, b), SquareMatrix(mat, [[void, b], [salg.zero(), a]]))
    # one trusted coefficient is enough to decide
    assert series_inverse(a.with_valid_order(1)).valid_order == 1


@pytest.mark.parametrize("salg", _algebras())
def test_the_coefficient_view_rebuilds_the_same_series(salg):
    for name, s in _produced(salg).items():
        again = TruncatedSeries(salg, s.coeffs, s.valid_order)
        assert again == s and again.valid_order == s.valid_order, name
        assert (again.nums, again.dens) == (s.nums, s.dens), name
        assert salg.format_element(again) == salg.format_element(s), name


@pytest.mark.parametrize("arity", [1, 2])
def test_series_arithmetic_builds_no_coefficient_matrix(arity, monkeypatch):
    """Over Mat(2, QQ(i)) the coefficients stay the kernels' grid of
    scalars: no operation on series builds a SquareMatrix."""
    mat = MatrixAlgebra(QQI, 2)
    salg = SeriesAlgebra(mat, arity, CAP)
    x = _x(salg)
    i = GaussianRational(0, 1)
    a = salg.one() + salg.monomial(x, mat.matrix([[1, i], [2, 0]]))
    b = salg.monomial(x, mat.matrix([[i, 0], [3, -1]])).with_valid_order(5) - a
    sign = mat.diagonal([1, -1])
    d = Derivation("t" if arity == 1 else "u", scale=i)
    built = []
    init = SquareMatrix.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SquareMatrix, "__init__", counted)
    results = [
        a + b, a - b, -a, a.scale_left(sign), b.scale_right(sign),
        a * b, b / a, a.derive(d), b.with_valid_order(3),
    ]
    assert (a - a).is_zero() and not b.is_zero()
    assert a == a and not a == b
    assert built == []
    monkeypatch.setattr(SquareMatrix, "__init__", init)
    # the same values as the coefficient by coefficient forms
    coeffs = [[x + y for x, y in zip(a.coeffs, b.coeffs)],
              [x - y for x, y in zip(a.coeffs, b.coeffs)],
              [-x for x in a.coeffs],
              [sign * x for x in a.coeffs],
              [x * sign for x in b.coeffs]]
    for got, want in zip(results, coeffs):
        assert list(got.coeffs) == want
    assert results[6] * a == b


def _channel_values(x):
    """A field scalar as the rationals (or residues) of its channels."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (x.v,) if isinstance(x, Residue) else (Fraction(x),)


@pytest.mark.parametrize("salg", _algebras())
def test_every_produced_series_is_reduced_per_index(salg):
    """Each index holds the least common denominator of its scalars: the
    denominator is positive and shares no factor with the numerators, a zero
    index has denominator 1, and over GF(p) every denominator is 1 and every
    numerator a residue; a channel all zero is stored as None."""
    modulus = _field_and_dim(salg.coeff)[0].modulus
    for name, s in _produced(salg).items():
        n = _count_below(salg.arity, s.valid_order)
        chans = [ch for row in s.nums for e in row for ch in e]
        assert len(s.dens) == n, name
        assert all(ch is None or (len(ch) == n and any(ch)) for ch in chans), name
        for k, den in enumerate(s.dens):
            values = [ch[k] for ch in chans if ch is not None]
            assert den > 0 and gcd(den, *values) == 1, (name, k)
            if not any(values):
                assert den == 1, (name, k)
            if modulus:
                assert den == 1 and all(0 <= v < modulus for v in values), (name, k)


@pytest.mark.parametrize("salg", _algebras())
def test_a_channel_zero_on_the_shared_prefix_compares_equal(salg):
    """A channel that is zero below order 3 but not at it is stored as
    numerators in the series and as None in its cut, and the two compare
    equal on their shared prefix; so do a series and one that differs from
    it only at or above the lesser order."""
    x = _x(salg)
    cube = tuple(3 * k for k in x)
    field, r = _field_and_dim(salg.coeff)
    # one off-diagonal scalar, over QQ(i) its imaginary part; with one
    # channel in all (QQ, GF(p)) the series is zero below order 3
    c = GaussianRational(0, 5) if field == QQI else field.coerce(5)
    c = _from_grid(salg.coeff, [[c if (i, j) == (0, r - 1) else field.zero()
                                 for j in range(r)] for i in range(r)]) if r > 1 else c
    base = salg.one() if r > 1 or field == QQI else salg.zero()
    a = base + salg.monomial(cube, c)
    cut = a.with_valid_order(3)
    stored = [ch for row in a.nums for e in row for ch in e]
    kept = [ch for row in cut.nums for e in row for ch in e]
    assert any(x is not None and y is None for x, y in zip(stored, kept))
    assert a == cut and cut == a and a.with_valid_order(3) == cut
    assert (a - cut).is_zero() and not (a - base).is_zero()
    other = base + salg.monomial(cube, salg.coeff.coerce(2))
    assert other == cut and other != a and other.with_valid_order(3) == a


def _expected_lift(cuts):
    """(D, grid) that a kernel must receive for rows of (series, n) pairs,
    from the coefficients: D is the lcm of the reduced denominators of every
    scalar read, and each channel lists D times its values (None if all 0)."""
    grids = [[([_scalar_grid(s.algebra.coeff, c) for c in s.coeffs[:n]], n) for s, n in row]
             for row in cuts]
    den = lcm(*[Fraction(v).denominator for row in grids for gs, _ in row for g in gs
                for grid_row in g for x in grid_row for v in _channel_values(x)])
    blocks = []
    for row in grids:
        brow = []
        for gs, n in row:
            r = len(gs[0]) if gs else 0
            block = []
            for a in range(r):
                out = []
                for b in range(r):
                    chans = zip(*[_channel_values(g[a][b]) for g in gs])
                    out.append([_numerator_tuple(vs, den) for vs in chans])
                block.append(out)
            brow.append(block)
        blocks.append(brow)
    return den, _flatten(blocks)


def _numerator_tuple(values, den):
    nums = tuple(int(Fraction(v) * den) for v in values)
    return nums if any(nums) else None


@pytest.mark.parametrize("salg", _algebras())
def test_kernels_receive_the_least_common_denominator_of_their_cut(salg, monkeypatch):
    """Every integer grid a kernel reads is D times the values it stands
    for, with D the lcm of the reduced denominators of the coefficients it
    reads: no stored form inflates the heights the kernels see."""
    calls = []
    lift = series._lift

    def recorded(cuts):
        out = lift(cuts)
        calls.append((cuts, out))
        return out

    monkeypatch.setattr(series, "_lift", recorded)
    _produced(salg)
    # denominators that differ between the prefix a kernel reads and the rest
    x = _x(salg)
    a = salg.one() + salg.monomial(x, Fraction(1, 2)) + salg.monomial(
        tuple(4 * k for k in x), Fraction(1, 7))
    b = (salg.one() + salg.monomial(x, Fraction(1, 3))).with_valid_order(3)
    m = SquareMatrix(MatrixAlgebra(salg, 2), [[a, b], [salg.zero(), a]])
    a * b, b / a, salg.row_solve((b, a), m)
    salg.matmul([[a, b]], [[b], [a.with_valid_order(3)]])
    assert calls
    for cuts, (den, grid) in calls:
        want_den, want = _expected_lift(cuts)
        assert den == want_den
        got = [[[None if ch is None else tuple(ch) for ch in e] for e in row] for row in grid]
        assert got == want


@pytest.mark.parametrize("arity", [1, 2])
def test_series_arithmetic_builds_no_field_scalar(arity, monkeypatch):
    """Over Mat(2, QQ(i)) sums, negation, selections, products, quotients,
    derivatives and comparisons work on the stored integers: none builds a
    GaussianRational or a Fraction."""
    mat = MatrixAlgebra(QQI, 2)
    salg = SeriesAlgebra(mat, arity, CAP)
    x = _x(salg)
    i = GaussianRational(0, 1)
    a = salg.one() + salg.monomial(x, mat.matrix([[1, i], [Fraction(2, 3), 0]]))
    b = salg.monomial(x, mat.matrix([[i, 0], [3, -1]])).with_valid_order(5) - a
    sign = mat.diagonal([1, -1])
    d = Derivation("t" if arity == 1 else "u", scale=i)
    built = []
    gaussian_init, fraction_new = GaussianRational.__init__, Fraction.__new__

    def counted_gaussian(self, *args):
        built.append(("GaussianRational", args))
        gaussian_init(self, *args)

    def counted_fraction(cls, *args, **kwargs):
        built.append(("Fraction", args))
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(GaussianRational, "__init__", counted_gaussian)
    monkeypatch.setattr(Fraction, "__new__", counted_fraction)
    results = [a + b, a - b, -a, a.scale_left(sign), b.scale_right(sign),
               a * b, b / a, a.derive(d)]
    assert (a - a).is_zero() and not b.is_zero()
    assert a == a and not a == b and results[6] * a == b
    monkeypatch.undo()
    assert built == []
    # the same values as the coefficient by coefficient forms
    coeffs = [[x + y for x, y in zip(a.coeffs, b.coeffs)],
              [x - y for x, y in zip(a.coeffs, b.coeffs)],
              [-x for x in a.coeffs],
              [sign * x for x in a.coeffs],
              [x * sign for x in b.coeffs]]
    for got, want in zip(results, coeffs):
        assert list(got.coeffs) == want

"""A series stores exactly its trusted coefficients, and nothing is decided
from a series that trusts none."""

from fractions import Fraction

import pytest

from conftest import with_coeff
from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix
from solitonlab.errors import AlgebraMismatch
from solitonlab.scalars import GaussianRational
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
        assert again.grid == s.grid, name
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

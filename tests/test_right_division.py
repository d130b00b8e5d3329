"""Right division x / y against the product x * y^-1 it replaces.

``TruncatedSeries.__truediv__`` and ``SquareMatrix.__truediv__`` (through
``SeriesAlgebra.matrix_divide``) must give every coefficient and every valid
order that x * y^-1 gives, over QQ, QQ(i), GF(p) and Mat(2, QQ) in one and
two variables, for numerators whose rows keep different orders too.
"""

from fractions import Fraction
from random import Random

import pytest

from conftest import with_coeff
from test_order_cuts import (
    CAP,
    CASE_IDS,
    CASES,
    assert_same,
    derivations,
    rand_cell,
    rand_series,
    rand_wronski,
)
from solitonlab import series
from solitonlab.algebra import QQ, MatrixAlgebra, SquareMatrix, random_invertible
from solitonlab.errors import NonInvertibleSolution, SingularConstantTerm
from solitonlab.residual import _invert_or_raise
from solitonlab.series import SeriesAlgebra


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_series_division_equals_the_product_with_the_inverse(coeff, arity):
    rng = Random(31)
    salg = SeriesAlgebra(coeff, arity, CAP)
    for x_order, y_order in ((7, 7), (7, 4), (3, 6), (1, 7)):
        x = rand_series(salg, rng, x_order)
        y = rand_series(salg, rng, y_order, invertible=True)
        assert_same(x / y, x * y.inverse())
    # a coefficient divides as a constant series trusted through cap
    c = random_invertible(coeff, rng)
    assert_same(x / c, x * salg.constant(c).inverse())


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_matrix_division_equals_the_product_with_the_inverse(coeff, arity):
    rng = Random(32)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d = derivations(arity)[1]
    wp = rand_wronski(salg, rng, [7, 6], d)
    cell = rand_cell(salg, rng, [7, 7])
    short = rand_cell(salg, rng, [5, 7])
    # dW's rows keep orders 5 and 4 and W's 6 and 5; the cells keep cap in
    # their top row, so dividing dW by a cell solves each row apart
    assert [min(s.valid_order for s in row) for row in wp.dW.rows] == [5, 4]
    for x, y in ((wp.dW, wp.W), (wp.dW, cell), (short, wp.W), (wp.W, short),
                 (cell, cell)):
        assert_same(x / y, x * y.inverse())


def test_matrix_division_over_three_modes_and_a_field():
    rng = Random(33)
    salg = SeriesAlgebra(QQ, 2, CAP)
    wp = rand_wronski(salg, rng, [7, 7, 6], derivations(2)[1])
    assert_same(wp.dW / wp.W, wp.dW * wp.W.inverse())
    m2 = MatrixAlgebra(QQ, 2)
    x, y = m2.matrix([[1, 2], [3, 4]]), m2.matrix([[2, 1], [1, 1]])
    assert x / y == m2.matrix([[-1, 3], [-1, 5]]) == x * y.inverse()


def test_division_makes_no_inverse_and_no_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("division formed an inverse or a product")

    rng = Random(34)
    salg = SeriesAlgebra(MatrixAlgebra(QQ, 2), 2, CAP)
    x, y = rand_series(salg, rng, 6), rand_series(salg, rng, 7, invertible=True)
    wp = rand_wronski(salg, rng, [7, 6], derivations(2)[1])
    for name in ("series_inverse", "_product"):
        monkeypatch.setattr(series, name, forbidden)
    monkeypatch.setattr(SeriesAlgebra, "matrix_inverse", forbidden)
    x / y
    wp.dW / wp.W


def _singular_constant(s):
    return with_coeff(s, (0,) * s.algebra.arity, s.algebra.coeff.zero())


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_division_by_a_singular_constant_term_raises(coeff, arity):
    rng = Random(35)
    salg = SeriesAlgebra(coeff, arity, CAP)
    x = rand_series(salg, rng, CAP)
    y = _singular_constant(rand_series(salg, rng, CAP, invertible=True))
    with pytest.raises(SingularConstantTerm):
        x / y
    m = rand_cell(salg, rng, [CAP, CAP])
    singular = SquareMatrix(m.algebra, [m.rows[0], [_singular_constant(s) for s in m.rows[1]]])
    with pytest.raises(SingularConstantTerm):
        m / singular


def test_a_singular_divisor_names_its_site():
    salg = SeriesAlgebra(QQ, 1, CAP)
    m = MatrixAlgebra(salg, 1).matrix([[salg.monomial((1,), Fraction(2))]])
    with pytest.raises(NonInvertibleSolution) as info:
        _invert_or_raise(m, 4, m)
    assert info.value.site == 4

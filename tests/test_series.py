from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.algebra import QQ, QQI, MatrixAlgebra, SquareMatrix, random_invertible
from solitonlab.errors import (
    AlgebraMismatch,
    DerivationMismatch,
    NoncommutingExponents,
    SingularConstantTerm,
    SingularMatrix,
)
from solitonlab.scalars import GaussianRational
from solitonlab.series import (
    D_T,
    D_U,
    D_V,
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    series_equal,
    series_exp_linear,
    series_inverse,
)

CAP = 6
S = SeriesAlgebra(QQ, 2, CAP)
M2 = MatrixAlgebra(QQ, 2)
SM = SeriesAlgebra(M2, 2, CAP)

small_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=7)


def rational_series(salg=S):
    return st.builds(
        lambda coeffs: TruncatedSeries(salg, coeffs, salg.cap),
        st.lists(small_fractions, min_size=salg.size, max_size=salg.size),
    )


def test_one_minus_u_squared():
    one, u = S.one(), S.monomial((1, 0))
    assert (one + u) * (one - u) == one - u * u


def test_product_order_preserved():
    a = M2.matrix([[0, 1], [0, 0]])
    b = M2.matrix([[0, 0], [1, 0]])
    su = SM.monomial((1, 0), a)
    sv = SM.monomial((0, 1), b)
    assert (su * sv).coeff((1, 1)) == a * b
    assert (sv * su).coeff((1, 1)) == b * a
    assert a * b != b * a


@settings(max_examples=40, deadline=None)
@given(rational_series(), rational_series(), rational_series())
def test_distributive_and_associative(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_arity_mismatch():
    with pytest.raises(AlgebraMismatch):
        S.one() * SeriesAlgebra(QQ, 1, CAP).one()


def test_derive_monomial_and_constant():
    uv = S.monomial((1, 1))
    assert uv.derive(D_U) == S.monomial((0, 1), valid_order=CAP - 1)
    assert S.constant(Fraction(5)).derive(D_U).is_zero()


def test_derive_wrong_variable():
    with pytest.raises(DerivationMismatch):
        SeriesAlgebra(QQ, 1, CAP).one().derive(D_U)
    with pytest.raises(DerivationMismatch):
        S.one().derive(D_T)


def test_exp_linear_trivial_and_scalar_coefficients():
    assert series_exp_linear(Fraction(0), Fraction(0), CAP, algebra=QQ) == S.one()
    a = Fraction(2, 3)
    e = series_exp_linear(a, None, CAP, algebra=QQ)
    for k in range(CAP):
        assert e.coeff((k,)) == a**k / factorial(k)


def test_exp_linear_coefficient_table():
    # independent expansion oracle: coefficient at (m, n) is cu^m cv^n/(m! n!)
    rng = Random(3)
    cu = random_invertible(M2, rng)
    cv = cu * cu  # commutes with cu
    e = series_exp_linear(cu, cv, CAP, algebra=M2)
    for m, n in e.algebra.exponents:
        expected = M2.one()
        for _ in range(m):
            expected = expected * cu
        for _ in range(n):
            expected = expected * cv
        expected = M2.scalar_mul(Fraction(1, factorial(m) * factorial(n)), expected)
        assert e.coeff((m, n)) == expected


def test_exp_linear_derivative_identities():
    rng = Random(4)
    cu = random_invertible(M2, rng)
    cv = cu.inverse()
    e = series_exp_linear(cu, cv, CAP, algebra=M2)
    assert e.derive(D_U) == e.scale_right(cu)
    assert e.derive(D_V) == e.scale_right(cv)


def test_exp_linear_noncommuting_exponents_rejected():
    a = M2.matrix([[0, 1], [0, 0]])
    b = M2.matrix([[0, 0], [1, 0]])
    with pytest.raises(NoncommutingExponents):
        series_exp_linear(a, b, CAP, algebra=M2)


def test_exp_linear_float_mode_allowed():
    from solitonlab.algebra import CC

    e = series_exp_linear(complex(1.0), None, 4, algebra=CC)
    assert not e.algebra.is_exact
    assert abs(e.coeff((2,)) - 0.5) < 1e-15


def test_inverse_geometric():
    one, u = S.one(), S.monomial((1, 0))
    inv = series_inverse(one - u)
    for k in range(CAP):
        assert inv.coeff((k, 0)) == 1
    assert inv * (one - u) == one
    assert (one - u) * inv == one


def test_inverse_constant_matrix():
    c = M2.matrix([[1, 2], [3, 4]])
    inv = SM.constant(c).inverse()
    assert inv == SM.constant(c.inverse())


@settings(max_examples=30, deadline=None)
@given(rational_series())
def test_inverse_product_is_one(s):
    if s.coeff((0, 0)) == 0:
        with pytest.raises(SingularConstantTerm):
            s.inverse()
        return
    assert s * s.inverse() == S.one()
    assert s.inverse() * s == S.one()


@settings(max_examples=30, deadline=None)
@given(rational_series(), rational_series())
def test_leibniz_rule(a, b):
    for d in (D_U, D_V):
        lhs = (a * b).derive(d)
        rhs = a.derive(d) * b + a * b.derive(d)
        assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(rational_series())
def test_derivations_commute(s):
    assert s.derive(D_U).derive(D_V) == s.derive(D_V).derive(D_U)


@settings(max_examples=20, deadline=None)
@given(rational_series())
def test_inverse_derivative_identity(s):
    if s.coeff((0, 0)) == 0:
        return
    inv = s.inverse()
    for d in (D_U, D_V):
        assert inv.derive(d) == -(inv * s.derive(d) * inv)


def test_inverse_derivative_identity_matrix_of_series(rng):
    # same identity for an invertible matrix of series, entry by entry
    rows = []
    for i in range(2):
        rows.append(
            tuple(
                TruncatedSeries(
                    SeriesAlgebra(QQ, 2, CAP),
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                     for _ in range(S.size)],
                    CAP,
                )
                for _ in range(2)
            )
        )
    m = SquareMatrix(MatrixAlgebra(SeriesAlgebra(QQ, 2, CAP), 2), rows)
    try:
        inv = m.inverse()
    except SingularMatrix:
        pytest.skip("random matrix of series not invertible")
    lhs = inv.derive(D_U)
    rhs = -(inv * m.derive(D_U) * inv)
    assert lhs == rhs


def test_valid_order_bookkeeping():
    e = series_exp_linear(Fraction(1), Fraction(1), CAP, algebra=QQ)
    assert e.valid_order == CAP
    d = e.derive(D_U)
    assert d.valid_order == CAP - 1
    prod = d * e
    assert prod.valid_order == CAP - 1
    assert d.inverse().valid_order == CAP - 1
    assert (d + e).valid_order == CAP - 1
    # explicit re-truncation is the only way up
    assert d.with_valid_order(CAP).valid_order == CAP


def test_valid_order_gates_equality():
    one, u = S.one(), S.monomial((1, 0))
    low = (one + u).with_valid_order(1)
    assert series_equal(low, one)  # they agree below order 1
    assert not series_equal(one + u, one)


def test_series_are_unhashable():
    # equality ignores untrusted coefficients, so a hash over the stored ones
    # would put equal series into different set slots
    one, u = S.one(), S.monomial((1, 0))
    low = (one + u).with_valid_order(1)
    assert low == one
    with pytest.raises(TypeError):
        {low, one}


def test_scaled_derivation():
    i = GaussianRational(0, 1)
    si = SeriesAlgebra(QQI, 2, 4)
    u = si.monomial((1, 0))
    d0 = Derivation("u", scale=i)
    assert u.derive(d0) == si.constant(i, valid_order=3)


def test_scaled_derivation_commutes_with_plain_one():
    i = GaussianRational(0, 1)
    si = SeriesAlgebra(QQI, 2, 5)
    d0 = Derivation("u", scale=i)
    s = series_exp_linear(GaussianRational(1, 1), GaussianRational(2), 5,
                          algebra=QQI)
    assert s.derive(d0).derive(D_V) == s.derive(D_V).derive(d0)


def test_scaled_derivation_needs_matching_scalars():
    d0 = Derivation("u", scale=GaussianRational(0, 1))
    with pytest.raises(AlgebraMismatch):
        S.monomial((1, 0)).derive(d0)  # rational series cannot absorb i


def _block_series_matrix(rng, valid_orders, constants):
    """2x2 matrix of series over Mat(2, QQ): given constant terms, random rest."""
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            coeffs = [M2.matrix(constants[i][j])] + [
                M2.matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(2)] for _ in range(2)])
                for _ in range(SM.size - 1)
            ]
            row.append(TruncatedSeries(SM, coeffs, valid_orders[i][j]))
        rows.append(tuple(row))
    return SquareMatrix(MatrixAlgebra(SM, 2), tuple(rows))


def test_matrix_of_block_series_inverse(rng):
    # the constant term flattens to an invertible 4x4 matrix whose blocks
    # do not commute
    constants = [[[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                 [[[1, 0], [0, 0]], [[1, 0], [0, 1]]]]
    m = _block_series_matrix(rng, [[CAP, 4], [5, CAP - 1]], constants)
    inv = m.inverse()
    one = MatrixAlgebra(SM, 2).one()
    assert m * inv == one
    assert inv * m == one
    # the least entry order, so the identity above holds through degree < 4
    assert {x.valid_order for row in inv.rows for x in row} == {4}


def test_matrix_of_block_series_singular_constant(rng):
    # the flattened constant term has a zero second row
    constants = [[[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
                 [[[1, 0], [1, 0]], [[1, 0], [0, 1]]]]
    m = _block_series_matrix(rng, [[CAP] * 2] * 2, constants)
    with pytest.raises(SingularMatrix):
        m.inverse()


def test_evaluate_exact_point():
    e = series_exp_linear(Fraction(1), Fraction(2), 5, algebra=QQ)
    val = e.evaluate((Fraction(1, 2), Fraction(1, 4)))
    # direct sum over the same trusted exponents
    total = Fraction(0)
    for m, n in e.algebra.exponents:
        if m + n >= e.valid_order:
            continue
        total += (
            Fraction(1, factorial(m) * factorial(n))
            * 2**n
            * Fraction(1, 2) ** m
            * Fraction(1, 4) ** n
        )
    assert val == total


def test_with_coeff_replaces_one_coefficient():
    s = S.one().with_coeff((1, 1), Fraction(7))
    assert s.coeff((1, 1)) == 7
    assert s.coeff((0, 0)) == 1

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.algebra import (
    CC,
    QQ,
    QQI,
    MatrixAlgebra,
    SquareMatrix,
    random_invertible,
)
from solitonlab.errors import AlgebraMismatch, SingularMatrix

M2 = MatrixAlgebra(QQ, 2)
M3 = MatrixAlgebra(QQ, 3)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def matrices(alg):
    return st.builds(
        alg.matrix,
        st.lists(
            st.lists(small_fractions, min_size=alg.dim, max_size=alg.dim),
            min_size=alg.dim,
            max_size=alg.dim,
        ),
    )


def test_identity_multiplication():
    m = M2.matrix([[1, 2], [3, 4]])
    assert M2.one() * m == m
    assert m * M2.one() == m


def test_noncommutativity_witness():
    a = M2.matrix([[0, 1], [0, 0]])
    b = M2.matrix([[0, 0], [1, 0]])
    assert a * b == M2.matrix([[1, 0], [0, 0]])
    assert b * a == M2.matrix([[0, 0], [0, 1]])
    assert a * b != b * a


@settings(max_examples=30, deadline=None)
@given(matrices(M3), matrices(M3), matrices(M3))
def test_associativity_and_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_inverse_identity():
    assert M2.one().inverse() == M2.one()


def test_inverse_literal_example():
    m = M2.matrix([[1, 2], [3, 4]])
    inv = m.inverse()
    # the value itself, then the defining property
    assert inv == M2.matrix(
        [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
    )
    assert m * inv == M2.one()
    assert inv * m == M2.one()


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        M2.matrix([[1, 2], [2, 4]]).inverse()


def test_dimension_mismatch():
    with pytest.raises(AlgebraMismatch):
        M2.one() * M3.one()


@pytest.mark.parametrize("seed", range(6))
def test_inverse_roundtrip_random(seed):
    rng = Random(seed)
    for alg in (M2, M3, MatrixAlgebra(QQI, 2), MatrixAlgebra(M2, 2)):
        m = random_invertible(alg, rng)
        inv = m.inverse()
        assert m * inv == alg.one()
        assert inv * m == alg.one()


def test_three_level_nested_inverse_roundtrip(rng):
    # inversion flattens and re-nests one level per recursion step, down to
    # an 8x8 elimination over QQ; the product checks every level's layout
    nested = MatrixAlgebra(MatrixAlgebra(MatrixAlgebra(QQ, 2), 2), 2)
    m = random_invertible(nested, rng)
    inv = m.inverse()
    assert inv.algebra == nested
    assert m * inv == nested.one()
    assert inv * m == nested.one()


def test_gaussian_matrix_inverse(rng):
    alg = MatrixAlgebra(QQI, 3)
    m = random_invertible(alg, rng)
    assert m * m.inverse() == alg.one()


def test_complex_float_inverse(rng):
    alg = MatrixAlgebra(CC, 3)
    m = alg.matrix([[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for _ in range(3)] for _ in range(3)])
    prod = m * m.inverse()
    for i in range(3):
        for j in range(3):
            assert abs(prod.entry(i, j) - (1 if i == j else 0)) < 1e-9


def test_scalar_embedding_and_scalar_mul():
    m = M2.coerce(Fraction(3, 2))
    assert m == M2.matrix([[Fraction(3, 2), 0], [0, Fraction(3, 2)]])
    assert M2.scalar_mul(2, M2.one()) == M2.matrix([[2, 0], [0, 2]])


def test_immutability():
    m = M2.one()
    with pytest.raises(AttributeError):
        m.rows = ()


def test_format_element():
    enc = M2.format_element(M2.matrix([[1, Fraction(1, 2)], [0, 1]]))
    assert enc == [["1", "1/2"], ["0", "1"]]

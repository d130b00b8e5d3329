from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solitonlab.scalars import (
    GAUSSIAN_I,
    GaussianRational,
    format_gaussian,
    parse_gaussian,
    parse_rational,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_i_squared_is_minus_one():
    assert GAUSSIAN_I * GAUSSIAN_I == GaussianRational(-1)


def test_arithmetic():
    z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    w = GaussianRational(2, -1)
    assert z + w == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert z * w == GaussianRational(Fraction(7, 4), 1)
    assert (z / w) * w == z
    assert z.conjugate().conjugate() == z


def test_hash_agrees_with_equality_to_rationals():
    assert GaussianRational(1) == 1
    assert len({GaussianRational(1), 1}) == 1
    assert len({GaussianRational(Fraction(3, 2)), Fraction(3, 2)}) == 1
    assert len({GaussianRational(1, 1), GaussianRational(1)}) == 2


def test_reciprocal_of_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).reciprocal()


@given(fractions, fractions)
def test_reciprocal_roundtrip(a, b):
    z = GaussianRational(a, b)
    if not z:
        return
    assert z * z.reciprocal() == GaussianRational(1)


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/2+3/4*i", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("-1/3-2*i", GaussianRational(Fraction(-1, 3), -2)),
        ("i", GAUSSIAN_I),
        ("-i", -GAUSSIAN_I),
        ("5", GaussianRational(5)),
        ("2*i", GaussianRational(0, 2)),
    ],
)
def test_parse_gaussian(text, value):
    assert parse_gaussian(text) == value


def test_parse_gaussian_rejects_garbage():
    with pytest.raises(ValueError):
        parse_gaussian("1.5+2i")


@given(fractions, fractions)
def test_format_parse_roundtrip(a, b):
    z = GaussianRational(a, b)
    assert parse_gaussian(format_gaussian(z)) == z

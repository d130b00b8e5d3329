from fractions import Fraction
from random import Random

import pytest

from solitonlab.series import TruncatedSeries


def fraction_det(rows):
    """Cofactor-expansion determinant over exact rationals (test oracle)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * fraction_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def with_coeff(s, exponent, value):
    """A copy of the series s with one trusted coefficient replaced;
    ValueError at or above its valid order."""
    coeffs = list(s.coeffs)
    coeffs[s._trusted_index(exponent)] = s.algebra.coeff.coerce(value)
    return TruncatedSeries(s.algebra, coeffs, s.valid_order)


@pytest.fixture
def rng():
    return Random(20240817)

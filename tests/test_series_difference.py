"""A difference of two series that store the same coefficients through the
lesser valid order is the stored zero, read without rescaling either side.

``x - y`` must store exactly what the general sum-or-difference path
(``TruncatedSeries._zip``) stores: the same numerators, denominators and
valid order, over QQ, QQ(i), GF(p) and 2 x 2 matrix coefficients, in one
and two variables, at valid order 0 and at unequal orders that agree on
their common prefix.  Spies check that the short cut rescales, cuts and
reduces nothing, and that differences that are not zero take the general
path.
"""

from fractions import Fraction
from operator import sub
from random import Random

import pytest

from solitonlab import series
from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, random_element
from solitonlab.series import SeriesAlgebra, TruncatedSeries, _count_below

CAP = 6
COEFFS = {"QQ": QQ, "QQi": QQI, "GFp": GFP, "Mat2-QQ": MatrixAlgebra(QQ, 2)}
CASES = [(name, arity) for name in COEFFS for arity in (1, 2)]


def _series(salg, rng, valid_order):
    n = _count_below(salg.arity, valid_order)
    coeffs = [salg.coeff.zero() if rng.random() < 0.3 else random_element(salg.coeff, rng)
              for _ in range(n)]
    return TruncatedSeries(salg, coeffs, valid_order)


def _longer(s, valid_order, rng):
    """A series of order ``valid_order`` >= s's that agrees with s below s's
    order and holds drawn coefficients above it."""
    salg = s.algebra
    tail = _series(salg, rng, valid_order).coeffs[len(s.coeffs):]
    return TruncatedSeries(salg, s.coeffs + tail, valid_order)


@pytest.fixture
def general_calls(monkeypatch):
    """Count the calls of the general path and of what it rescales with."""
    calls = {"_zip": 0, "_cut": 0, "_reduced": 0}
    zip_ = TruncatedSeries._zip

    def counted_zip(self, other, op):
        calls["_zip"] += 1
        return zip_(self, other, op)

    monkeypatch.setattr(TruncatedSeries, "_zip", counted_zip)
    for name in ("_cut", "_reduced"):
        def counted(*args, _fn=getattr(series, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(series, name, counted)
    return calls


def _pairs(salg, rng):
    """(name, x, y) with x and y stored alike through the lesser order."""
    x = _series(salg, rng, CAP)
    short = _series(salg, rng, 3)
    zero_tail = TruncatedSeries(  # None channels against zeros followed by a tail
        salg, [salg.coeff.zero()] * _count_below(salg.arity, 2), 2)
    return [
        ("same object", x, x),
        ("equal copies", x, TruncatedSeries(salg, x.coeffs, CAP)),
        ("valid order 0", x.with_valid_order(0), _series(salg, rng, 0)),
        ("order 0 against a full series", x.with_valid_order(0), x),
        ("longer minus shorter", _longer(short, CAP, rng), short),
        ("shorter minus longer", short, _longer(short, 5, rng)),
        ("zeros against a tail", zero_tail, _longer(zero_tail, CAP, rng)),
    ]


def _assert_stored_alike(out, ref):
    assert (out.nums, out.dens, out.valid_order) == (ref.nums, ref.dens, ref.valid_order)


@pytest.mark.parametrize("name,arity", CASES)
def test_alike_difference_is_the_stored_zero(name, arity, general_calls):
    salg = SeriesAlgebra(COEFFS[name], arity, CAP)
    for label, x, y in _pairs(salg, Random(f"{name}-{arity}")):
        ref = TruncatedSeries._zip(x, y, sub)
        general_calls.update(dict.fromkeys(general_calls, 0))
        out = x - y
        assert general_calls == {"_zip": 0, "_cut": 0, "_reduced": 0}, label
        _assert_stored_alike(out, ref)
        assert out.is_zero() and out.dens == (1,) * len(out.dens), label
        assert out.valid_order == min(x.valid_order, y.valid_order), label


@pytest.mark.parametrize("name,arity", CASES)
def test_differences_that_are_not_zero_take_the_general_path(name, arity, general_calls):
    salg = SeriesAlgebra(COEFFS[name], arity, CAP)
    rng = Random(f"nonzero-{name}-{arity}")
    x = _series(salg, rng, CAP)
    bump = salg.monomial((0,) * (arity - 1) + (1,), Fraction(1, 3))
    short = _series(salg, rng, 3)
    longer = _longer(short, CAP, rng)
    for label, a, b in (("one coefficient apart", x + bump, x),
                        ("apart below the lesser order", short + bump, longer),
                        ("apart by a scale", x, x + x)):
        ref = TruncatedSeries._zip(a, b, sub)
        general_calls.update(dict.fromkeys(general_calls, 0))
        out = a - b
        assert general_calls["_zip"] == 1, label
        _assert_stored_alike(out, ref)
        assert not out.is_zero() or b.is_zero(), label

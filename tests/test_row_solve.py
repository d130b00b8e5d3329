"""SeriesAlgebra.row_solve against the Wronski inverse it replaces."""

from random import Random

import pytest

from solitonlab.algebra import SquareMatrix, row_times
from solitonlab.errors import SingularConstantTerm, SingularWronskian
from solitonlab.quasidet import frobenius_gamma, wronski
from solitonlab.series import D_V, SeriesAlgebra
from solitonlab.solitons import (
    langmuir_build_f,
    nls_build_f,
    random_langmuir_params,
    random_nls_params,
    random_toda_params,
    toda_build_f,
)


def _toda(n_modes, scalar="rational"):
    data = toda_build_f(random_toda_params(Random(1), 2, n_modes, cap=8, scalar=scalar))
    return wronski(data.f[0], data.d2)


def _langmuir(n_modes, r=1):
    data = langmuir_build_f(
        random_langmuir_params(Random(1), n_modes, r=r, cap=8, window=3)
    )
    return wronski(data.f[data.sites[1]], data.d)


def _nls(n_modes):
    data = nls_build_f(random_nls_params(Random(1), n_modes, cap=7))
    return wronski(data.fs, data.d)


def _unequal_orders():
    """A Toda Wronskian whose entries and target carry different valid orders."""
    wp = _toda(2)
    (w00, w01), (w10, w11) = wp.W.rows
    y0, y1 = wp.dW.rows[-1]
    W = SquareMatrix(wp.W.algebra, [[w00, w01.with_valid_order(3)], [w10, w11]])
    return (y0, y1.with_valid_order(4)), W


def _relation(wp):
    """The row y and matrix W of the bottom-row relation x * W = y."""
    return wp.dW.rows[-1], wp.W


RELATIONS = {
    "toda-N2-QQ": lambda: _relation(_toda(2)),
    "toda-N3-QQ": lambda: _relation(_toda(3)),
    "langmuir-N3-QQ": lambda: _relation(_langmuir(3)),
    "langmuir-N2-r2": lambda: _relation(_langmuir(2, r=2)),
    "nls-N2-QQ_I-blocks": lambda: _relation(_nls(2)),
    "toda-N2-GFP": lambda: _relation(_toda(2, scalar="gf-p")),
    "unequal-valid-orders": _unequal_orders,
}


@pytest.mark.parametrize("build", RELATIONS.values(), ids=RELATIONS.keys())
def test_row_solve_equals_row_times_inverse(build):
    y, W = build()
    solved = W.algebra.base.row_solve(y, W)
    expected = row_times(y, W.inverse())
    assert len(solved) == W.dim
    for x, e in zip(solved, expected):
        assert x.coeffs == e.coeffs
        assert x.valid_order == e.valid_order
    assert row_times(solved, W) == y


@pytest.mark.parametrize("n_modes", [2, 3])
def test_frobenius_gamma_never_inverts_the_wronskian(monkeypatch, n_modes):
    calls = []
    inverse = SeriesAlgebra.matrix_inverse

    def spy(self, m):
        calls.append(m.dim)
        return inverse(self, m)

    monkeypatch.setattr(SeriesAlgebra, "matrix_inverse", spy)
    wp = _toda(n_modes)
    frobenius_gamma(wp)
    assert calls == []
    # N = 1 still divides by the 1x1 series inverse
    frobenius_gamma(wronski(wp.fs[:1], wp.derivation))
    assert calls == [1]


@pytest.mark.parametrize(
    "mode", [lambda: _toda(1).fs[0], lambda: _nls(1).fs[0]], ids=["QQ", "QQ_I-blocks"]
)
def test_singular_constant_coefficient_raises_singular_wronskian(mode):
    f = mode()
    wp = wronski([f, f], D_V)
    with pytest.raises(SingularConstantTerm):
        wp.W.algebra.base.row_solve(wp.dW.rows[-1], wp.W)
    with pytest.raises(SingularWronskian) as info:
        frobenius_gamma(wp)
    assert isinstance(info.value.__cause__, SingularConstantTerm)

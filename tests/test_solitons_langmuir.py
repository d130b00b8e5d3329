from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import QQ, QQI, MatrixAlgebra
from solitonlab.errors import SingularMatrix, WindowTooSmall
from solitonlab.quasidet import ConventionNote
from solitonlab.residual import check_data, check_langmuir, check_marchenko_lattice
from solitonlab.scalars import GaussianRational
from solitonlab.series import D_T, SeriesAlgebra, constant_series_matrix
from solitonlab.solitons import (
    LangmuirParams,
    _lattice_residuals_vanish,
    langmuir_build_f,
    langmuir_solution,
    random_langmuir_params,
)


def test_site_relations_exact():
    rng = Random(61)
    data = langmuir_build_f(random_langmuir_params(rng, N=1, r=1, cap=9, window=4))
    report = check_data("langmuir", data)
    assert report.passed and report.exact
    # written out once directly: df[i] = f[i+2]
    k = data.sites[0]
    assert data.f[k][0].derive(D_T) == data.f[k + 2][0]


def test_vacuum_family_and_constant_solution():
    params = LangmuirParams(
        N=1, r=1, cap=8,
        p=[Fraction(2)], q=[Fraction(0)], mu=[Fraction(3, 2)],
        k_range=[0, 1, 2],
    )
    data = langmuir_build_f(params)
    assert check_data("langmuir", data).passed
    sol = langmuir_solution(params, data=data)
    # the telescoping quotient of constant eta's collapses to 1
    for g in sol.gs.values():
        assert g == g.algebra.one()
    assert check_langmuir(sol.gs, D_T).passed


def test_window_without_interior_site_rejected():
    params = LangmuirParams(
        N=1, r=1, cap=6, p=[Fraction(1)], q=[Fraction(1)],
        mu=[Fraction(2)], k_range=[0, 1],
    )
    with pytest.raises(ValueError, match="at least 3 sites"):
        langmuir_solution(params)
    one = SeriesAlgebra(QQ, 1, 6).one()
    with pytest.raises(WindowTooSmall):
        _lattice_residuals_vanish({0: one, 1: one}, D_T)


def test_mu_with_singular_sum_rejected():
    # mu = i makes mu + mu^-1 = 0; the parameter invariant excludes it
    params = LangmuirParams(
        N=1, r=1, cap=6,
        p=[GaussianRational(1)], q=[GaussianRational(1)],
        mu=[GaussianRational(0, 1)], k_range=[0, 1, 2],
        scalar="gaussian-rational",
    )
    with pytest.raises(SingularMatrix):
        langmuir_build_f(params)


def test_periodic_root_of_unity_mode():
    # mu = -1 is the allowed period-two root; the solution is the constant one
    params = LangmuirParams(
        N=1, r=1, cap=7,
        p=[Fraction(2)], q=[Fraction(1, 3)], mu=[Fraction(-1)],
        k_range=[0, 1, 2],
    )
    sol = langmuir_solution(params)
    for g in sol.gs.values():
        assert g == g.algebra.one()


def test_single_mode_closed_form_and_residual():
    rng = Random(67)
    for r in (1, 2):
        params = random_langmuir_params(rng, N=1, r=r, cap=9, window=4)
        sol = langmuir_solution(params)
        assert sol.closed_forms is not None
        for k in params.k_range:
            assert sol.closed_forms[k] == sol.gs[k]
        assert check_langmuir(sol.gs, D_T).passed


def test_two_mode_solution_and_convention():
    rng = Random(71)
    sol = langmuir_solution(random_langmuir_params(rng, N=2, r=1, cap=9, window=5))
    report = check_langmuir(sol.gs, D_T)
    assert report.passed
    note = next(n for n in sol.notes if isinstance(n, ConventionNote))
    assert note.matched == ("product-form-sites-k-k-1",)


def test_single_mode_both_display_forms_match():
    rng = Random(73)
    sol = langmuir_solution(random_langmuir_params(rng, N=1, r=1, cap=8, window=4))
    note = next(n for n in sol.notes if isinstance(n, ConventionNote))
    assert set(note.matched) == {
        "product-form-sites-k-k-1",
        "additive-form-sites-k+1-k",
    }


def test_commutative_product_form_checked():
    rng = Random(79)
    sol = langmuir_solution(random_langmuir_params(rng, N=1, r=1, cap=8, window=4))
    report = check_langmuir(sol.gs, D_T)
    labels = [e.label for e in report.entries]
    assert any("commutative" in label for label in labels)
    assert report.passed


def test_lattice_lemma_identities_on_constructed_data():
    from solitonlab.quasidet import wronski

    rng = Random(83)
    params = random_langmuir_params(rng, N=2, r=1, cap=9, window=3)
    data = langmuir_build_f(params)
    gamma = {k: wronski(data.f[k], D_T).W for k in data.sites}
    mat_n = MatrixAlgebra(data.algebra, data.N)
    a_const = constant_series_matrix(mat_n.diagonal(data.a), 1, data.cap)
    report = check_marchenko_lattice(gamma, {k: a_const for k in data.sites}, D_T)
    assert report.passed
    kinds = {e.label.split(" site")[0] for e in report.entries}
    assert kinds == {
        "lattice-equation",
        "increment-product",
        "increment-shift",
        "additive-quotient",
    }

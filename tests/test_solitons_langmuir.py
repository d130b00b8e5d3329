from fractions import Fraction
from random import Random

import pytest

from solitonlab import cli, residual, solitons
from solitonlab.algebra import QQ, QQI
from solitonlab.errors import SingularMatrix, WindowTooSmall
from solitonlab.quasidet import ConventionNote
from solitonlab.residual import _interior, check_data, check_langmuir, check_marchenko_lattice
from solitonlab.scalars import GaussianRational
from solitonlab.series import D_T, SeriesAlgebra, TruncatedSeries
from solitonlab.solitons import (
    LangmuirParams,
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
        window=3,
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
        mu=[Fraction(2)], window=2,
    )
    with pytest.raises(ValueError, match="at least 3 sites"):
        langmuir_solution(params)
    one = SeriesAlgebra(QQ, 1, 6).one()
    with pytest.raises(WindowTooSmall):
        _interior({0: one, 1: one})


def _window_params(window):
    return LangmuirParams(N=1, r=1, cap=6, p=[Fraction(1)], q=[Fraction(2)],
                          mu=[Fraction(2)], window=window)


@pytest.mark.parametrize("window", [1, 2, 3, 5])
def test_data_sites_run_from_minus_one_to_window_plus_one(window):
    data = langmuir_build_f(_window_params(window))
    assert data.sites == list(range(-1, window + 2)) == sorted(data.f)
    assert check_data("langmuir", data).passed
    if window < 3:  # data, but too few sites for a solution
        with pytest.raises(ValueError, match="the site window needs at least 3 sites"):
            langmuir_solution(_window_params(window), data=data)
    else:
        assert sorted(langmuir_solution(_window_params(window), data=data).gs) == list(
            range(window))


@pytest.mark.parametrize("window", [0, -1])
def test_empty_window_rejected(window):
    with pytest.raises(ValueError, match="window must be at least 1"):
        _window_params(window).validate()
    with pytest.raises(ValueError, match="window must be at least 1"):
        langmuir_build_f(_window_params(window))


def test_mu_with_singular_sum_rejected():
    # mu = i makes mu + mu^-1 = 0; the parameter invariant excludes it
    params = LangmuirParams(
        N=1, r=1, cap=6,
        p=[GaussianRational(1)], q=[GaussianRational(1)],
        mu=[GaussianRational(0, 1)], window=3,
        scalar="gaussian-rational",
    )
    with pytest.raises(SingularMatrix):
        langmuir_build_f(params)


def test_periodic_root_of_unity_mode():
    # mu = -1 is the allowed period-two root; the solution is the constant one
    params = LangmuirParams(
        N=1, r=1, cap=7,
        p=[Fraction(2)], q=[Fraction(1, 3)], mu=[Fraction(-1)],
        window=3,
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
        for k in range(params.window):
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
    report = check_marchenko_lattice(gamma, data.a, D_T)
    assert report.passed
    kinds = {e.label.split(" site")[0] for e in report.entries}
    assert kinds == {
        "lattice-equation",
        "increment-product",
        "increment-shift",
        "additive-quotient",
    }


@pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (1, 2)])
def test_solution_keeps_check_langmuirs_report_on_its_sites(N, r):
    sol = langmuir_solution(random_langmuir_params(Random(89 + N + r), N=N, r=r, cap=7,
                                                   window=4))
    assert sol.report.passed
    assert sol.report.to_dict() == check_langmuir(dict(sol.gs), D_T).to_dict()


def test_a_run_derives_each_interior_g_once_in_check_langmuir(monkeypatch, tmp_path):
    # the lattice residual and the commutative product form share d g_k
    checked, derived, inside = [], [], []
    check, derive = solitons.check_langmuir, TruncatedSeries.derive

    def counted_check(gs, d):
        checked.append(gs)
        inside.append(True)
        try:
            return check(gs, d)
        finally:
            inside.pop()

    def counted_derive(s, d):
        if inside:
            derived.append(s)
        return derive(s, d)

    monkeypatch.setattr(solitons, "check_langmuir", counted_check)
    monkeypatch.setattr(TruncatedSeries, "derive", counted_derive)
    args = ["langmuir", "--N", "2", "--window", "5", "--cap", "7", "--seed", "3"]
    assert cli.main(args + ["--report", str(tmp_path / "r.json")]) == 0
    [gs] = checked
    assert [id(s) for s in derived] == [id(gs[k]) for k in _interior(gs)]


def test_each_lattice_residual_is_formed_once_per_run(monkeypatch, tmp_path):
    formed = []
    for module in (residual, solitons):
        form = module._langmuir_residual

        def counted(xs, k, dx, _form=form):
            formed.append((xs, k))  # keeps xs alive, so its id stays its own
            return _form(xs, k, dx)

        monkeypatch.setattr(module, "_langmuir_residual", counted)
    args = ["langmuir", "--N", "2", "--window", "4", "--cap", "6", "--with-lemmas"]
    assert cli.main(args + ["--seed", "3", "--report", str(tmp_path / "r.json")]) == 0
    keys = [(id(xs), k) for xs, k in formed]
    assert formed and len(keys) == len(set(keys))

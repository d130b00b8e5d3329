from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import QQ, Algebra, MatrixAlgebra
from solitonlab.errors import SingularMatrix
from solitonlab.quasidet import frobenius_gamma, wronski
from solitonlab.residual import check_data, check_marchenko, check_toda, check_toda_gamma
from solitonlab.series import D_U, D_V
from solitonlab.solitons import (
    TodaParams,
    random_toda_params,
    toda_build_f,
    toda_solution,
    toda_shift_data,
)


def test_build_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        TodaParams(n=0, N=1, r=1, cap=5, a=[], p=[[1]]).validate()
    with pytest.raises(ValueError):
        TodaParams(n=2, N=1, r=1, cap=3, a=[[1], [1]], p=[[1, 1]]).validate()


def test_build_rejects_singular_a():
    m2 = MatrixAlgebra(QQ, 2)
    params = TodaParams(
        n=1, N=1, r=2, cap=5,
        a=[[m2.matrix([[1, 2], [2, 4]])]],
        p=[[m2.one()]],
    )
    with pytest.raises(SingularMatrix):
        toda_build_f(params)


def test_period_one_degenerates_to_single_exponential():
    params = TodaParams(
        n=1, N=1, r=1, cap=6,
        a=[[Fraction(2, 3)]], p=[[Fraction(5)]],
    )
    data = toda_build_f(params)
    f = data.f[0][0]
    # dv f = f * a and du f = f * a^-1 at period one
    assert f.derive(D_V) == f.scale_right(Fraction(2, 3))
    assert f.derive(D_U) == f.scale_right(Fraction(3, 2))
    assert check_data("toda", data).passed


@pytest.mark.parametrize("n,N,r", [(2, 1, 1), (3, 2, 1), (2, 2, 2)])
def test_shift_relations_exact(n, N, r):
    rng = Random(100 + n + 10 * N + 100 * r)
    data = toda_build_f(random_toda_params(rng, n=n, N=N, r=r, cap=N + 5))
    report = check_data("toda", data)
    assert report.passed
    assert report.exact
    # the same relations written out directly
    S = data.algebra
    for i in range(n):
        for j in range(N):
            lhs = data.f[i][j].derive(D_U)
            rhs = data.f[(i - 1) % n][j].scale_right(S.invert(data.a[i][j]))
            assert lhs == rhs


def test_single_mode_solution_is_log_derivative():
    rng = Random(17)
    params = random_toda_params(rng, n=2, N=1, r=1, cap=6)
    sol = toda_solution(params)
    for k in range(2):
        f = sol.data.f[k][0]
        assert sol.gs[k] == f.derive(D_V) * f.inverse()


@pytest.mark.parametrize("n,N,r,seed", [(2, 1, 1, 0), (3, 2, 1, 1), (4, 1, 2, 2)])
def test_lattice_field_residual_zero(n, N, r, seed):
    rng = Random(seed)
    sol = toda_solution(random_toda_params(rng, n=n, N=N, r=r, cap=N + 5))
    report = check_toda(sol.gs, D_U, D_V)
    assert report.passed
    for entry in report.entries:
        assert entry.exact_zero


def test_gamma_level_residual_zero():
    rng = Random(23)
    sol = toda_solution(random_toda_params(rng, n=3, N=2, r=1, cap=7))
    report = check_toda_gamma(sol.cells, D_U, D_V)
    assert report.passed
    assert any("rows above the bottom vanish" in str(n) for n in report.notes)


def test_shift_data_satisfies_hypotheses():
    rng = Random(29)
    sol = toda_solution(random_toda_params(rng, n=3, N=1, r=1, cap=6))
    gammas, a_mats = toda_shift_data(sol)
    report = check_marchenko(gammas, a_mats, D_U, D_V)
    assert report.passed


def test_quasidet_cross_check_note_present():
    rng = Random(31)
    sol = toda_solution(random_toda_params(rng, n=2, N=2, r=1, cap=7))
    assert any("quasideterminant expression matches" in str(n) for n in sol.notes)


def test_derivative_rows_reproduce_exponential_pattern():
    # expansion oracle: the m-th derivative of the mode components equals the
    # row vector p times (exponential series right-multiplied by the m-th
    # power of its v-exponent), reconstructed independently here
    from solitonlab.series import SeriesAlgebra, TruncatedSeries, series_exp_linear
    rng = Random(67)
    params = random_toda_params(rng, n=3, N=1, r=1, cap=7)
    data = toda_build_f(params)
    S = data.algebra
    mat_n = MatrixAlgebra(S, 3)
    # the cyclic shift sends e_i to e_{i+1 mod 3}
    shift = mat_n.matrix([[1 if m == (i + 1) % 3 else 0 for i in range(3)] for m in range(3)])
    r_mat = mat_n.diagonal([data.a[i][0] for i in range(3)]) * shift
    e_series = series_exp_linear(r_mat.inverse(), r_mat, 7, algebra=mat_n)
    for order in (1, 2):
        power = mat_n.one()
        for _ in range(order):
            power = power * r_mat
        shifted = e_series.scale_right(power)
        for i in range(3):
            expected = TruncatedSeries(
                SeriesAlgebra(S, 2, 7),
                [
                    sum(S.coerce(params.p[0][m]) * c.rows[m][i] for m in range(3))
                    for c in shifted.coeffs
                ],
                shifted.valid_order,
            )
            observed = data.f[i][0]
            for _ in range(order):
                observed = observed.derive(D_V)
            assert observed == expected


def test_pipeline_equals_manual_wronskian_route():
    rng = Random(37)
    params = random_toda_params(rng, n=3, N=2, r=1, cap=7)
    sol = toda_solution(params)
    for k in range(3):
        wp = wronski([sol.data.f[k][j] for j in range(2)], D_V)
        cell = frobenius_gamma(wp)
        assert cell.entry(1, 0) == sol.gs[k]


@pytest.mark.parametrize("n, N, r", [(3, 2, 1), (4, 3, 1), (3, 2, 2)])
def test_build_f_makes_as_many_products_at_any_cap(n, N, r, monkeypatch):
    # the rows p_j go through the exponential kernel once per mode, so the
    # count of constant products (Algebra.matmul) does not grow with cap
    calls = []
    matmul = Algebra.matmul

    def counted(self, xs, ys):
        calls.append(self)
        return matmul(self, xs, ys)

    monkeypatch.setattr(Algebra, "matmul", counted)
    counts = []
    for cap in (8, 16):
        params = random_toda_params(Random(5), n=n, N=N, r=r, cap=cap)
        calls.clear()
        toda_build_f(params)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0

from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import CC, QQ, MatrixAlgebra, SquareMatrix
from solitonlab.errors import (
    BNotInvolutive,
    HypothesisViolated,
    NonInvertibleSolution,
    WindowTooSmall,
)
from solitonlab.residual import (
    ResidualReport,
    check_data,
    check_langmuir,
    check_marchenko,
    check_marchenko_lattice,
    check_nls,
    check_toda,
    check_toda_gamma,
)
from solitonlab.series import (
    D_T,
    D_U,
    D_V,
    SeriesAlgebra,
    constant_series_matrix,
)
from solitonlab.solitons import (
    langmuir_build_f,
    langmuir_solution,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_toda_params,
    toda_build_f,
    toda_shift_data,
    toda_solution,
)


def test_constant_solution_passes_toda():
    salg = SeriesAlgebra(QQ, 2, 5)
    c = salg.constant(Fraction(7, 3))
    report = check_toda([c, c, c], D_U, D_V)
    assert report.passed
    assert all(e.exact_zero for e in report.entries)


def test_non_invertible_solution_raises():
    salg = SeriesAlgebra(QQ, 2, 5)
    zero_const = salg.monomial((1, 0))
    with pytest.raises(NonInvertibleSolution):
        check_toda([zero_const, salg.one()], D_U, D_V)


def test_single_coefficient_corruption_fails_toda():
    rng = Random(111)
    sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    gs = list(sol.gs)
    bad = gs[0].with_coeff((1, 1), gs[0].coeff((1, 1)) + 1)
    report = check_toda([bad, gs[1]], D_U, D_V)
    assert not report.passed


def test_report_checks_each_matrix_entry_through_its_own_order():
    salg = SeriesAlgebra(QQ, 1, 8)
    short = salg.zero().with_valid_order(3)
    zero = salg.zero()
    # nonzero at degree 4: below its own order 6, above the matrix minimum 3
    late = salg.monomial((4,), 1, valid_order=6)
    mat = MatrixAlgebra(salg, 2)
    report = ResidualReport("entrywise", exact=True)
    report.add("late nonzero", SquareMatrix(mat, ((short, zero), (zero, late))))
    report.add("all zero", SquareMatrix(mat, ((short, zero), (zero, late - late))))
    failing, clean = report.entries
    assert not report.passed
    assert not failing.passed and failing.exact_zero is False
    assert failing.valid_order == 3 and failing.max_magnitude == 1.0
    assert clean.passed and clean.exact_zero and clean.valid_order == 3


def test_single_coefficient_corruption_fails_toda_gamma():
    rng = Random(167)
    sol = toda_solution(random_toda_params(rng, n=2, N=2, r=1, cap=7))
    gammas = [cell.matrix for cell in sol.cells]
    assert check_toda_gamma(gammas, D_U, D_V).passed
    g = gammas[0]
    for p, q in ((g.dim - 1, 0), (g.dim - 1, g.dim - 1)):
        entry = g.entry(p, q)
        rows = [list(r) for r in g.rows]
        rows[p][q] = entry.with_coeff((1, 1), entry.coeff((1, 1)) + 1)
        bad = SquareMatrix(g.algebra, rows)
        assert not check_toda_gamma([bad, gammas[1]], D_U, D_V).passed


def test_constant_gammas_pass_matrix_level():
    mat = MatrixAlgebra(QQ, 2).matrix([[1, 2], [3, 5]])
    m = constant_series_matrix(mat, 2, 5)
    report = check_toda_gamma([m, m], D_U, D_V)
    assert report.passed


def test_marchenko_hypothesis_violation_detected():
    rng = Random(113)
    sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    gammas, a_mats = toda_shift_data(sol)
    # inject u-dependence into one a-diagonal
    bad_entry = a_mats[0].entry(0, 0).with_coeff((1, 0), Fraction(1))
    rows = [list(r) for r in a_mats[0].rows]
    rows[0][0] = bad_entry
    a_bad = SquareMatrix(a_mats[0].algebra, rows)
    with pytest.raises(HypothesisViolated) as exc:
        check_marchenko(gammas, [a_bad] + a_mats[1:], D_U, D_V)
    assert exc.value.which == "A-constant"


def test_marchenko_period_one_telescopes():
    rng = Random(127)
    sol = toda_solution(random_toda_params(rng, n=1, N=1, r=1, cap=6))
    gammas, a_mats = toda_shift_data(sol)
    report = check_marchenko(gammas, a_mats, D_U, D_V)
    assert report.passed


def test_lattice_checker_detects_corruption():
    from solitonlab.quasidet import wronski

    rng = Random(131)
    params = random_langmuir_params(rng, N=1, r=1, cap=8, window=3)
    data = langmuir_build_f(params)
    gamma = {k: wronski(data.f[k], D_T).W for k in data.sites}
    mat_n = MatrixAlgebra(data.algebra, data.N)
    a_const = constant_series_matrix(mat_n.diagonal(data.a), 1, data.cap)
    a_map = {k: a_const for k in data.sites}
    assert check_marchenko_lattice(gamma, a_map, D_T).passed

    k0 = data.sites[0]
    corrupted = gamma[k0].entry(0, 0).with_coeff((2,), Fraction(9))
    gamma_bad = dict(gamma)
    gamma_bad[k0] = SquareMatrix(
        gamma[k0].algebra, ((corrupted,),)
    )
    with pytest.raises(HypothesisViolated):
        check_marchenko_lattice(gamma_bad, a_map, D_T)


def test_lattice_checker_window_too_small():
    salg = SeriesAlgebra(QQ, 1, 5)
    m = constant_series_matrix(MatrixAlgebra(QQ, 1).one(), 1, 5)
    with pytest.raises(WindowTooSmall):
        check_marchenko_lattice({0: m, 1: m}, {0: m, 1: m}, D_T)


def test_langmuir_constant_one():
    salg = SeriesAlgebra(QQ, 1, 6)
    gs = {k: salg.one() for k in range(4)}
    report = check_langmuir(gs, D_T)
    assert report.passed


def test_langmuir_window_too_small():
    salg = SeriesAlgebra(QQ, 1, 6)
    with pytest.raises(WindowTooSmall):
        check_langmuir({0: salg.one()}, D_T)


def test_langmuir_corruption_detected():
    rng = Random(137)
    sol = langmuir_solution(random_langmuir_params(rng, N=1, r=1, cap=8, window=4))
    gs = dict(sol.gs)
    mid = sorted(gs)[1]
    gs[mid] = gs[mid].with_coeff((1,), gs[mid].coeff((1,)) + 1)
    assert not check_langmuir(gs, D_T).passed


def test_nls_zero_solution_trivially_passes():
    salg = SeriesAlgebra(MatrixAlgebra(QQ, 2), 2, 5)
    b = MatrixAlgebra(QQ, 2).diagonal([1, -1])
    from solitonlab.series import Derivation

    report = check_nls(salg.zero(), b, Derivation("u", scale=-1), D_V)
    assert report.passed


def test_nls_requires_involution():
    salg = SeriesAlgebra(MatrixAlgebra(QQ, 2), 2, 5)
    b = MatrixAlgebra(QQ, 2).matrix([[1, 1], [0, 1]])
    from solitonlab.series import Derivation

    with pytest.raises(BNotInvolutive):
        check_nls(salg.zero(), b, Derivation("u", scale=-1), D_V)


def test_nls_corruption_detected():
    rng = Random(139)
    sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=6))
    bad = sol.U.with_coeff((1, 1), sol.U.coeff((0, 0)) + sol.data.algebra.one())
    report = check_nls(bad, sol.data.b, sol.data.d0, sol.data.d)
    assert not report.passed


def test_check_data_identifies_violated_equation():
    rng = Random(149)
    data = toda_build_f(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    data.f[0][0] = data.f[0][0].with_coeff((1, 0), Fraction(100))
    report = check_data("toda", data)
    assert not report.passed
    failing = [e.label for e in report.entries if not e.passed]
    assert any("f[0][0]" in label or "f[1][0]" in label for label in failing)


def test_check_data_unknown_kind():
    with pytest.raises(ValueError):
        check_data("pendulum", None)


def test_monotonicity_in_cap():
    # same parameter stream, larger cap: still a pass (more coefficients zero)
    for cap in (6, 8):
        rng = Random(151)
        sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=cap))
        assert check_toda(sol.gs, D_U, D_V).passed


def test_float_mode_tolerance():
    rng = Random(157)
    sol = toda_solution(
        random_toda_params(rng, n=2, N=1, r=1, cap=6, scalar="complex-float")
    )
    report = check_toda(sol.gs, D_U, D_V)
    assert not report.exact
    assert report.passed  # residual magnitudes are tiny relative to inputs
    for e in report.entries:
        assert e.exact_zero is None


def test_report_serialization_round_trip():
    import json

    rng = Random(163)
    sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    report = check_toda(sol.gs, D_U, D_V)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["equation"] == "toda"
    assert parsed["passed"] is True

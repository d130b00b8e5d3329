from fractions import Fraction
from random import Random

import pytest

from conftest import with_coeff
from solitonlab.algebra import QQ, MatrixAlgebra, SquareMatrix
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
from solitonlab.quasidet import wronski
from solitonlab.series import D_T, D_U, D_V, SeriesAlgebra
from solitonlab.solitons import (
    langmuir_build_f,
    langmuir_solution,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_sine_gordon_params,
    random_toda_params,
    sine_gordon_solution,
    toda_build_f,
    toda_shift_data,
    toda_solution,
)


def constant_matrix(mat, arity, cap):
    """A constant matrix as a matrix of constant series."""
    salg = SeriesAlgebra(mat.algebra.base, arity, cap)
    rows = [[salg.constant(x) for x in row] for row in mat.rows]
    return SquareMatrix(MatrixAlgebra(salg, mat.dim), rows)


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
    bad = with_coeff(gs[0], (1, 1), gs[0].coeff((1, 1)) + 1)
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
    gammas = list(sol.cells)
    assert check_toda_gamma(gammas, D_U, D_V).passed
    g = gammas[0]
    for p, q in ((g.dim - 1, 0), (g.dim - 1, g.dim - 1)):
        entry = g.entry(p, q)
        rows = [list(r) for r in g.rows]
        rows[p][q] = with_coeff(entry, (1, 1), entry.coeff((1, 1)) + 1)
        bad = SquareMatrix(g.algebra, rows)
        assert not check_toda_gamma([bad, gammas[1]], D_U, D_V).passed


def test_constant_gammas_pass_matrix_level():
    mat = MatrixAlgebra(QQ, 2).matrix([[1, 2], [3, 5]])
    m = constant_matrix(mat, 2, 5)
    report = check_toda_gamma([m, m], D_U, D_V)
    assert report.passed


def test_marchenko_hypothesis_violation_detected():
    rng = Random(113)
    sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    gammas, diags = toda_shift_data(sol)
    # a u-dependent series in place of one a-diagonal's constant
    salg = gammas[0].algebra.base
    bad_entry = with_coeff(salg.constant(diags[0][0]), (1, 0), Fraction(1))
    with pytest.raises(HypothesisViolated) as exc:
        check_marchenko(gammas, [[bad_entry]] + diags[1:], D_U, D_V)
    assert exc.value.which == "A-constant"


def test_marchenko_period_one_telescopes():
    rng = Random(127)
    sol = toda_solution(random_toda_params(rng, n=1, N=1, r=1, cap=6))
    gammas, diags = toda_shift_data(sol)
    report = check_marchenko(gammas, diags, D_U, D_V)
    assert report.passed


def test_lattice_checker_detects_corruption():
    rng = Random(131)
    params = random_langmuir_params(rng, N=1, r=1, cap=8, window=3)
    data = langmuir_build_f(params)
    gamma = {k: wronski(data.f[k], D_T).W for k in data.sites}
    assert check_marchenko_lattice(gamma, data.a, D_T).passed

    k0 = data.sites[0]
    corrupted = with_coeff(gamma[k0].entry(0, 0), (2,), Fraction(9))
    gamma_bad = dict(gamma)
    gamma_bad[k0] = SquareMatrix(
        gamma[k0].algebra, ((corrupted,),)
    )
    with pytest.raises(HypothesisViolated):
        check_marchenko_lattice(gamma_bad, data.a, D_T)


def test_lattice_checker_window_too_small():
    m = constant_matrix(MatrixAlgebra(QQ, 1).one(), 1, 5)
    with pytest.raises(WindowTooSmall):
        check_marchenko_lattice({0: m, 1: m}, [1], D_T)


def _toda_lemma(sol):
    """(check, A, salg, relation): the cyclic-shift checker on a Toda
    solution, called with site 0's a-diagonal replaced by its argument."""
    gammas, diags = toda_shift_data(sol)
    return (lambda a: check_marchenko(gammas, [a] + diags[1:], D_U, D_V),
            list(diags[0]), gammas[0].algebra.base, "shift-linear-relation")


def _langmuir_lemma(N, r, seed):
    """(check, A, salg, relation): the lattice checker on Langmuir data,
    called with the window's one a-diagonal replaced by its argument."""
    params = random_langmuir_params(Random(seed), N=N, r=r, cap=6, window=4)
    data = langmuir_build_f(params)
    gamma = {k: wronski(data.f[k], D_T).W for k in data.sites}
    return (lambda a: check_marchenko_lattice(gamma, a, D_T),
            list(data.a), gamma[data.sites[0]].algebra.base, "shift-affine-relation")


LEMMA_CASES = {
    "toda-n3-N2": lambda: _toda_lemma(
        toda_solution(random_toda_params(Random(211), n=3, N=2, cap=6))),
    "sine-gordon-N2-r2": lambda: _toda_lemma(
        sine_gordon_solution(random_sine_gordon_params(Random(223), N=2, r=2, cap=6)).toda),
    "langmuir-N2-r1": lambda: _langmuir_lemma(2, 1, 227),
    "langmuir-N2-r2": lambda: _langmuir_lemma(2, 2, 229),
}


def _violation(check, a):
    with pytest.raises(HypothesisViolated) as exc:
        check(a)
    return exc.value.which


@pytest.mark.parametrize("case", LEMMA_CASES)
def test_lemma_checkers_take_each_a_diagonal_as_n_constants(case):
    check, a, salg, relation = LEMMA_CASES[case]()
    assert len(a) == 2 and a[0] != a[1]
    assert check(a).passed
    one = salg.coeff.one()
    # a wrong constant, or the right ones in the wrong columns, breaks the
    # shift relation
    assert _violation(check, [a[0] + one, a[1]]) == relation
    assert _violation(check, [a[0], a[1] + one]) == relation
    assert _violation(check, [a[1], a[0]]) == relation
    # every column is scaled, by exactly one constant
    assert _violation(check, a[:1]) == "A"
    assert _violation(check, a + [one]) == "A"
    # a series is not a constant, even a constant series
    x = (1,) * salg.arity
    assert _violation(check, [salg.constant(a[0]) + salg.monomial(x), a[1]]) == "A-constant"
    assert _violation(check, [a[0], salg.constant(a[1])]) == "A-constant"


def test_cyclic_shift_checker_takes_one_a_diagonal_per_site():
    gammas, diags = toda_shift_data(
        toda_solution(random_toda_params(Random(211), n=3, N=2, cap=6)))
    for wrong in (diags[:-1], diags + diags[:1]):
        assert _violation(lambda a: check_marchenko(gammas, a, D_U, D_V), wrong) == "A"


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
    gs[mid] = with_coeff(gs[mid], (1,), gs[mid].coeff((1,)) + 1)
    assert not check_langmuir(gs, D_T).passed


def test_langmuir_entry_that_examined_nothing_fails():
    # constants 5, 6, 7 do not solve the lattice, but at valid order 1 the
    # derivative trusts no coefficient: the residual proves nothing
    salg = SeriesAlgebra(QQ, 1, 4)
    gs = {k: salg.constant(5 + k, valid_order=1) for k in range(3)}
    report = check_langmuir(gs, D_T)
    assert not report.passed
    assert report.entries
    for e in report.entries:
        assert e.valid_order == 0
        assert not e.passed and e.exact_zero is False


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
    bad = with_coeff(sol.U, (1, 1), sol.U.coeff((0, 0)) + sol.data.algebra.one())
    report = check_nls(bad, sol.data.b, sol.data.d0, sol.data.d)
    assert not report.passed


def test_check_data_identifies_violated_equation():
    rng = Random(149)
    data = toda_build_f(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    data.f[0][0] = with_coeff(data.f[0][0], (1, 0), Fraction(100))
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


def test_gf_p_mode_has_no_tolerance():
    rng = Random(157)
    sol = toda_solution(
        random_toda_params(rng, n=2, N=1, r=1, cap=6, scalar="gf-p")
    )
    report = check_toda(sol.gs, D_U, D_V)
    assert not report.exact
    assert report.passed
    for e in report.entries:
        assert e.exact_zero is None  # a zero mod p is evidence, not a proof
    # adding one residue to one coefficient fails the check
    g = sol.gs[0]
    bad = with_coeff(g, (0, 0), g.coeff((0, 0)) + 1)
    assert not check_toda([bad, sol.gs[1]], D_U, D_V).passed


def test_report_serialization_round_trip():
    import json

    rng = Random(163)
    sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=6))
    report = check_toda(sol.gs, D_U, D_V)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["equation"] == "toda"
    assert parsed["passed"] is True


def test_report_that_examined_nothing_fails():
    report = ResidualReport("x", exact=True)
    assert not report.passed
    assert report.to_dict()["passed"] is False
    salg = SeriesAlgebra(QQ, 1, 4)
    report.add("zero", salg.zero())
    assert report.passed

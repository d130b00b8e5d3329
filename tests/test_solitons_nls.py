import ast
import copy
from fractions import Fraction
from random import Random

import pytest

from conftest import with_coeff
from solitonlab import residual, series, solitons
from solitonlab.algebra import QQI, MatrixAlgebra, SquareMatrix
from solitonlab.cli import main as cli_main
from solitonlab.errors import BNotInvolutive, EvaluationSingularity
from solitonlab.quasidet import ConventionNote
from solitonlab.residual import _commutator_with, check_data, check_nls
from solitonlab.scalars import GaussianRational
from solitonlab.solitons import (
    NlsParams,
    nls_build_f,
    nls_scalar_closed_form,
    nls_solution,
    random_nls_params,
)

M2I = MatrixAlgebra(QQI, 2)
NLS_LABELS = [
    "cubic equation", "diagonal block (1,1)", "diagonal block (2,2)",
    "block equation (1,2)", "block equation (2,1)",
    "v-equation", "matrix cubic equation",
]


def test_involution_required():
    params = NlsParams(
        N=1, r=2, cap=6,
        b=M2I.matrix([[1, 1], [0, 1]]),
        c=[M2I.one()], d=[M2I.one()], a=[M2I.one()],
    )
    with pytest.raises(BNotInvolutive):
        nls_build_f(params)


@pytest.mark.parametrize("r", [1, 0])
def test_grading_needs_two_blocks(r):
    # with r = 1 the grading is b = +/-1 and U = g b - b g is identically zero
    params = NlsParams(N=1, r=r, cap=6, b=1, c=[1], d=[1], a=[1])
    with pytest.raises(ValueError):
        params.validate()
    with pytest.raises(ValueError):
        random_nls_params(Random(1), N=1, r=r)


@pytest.mark.parametrize("sign", [1, -1])
def test_scalar_grading_rejected(sign):
    params = NlsParams(
        N=1, r=2, cap=6, b=M2I.coerce(sign) * M2I.one(),
        c=[M2I.one()], d=[M2I.one()], a=[M2I.one()],
    )
    with pytest.raises(ValueError):
        nls_build_f(params)


def test_projector_identities():
    rng = Random(5)
    data = nls_build_f(random_nls_params(rng, N=1, r=2, cap=6))
    S = data.algebra
    assert data.b * data.q1 == data.q1
    assert data.b * data.q2 == -data.q2
    assert data.q1 + data.q2 == S.one()


def test_linear_relations_exact():
    rng = Random(7)
    data = nls_build_f(random_nls_params(rng, N=2, r=2, cap=7))
    report = check_data("nls", data)
    assert report.passed and report.exact


def test_vacuum_gives_zero_solution():
    rng = Random(11)
    params = random_nls_params(rng, N=1, r=2, cap=6)
    params = NlsParams(
        N=1, r=2, cap=6, b=params.b,
        c=[MatrixAlgebra(QQI, 2).zero()], d=params.d, a=params.a,
    )
    sol = nls_solution(params)
    assert sol.vacuum
    assert sol.U.is_zero()
    report = check_nls(sol.U, sol.data.b, sol.data.d0, sol.data.d)
    assert report.passed


def test_single_mode_solution_and_closed_form_sign():
    rng = Random(13)
    sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=7))
    report = check_nls(sol.U, sol.data.b, sol.data.d0, sol.data.d,
                       gamma=sol.cell)
    assert report.passed and report.exact
    sign_note = next(
        n for n in sol.notes
        if isinstance(n, ConventionNote)
        and n.topic == "single-mode-closed-form-sign"
    )
    assert "sign-corrected" in sign_note.matched


def test_two_mode_entry_convention_is_bottom_right():
    rng = Random(17)
    sol = nls_solution(random_nls_params(rng, N=2, r=2, cap=8))
    note = next(
        n for n in sol.notes
        if isinstance(n, ConventionNote) and n.topic == "cubic-solution-entry"
    )
    assert note.matched == ("bottom-right",)
    assert sol.g == sol.g_bottom_right
    report = check_nls(sol.U, sol.data.b, sol.data.d0, sol.data.d,
                       gamma=sol.cell)
    assert report.passed


def test_single_mode_corner_entries_coincide():
    rng = Random(19)
    sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=6))
    note = next(
        n for n in sol.notes
        if isinstance(n, ConventionNote) and n.topic == "cubic-solution-entry"
    )
    assert set(note.matched) == {"bottom-left", "bottom-right"}


def test_block_structure_and_block_equations():
    rng = Random(23)
    sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=7))
    assert sol.U12 is not None and sol.U21 is not None
    assert sol.U12 + sol.U21 == sol.U
    report = check_nls(sol.U, sol.data.b, sol.data.d0, sol.data.d,
                       gamma=sol.cell)
    assert [e.label for e in report.entries] == NLS_LABELS


def test_heat_mode_over_plain_rationals():
    rng = Random(29)
    sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=6, mode="heat",
                                         scalar="rational"))
    assert sol.data.algebra.base.__class__.__name__ == "Rationals"
    report = check_nls(sol.U, sol.data.b, sol.data.d0, sol.data.d,
                       gamma=sol.cell)
    assert report.passed and report.exact


def _entries(report):
    return {e.label: e for e in report.entries}


@pytest.fixture
def cubic_calls(monkeypatch):
    """Count the cubic residuals formed in check_nls."""
    calls = []
    cubic = residual._cubic_residual

    def counted(*args):
        calls.append(args)
        return cubic(*args)

    monkeypatch.setattr(residual, "_cubic_residual", counted)
    return calls


@pytest.mark.parametrize("N", [1, 2])
def test_solution_reuses_its_cubic_residual(N, cubic_calls):
    sol = nls_solution(random_nls_params(Random(31 + N), N=N, r=2, cap=N + 6))
    data = sol.data
    by_object = check_nls(sol, data.b, data.d0, data.d, gamma=sol.cell)
    reused = len(cubic_calls)
    bare = check_nls(sol.U, data.b, data.d0, data.d, gamma=sol.cell)
    assert by_object.passed
    assert by_object.to_dict() == bare.to_dict()
    assert [e.label for e in by_object.entries] == NLS_LABELS
    # a 1 x 1 quotient's matrix cubic is [[the cubic residual]]; for N >= 2
    # only the solution's own residual is reused
    assert (reused, len(cubic_calls) - reused) == ((0, 1) if N == 1 else (1, 2))
    # the residual belongs to the solution's own b: another b forms its own
    other = check_nls(sol, -data.b, data.d0, data.d)
    assert other.to_dict() == check_nls(sol.U, -data.b, data.d0, data.d).to_dict()
    assert not _entries(other)["cubic equation"].passed


def test_solution_reuses_its_graded_blocks(monkeypatch):
    """check_nls given the solution reads u11, u12, u21 and u22 off it,
    under the guard that decides the cubic's reuse; a bare series, another
    b and a replaced U each form them afresh."""
    sol = nls_solution(random_nls_params(Random(33), N=1, r=2, cap=7))
    data = sol.data
    calls = []
    blocks = residual._graded_blocks

    def counted(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(residual, "_graded_blocks", counted)
    moved = copy.copy(sol)
    moved.U = sol.U + sol.U.algebra.zero()
    reports = {}
    for name, arg, b in (("solution", sol, data.b), ("bare", sol.U, data.b),
                         ("other b", sol, -data.b), ("moved", moved, data.b)):
        calls.clear()
        reports[name] = check_nls(arg, b, data.d0, data.d).to_dict()
        assert len(calls) == (0 if name == "solution" else 1), name
    assert reports["solution"] == reports["bare"] == reports["moved"]
    assert reports["other b"] == check_nls(sol.U, -data.b, data.d0, data.d).to_dict()


def test_u_corrupted_after_selection_fails_the_cubic_equation():
    sol = nls_solution(random_nls_params(Random(37), N=1, r=2, cap=7))
    data = sol.data
    bad = with_coeff(sol.U, (1, 1), sol.U.coeff((1, 1)) + data.algebra.one())
    honest = _entries(check_nls(sol, data.b, data.d0, data.d, gamma=sol.cell))
    # a bare U, and a solution whose U no longer is the one its residual
    # belongs to, are both checked afresh
    moved = copy.copy(sol)
    moved.U = bad
    for arg in (bad, moved):
        assert not check_nls(arg, data.b, data.d0, data.d).passed
        report = check_nls(arg, data.b, data.d0, data.d, gamma=sol.cell)
        entries = _entries(report)
        assert not report.passed
        assert not entries["cubic equation"].passed
        # the matrix identities are the quotient's own: the honest quotient
        # gives the honest entry, not [[the corrupted residual]]
        assert entries["matrix cubic equation"] == honest["matrix cubic equation"]


def test_gamma_corrupted_after_selection_fails_the_matrix_cubic_equation():
    sol = nls_solution(random_nls_params(Random(37), N=1, r=2, cap=7))
    data = sol.data
    # b = diag(1, -1) sees only the off-diagonal part of g
    g = with_coeff(sol.g, (1, 1), sol.g.coeff((1, 1)) + M2I.matrix([[0, 1], [0, 0]]))
    gamma = SquareMatrix(sol.cell.algebra, ((g,),))
    bad = _commutator_with(g, data.b)
    entries = _entries(check_nls(bad, data.b, data.d0, data.d, gamma=gamma))
    assert not entries["cubic equation"].passed
    assert not entries["matrix cubic equation"].passed


def _selection_constant(s, side):
    """A constant series whose coefficient is a +-1/0 selection from the
    given side: each row (left) or column (right) of a matrix over a field
    holds at most one nonzero entry, and that entry is +-1."""
    if not s.coeffs or not isinstance(s.coeffs[0], SquareMatrix):
        return False
    if any(not s.algebra.coeff.is_zero(c) for c in s.coeffs[1:]):
        return False
    rows = s.coeffs[0].rows
    if any(isinstance(x, SquareMatrix) for row in rows for x in row):
        return False
    lines = rows if side == "left" else list(zip(*rows))
    return all(
        all(x in (0, 1, -1) for x in line) and sum(x != 0 for x in line) <= 1
        for line in lines
    )


@pytest.mark.parametrize("mode", ["nls", "heat"])
def test_selections_never_reach_the_product_kernel(mode, monkeypatch, tmp_path):
    calls = []
    product = series._product

    def recorded(salg, xs, ys):
        calls.append([s for row in xs for s in row if _selection_constant(s, "left")]
                     + [s for row in ys for s in row if _selection_constant(s, "right")])
        return product(salg, xs, ys)

    monkeypatch.setattr(series, "_product", recorded)
    code = cli_main(["nls", "--N", "1", "--mode", mode, "--cap", "5",
                     "--report", str(tmp_path / "report.json")])
    assert code == 0
    assert calls
    assert not [c for c in calls if c]


def test_nls_mode_requires_gaussian_scalars():
    with pytest.raises(ValueError):
        NlsParams(
            N=1, r=2, cap=6, b=1, c=[1], d=[1], a=[1],
            mode="nls", scalar="rational",
        ).validate()


# -- scalar closed form ------------------------------------------------------


SAMPLE = (  # a, alpha, beta
    GaussianRational(Fraction(1, 2), Fraction(1, 3)),
    GaussianRational(2, 1),
    GaussianRational(1, -1),
)


def _sample_comparison(cap=8):
    return nls_scalar_closed_form(*SAMPLE, cap=cap)


def test_scalar_closed_form_origin_exact():
    # the matched series starts at the closed form's exact origin value
    # 2 (a + conj a) conj(alpha) beta / (|alpha|^2 - |beta|^2)
    cmp = _sample_comparison()
    a, alpha, beta = SAMPLE
    gap = alpha * alpha.conjugate() - beta * beta.conjugate()
    origin = 2 * (a + a.conjugate()) * alpha.conjugate() * beta * gap.reciprocal()
    assert cmp.orientation.matched == ("via-gamma-21",)
    assert cmp.series.coeff((0, 0)) == origin


def test_scalar_closed_form_contact_order():
    cmp = _sample_comparison()
    assert cmp.report.equation == "scalar-closed-form"
    [entry] = cmp.report.entries
    assert cmp.report.passed and entry.exact_zero
    assert entry.valid_order == cmp.series.valid_order == 7


def test_scalar_closed_form_degenerate_inputs_rejected():
    one = GaussianRational(1)
    with pytest.raises(EvaluationSingularity):
        nls_scalar_closed_form(one, one, GaussianRational(0), cap=6)
    with pytest.raises(EvaluationSingularity):
        nls_scalar_closed_form(one, one, one, cap=6)  # |alpha| = |beta|


def test_scalar_closed_form_real_symmetric_branch():
    # real a with real alpha, beta: both orientations agree at the origin,
    # but only via-gamma-21 is the closed form (via-gamma-12 has +2/3 i at
    # degree 1 where the closed form has -2/3 i); on the u = 0 axis the
    # phase is trivial, so the series is real there
    a = GaussianRational(Fraction(1, 2))
    alpha = GaussianRational(2)
    beta = GaussianRational(1)
    cmp = nls_scalar_closed_form(a, alpha, beta, cap=7)
    assert cmp.orientation.matched == ("via-gamma-21",)
    assert cmp.report.passed and cmp.report.entries[0].exact_zero
    w = cmp.series
    assert all(w.coeff((0, n)).im == 0 for n in range(w.valid_order))


@pytest.mark.parametrize("exponent", [(0, 0), (1, 0), (0, 2), (3, 1)])
def test_scalar_closed_form_identity_sees_one_moved_coefficient(exponent):
    w = _sample_comparison().series
    assert solitons._closed_form_residual(w, *SAMPLE).is_zero()
    moved = with_coeff(w, exponent, w.coeff(exponent) + Fraction(1, 1000))
    assert not solitons._closed_form_residual(moved, *SAMPLE).is_zero()


def test_solitons_module_uses_no_floats():
    """The NLS scalar closed form is checked exactly: solitons.py imports
    neither cmath nor math and calls neither float() nor complex()."""
    tree = ast.parse(open(solitons.__file__, encoding="utf-8").read())
    imported, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    assert not imported & {"cmath", "math"}
    assert not called & {"float", "complex"}

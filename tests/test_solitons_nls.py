from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import QQI, MatrixAlgebra
from solitonlab.errors import BNotInvolutive, EvaluationSingularity
from solitonlab.quasidet import ConventionNote
from solitonlab.residual import check_data, check_nls
from solitonlab.scalars import GaussianRational
from solitonlab.solitons import (
    NlsParams,
    nls_build_f,
    nls_scalar_closed_form,
    nls_solution,
    random_nls_params,
)

M2I = MatrixAlgebra(QQI, 2)


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
        N=1, r=2, cap=6, b=M2I.scalar_mul(sign, M2I.one()),
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
    labels = {e.label for e in report.entries}
    assert {"cubic equation", "block equation (1,2)", "block equation (2,1)",
            "diagonal block (1,1)", "diagonal block (2,2)",
            "v-equation", "matrix cubic equation"} <= labels


def test_heat_mode_over_plain_rationals():
    rng = Random(29)
    sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=6, mode="heat",
                                         scalar="rational"))
    assert sol.data.algebra.scalar_field.__class__.__name__ == "Rationals"
    report = check_nls(sol.U, sol.data.b, sol.data.d0, sol.data.d,
                       gamma=sol.cell)
    assert report.passed and report.exact


def test_nls_mode_requires_gaussian_scalars():
    with pytest.raises(ValueError):
        NlsParams(
            N=1, r=2, cap=6, b=1, c=[1], d=[1], a=[1],
            mode="nls", scalar="rational",
        ).validate()


# -- scalar closed form ------------------------------------------------------


def _sample_comparison(cap=8):
    return nls_scalar_closed_form(
        GaussianRational(Fraction(1, 2), Fraction(1, 3)),
        GaussianRational(2, 1),
        GaussianRational(1, -1),
        cap=cap,
    )


def test_scalar_closed_form_origin_exact():
    cmp = _sample_comparison()
    assert cmp.origin_exact_match
    assert cmp.orientation.matched  # one of the two conjugate orientations


def test_scalar_closed_form_contact_order():
    cmp = _sample_comparison()
    assert abs(cmp.slope - cmp.valid_order) <= 1.0


def test_scalar_closed_form_degenerate_inputs_rejected():
    one = GaussianRational(1)
    with pytest.raises(EvaluationSingularity):
        nls_scalar_closed_form(one, one, GaussianRational(0), cap=6)
    with pytest.raises(EvaluationSingularity):
        nls_scalar_closed_form(one, one, one, cap=6)  # |alpha| = |beta|


def test_scalar_closed_form_real_symmetric_branch():
    # real a with real alpha, beta: on the u = 0 axis the phase is trivial
    # and the solution value is exactly real (a real multiple of 1/sinh)
    a = GaussianRational(Fraction(1, 2))
    alpha = GaussianRational(2)
    beta = GaussianRational(1)
    cmp = nls_scalar_closed_form(a, alpha, beta, cap=7)
    assert cmp.origin_exact_match
    for v in (Fraction(1, 8), Fraction(-1, 5)):
        value = cmp.series.evaluate((Fraction(0), v))
        assert value.im == 0

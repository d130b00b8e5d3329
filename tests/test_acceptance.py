"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every exact criterion demands residual coefficients that are the exact zero
of their algebra (never a small number); the two numeric criteria state their
tolerances inline.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from conftest import fraction_det, with_coeff
from solitonlab.algebra import QQ, MatrixAlgebra, random_element
from solitonlab.cli import main as cli_main
from solitonlab.errors import SingularMatrix, SingularSubmatrix
from solitonlab.quasidet import (
    ConventionNote,
    FrobeniusCell,
    frobenius_gamma,
    frobenius_quotient,
    quasideterminant,
    wronski,
)
from solitonlab.residual import (
    check_data,
    check_langmuir,
    check_marchenko,
    check_marchenko_lattice,
    check_nls,
    check_toda,
)
from solitonlab.scalars import GaussianRational
from solitonlab.series import D_T, D_U, D_V
from solitonlab.solitons import (
    langmuir_build_f,
    langmuir_solution,
    nls_scalar_closed_form,
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


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_quasideterminant_determinant_oracle():
    with criterion(1, "quasideterminant ratio oracle, 100 matrices per size 2..4, < 10 s"):
        rng = Random(101)
        started = time.perf_counter()
        checked = 0
        for size in (2, 3, 4):
            alg = MatrixAlgebra(QQ, size)
            for _ in range(100):
                m = random_element(alg, rng)
                rows = [list(r) for r in m.rows]
                full = fraction_det(rows)
                for i in range(size):
                    for j in range(size):
                        sub = [r[:j] + r[j + 1:]
                               for k, r in enumerate(rows) if k != i]
                        sub_det = fraction_det(sub)
                        if sub_det == 0:
                            continue
                        value = quasideterminant(m, i, j)
                        assert value * sub_det == (-1) ** (i + j) * full
                        checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert checked > 2500


def test_criterion_2_frobenius_shape_and_bottom_row_recurrence():
    with criterion(2, "20 random Wronskians (N <= 3): exact shape and gamma*W = dW"):
        from solitonlab.errors import SingularWronskian

        rng = Random(202)

        def fresh_pair(idx):
            n_modes = 1 + idx % 3
            if idx % 2 == 0:
                data = toda_build_f(
                    random_toda_params(rng, n=2, N=n_modes, r=1,
                                       cap=n_modes + 4)
                )
                return wronski([data.f[0][j] for j in range(n_modes)], D_V)
            data = langmuir_build_f(
                random_langmuir_params(rng, N=n_modes, r=1,
                                       cap=n_modes + 5, window=2)
            )
            return wronski(data.f[0], data.d)

        done = 0
        idx = 0
        while done < 20:
            wp = fresh_pair(idx)
            idx += 1
            try:
                cell = frobenius_gamma(wp)  # defining-relation check inside
            except SingularWronskian:
                continue  # resample singular draws
            prod = cell * wp.W
            for i in range(wp.N):
                for j in range(wp.N):
                    assert prod.entry(i, j) == wp.dW.entry(i, j)
            done += 1


def test_criterion_3_frobenius_quotient_matches_matrix_quotient():
    with criterion(3, "100 random cell pairs (N <= 4, 2x2 matrix entries): closed form = K * L^-1"):
        rng = Random(303)
        base = MatrixAlgebra(QQ, 2)
        done = 0
        while done < 100:
            n = 2 + done % 3  # N in {2, 3, 4}
            k = FrobeniusCell(
                base, [random_element(base, rng) for _ in range(n)]
            )
            l = FrobeniusCell(
                base, [random_element(base, rng) for _ in range(n)]
            )
            try:
                direct = k * l.inverse()
            except SingularMatrix:
                continue  # resample singular divisor cells
            assert frobenius_quotient(k, l) == direct
            done += 1


def test_criterion_4_shift_identity_on_constructed_data():
    with criterion(4, "shift-lemma hypotheses + zero residual, n in 2..4, N in 1..2, cap 8"):
        for n in (2, 3, 4):
            for n_modes in (1, 2):
                rng = Random(1000 * n + n_modes)
                sol = toda_solution(
                    random_toda_params(rng, n=n, N=n_modes, r=1, cap=8)
                )
                gammas, diags = toda_shift_data(sol)
                report = check_marchenko(gammas, diags, D_U, D_V)
                assert report.passed, f"n={n}, N={n_modes}"
                for entry in report.entries:
                    assert entry.exact_zero


def test_criterion_5_periodic_lattice_field_residuals():
    with criterion(5, "12 lattice-field combinations, exact zero residuals, < 2 min"):
        started = time.perf_counter()
        for n in (2, 3, 4):
            for n_modes in (1, 2):
                for r in (1, 2):
                    seed = n * 100 + n_modes * 10 + r
                    rng = Random(seed)
                    cap = n_modes + 6
                    sol = toda_solution(
                        random_toda_params(rng, n=n, N=n_modes, r=r, cap=cap)
                    )
                    assert check_data("toda", sol.data).passed
                    report = check_toda(sol.gs, D_U, D_V)
                    assert report.passed, f"n={n}, N={n_modes}, r={r}"
                    for entry in report.entries:
                        assert entry.exact_zero
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_6_two_periodic_system(tmp_path):
    with criterion(6, "alternating 2-periodic system: closed forms, residuals, recorded reading"):
        rng = Random(606)
        one = sine_gordon_solution(random_sine_gordon_params(rng, N=1, r=1, cap=7))
        assert one.closed_forms is not None
        for cf, g in zip(one.closed_forms, one.gs):
            assert cf == g
        assert check_toda(list(one.gs), D_U, D_V).passed

        report_path = tmp_path / "sg.json"
        code = cli_main([
            "sine-gordon", "--N", "2", "--seed", "606",
            "--report", str(report_path),
        ])
        assert code == 0
        body = json.loads(report_path.read_text())
        assert body["passed"] is True
        recorded = [
            c for c in body["conventions"]
            if isinstance(c, dict)
            and c.get("topic") == "two-mode-closed-form-second-factor"
        ]
        assert recorded and recorded[0]["matched"] == ["site-consistent"]


def test_criterion_7_lattice_window_and_identities():
    with criterion(7, "lattice lemma identities + window residuals, N in 1..2, cap 10"):
        for n_modes in (1, 2):
            rng = Random(707 + n_modes)
            params = random_langmuir_params(
                rng, N=n_modes, r=1, cap=10, window=7
            )
            data = langmuir_build_f(params)
            assert check_data("langmuir", data).passed
            gamma = {k: wronski(data.f[k], D_T).W for k in data.sites}
            lemma = check_marchenko_lattice(gamma, data.a, D_T)
            assert lemma.passed
            kinds = {e.label.split(" site")[0] for e in lemma.entries}
            assert kinds == {
                "lattice-equation", "increment-product",
                "increment-shift", "additive-quotient",
            }
            sol = langmuir_solution(params, data=data)
            report = check_langmuir(sol.gs, D_T)
            assert report.passed
            interior = [k for k in sol.gs if k - 1 in sol.gs and k + 1 in sol.gs]
            assert len(interior) >= 5
            for entry in report.entries:
                assert entry.exact_zero
            if n_modes == 1:
                for k in range(params.window):
                    assert sol.closed_forms[k] == sol.gs[k]
                assert any("commutative" in e.label for e in report.entries)


def test_criterion_8_cubic_equation_and_blocks():
    with criterion(8, "cubic matrix equation, blocks, and v-equation, N in 1..2, cap 8"):
        for n_modes in (1, 2):
            rng = Random(808 + n_modes)
            sol = nls_solution(random_nls_params(rng, N=n_modes, r=2, cap=8))
            assert check_data("nls", sol.data).passed
            report = check_nls(
                sol.U, sol.data.b, sol.data.d0, sol.data.d, gamma=sol.cell
            )
            assert report.passed, f"N={n_modes}"
            labels = {e.label for e in report.entries}
            assert {"cubic equation", "block equation (1,2)",
                    "block equation (2,1)", "v-equation"} <= labels
            for entry in report.entries:
                assert entry.exact_zero


def test_criterion_9_scalar_closed_form_contact_order():
    # the series identity w (z zbar - 1) = 2 (a + conj a) zbar holding
    # through valid order 7 implies contact of that order with the closed form
    with criterion(9, "scalar closed form: exact identity holds through valid order 7 at cap 8"):
        cmp = nls_scalar_closed_form(
            GaussianRational(Fraction(1, 2), Fraction(1, 3)),
            GaussianRational(2, 1),
            GaussianRational(1, -1),
            cap=8,
        )
        assert cmp.orientation.matched
        [entry] = cmp.report.entries
        assert cmp.report.passed and entry.exact_zero
        assert entry.valid_order == 7


def _corrupt(series, rng, max_degree):
    exps = [e for e in series.algebra.exponents if sum(e) <= max_degree]
    exponent = rng.choice(exps)
    return with_coeff(
        series, exponent, series.coeff(exponent) + series.algebra.coeff.one()
    )


def test_criterion_10_mutation_sensitivity():
    with criterion(10, "10 random single-coefficient corruptions per system all flip the verdict"):
        rng = Random(1010)

        toda_sol = toda_solution(random_toda_params(rng, n=2, N=1, r=1, cap=8))
        for _ in range(10):
            bad = _corrupt(toda_sol.gs[0], rng,
                           toda_sol.gs[0].valid_order - 3)
            assert not check_toda([bad, toda_sol.gs[1]], D_U, D_V).passed

        sg_sol = sine_gordon_solution(
            random_sine_gordon_params(rng, N=1, r=1, cap=8)
        )
        for _ in range(10):
            bad = _corrupt(sg_sol.gs[0], rng, sg_sol.gs[0].valid_order - 3)
            assert not check_toda([bad, sg_sol.gs[1]], D_U, D_V).passed

        lm_sol = langmuir_solution(
            random_langmuir_params(rng, N=1, r=1, cap=10, window=5)
        )
        mid = sorted(lm_sol.gs)[2]
        for _ in range(10):
            gs = dict(lm_sol.gs)
            gs[mid] = _corrupt(gs[mid], rng, gs[mid].valid_order - 2)
            assert not check_langmuir(gs, D_T).passed

        nls_sol = nls_solution(random_nls_params(rng, N=1, r=2, cap=8))
        for _ in range(10):
            bad = _corrupt(nls_sol.U, rng, nls_sol.U.valid_order - 3)
            assert not check_nls(
                bad, nls_sol.data.b, nls_sol.data.d0, nls_sol.data.d
            ).passed


def test_criterion_11_deterministic_reports(tmp_path):
    with criterion(11, "fixed seed: repeated runs produce byte-identical reports"):
        for system, extra in (
            ("toda", ["--n", "3", "--N", "2", "--cap", "8"]),
            ("nls", ["--N", "1"]),
        ):
            paths = [tmp_path / f"{system}-{i}.json" for i in (0, 1)]
            for path in paths:
                code = cli_main(
                    [system, *extra, "--seed", "42", "--report", str(path)]
                )
                assert code == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from conftest import with_coeff
import solitonlab
from solitonlab.cli import main
from solitonlab.errors import SingularSubmatrix


def run_cli(args, tmp_path, monkeypatch=None):
    report = tmp_path / "report.json"
    code = main(args + ["--report", str(report)])
    body = json.loads(report.read_text()) if report.exists() else None
    return code, body


def test_toda_run_passes(tmp_path):
    code, body = run_cli(
        ["toda", "--n", "3", "--N", "2", "--r", "1", "--cap", "8",
         "--seed", "42"],
        tmp_path,
    )
    assert code == 0
    assert body["passed"] is True
    assert body["dimensions"] == {"n": 3, "N": 2, "r": 1, "cap": 8}
    assert {c["equation"] for c in body["checks"]} == {"toda-data", "toda"}
    for check in body["checks"]:
        for entry in check["entries"]:
            assert entry["exact_zero"] is True


def test_invalid_period_is_config_error(tmp_path, capsys):
    code = main(["toda", "--n", "0", "--seed", "1",
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_flag_value_exits_two(tmp_path, capsys):
    assert main(["toda", "--n", "three"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: argument --n: invalid int value: 'three'\n"
    )


@pytest.mark.parametrize("args", [
    ["toda", "--n", "three"],
    ["nls", "--cap", "1.5"],
    ["langmuir", "--scalar", "real"],
    ["nls", "--mode"],
    ["sine-gordon", "--seed"],
    ["quasidet-selftest", "--trials", "many"],
    ["wave"],
    [],
])
def test_malformed_command_line_exits_two_with_one_line(args, tmp_path, capsys):
    # argparse's own usage block and exit are routed through ConfigError
    report = tmp_path / "r.json"
    assert main(args + ["--report", str(report)] * bool(args)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not report.exists()


# each bad command line and the one error line it must print
_SIZE_ERRORS = {
    **{f"{system} --r {r}": "matrix dimension must be positive"
       for system in ("toda", "sine-gordon", "langmuir", "nls") for r in ("0", "-1")},
    "langmuir --window 1": "the site window needs at least 3 sites",
    "langmuir --window 2": "the site window needs at least 3 sites",
    "langmuir --window 0": "the site window needs at least 3 sites",
    "quasidet-selftest --trials 0": "trials must be at least 1",
    "quasidet-selftest --trials -3": "trials must be at least 1",
    "nls --scalar rational": "mode 'nls' needs gaussian-rational scalars for i",
    "nls --r 1": "block size r must be at least 2: with b = +/-1 the solution"
                 " U = g b - b g is identically zero",
    "toda --max-resample 0": "max_resample must be at least 1",
    "toda --max-resample -3": "max_resample must be at least 1",
    "toda --dump-series --dump-degree -1": "dump_degree must be at least 0",
}


@pytest.mark.parametrize("args", [line.split() for line in _SIZE_ERRORS])
def test_bad_sizes_exit_two_with_one_line(args, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(args + ["--seed", "1", "--report", str(report)]) == 2
    message = _SIZE_ERRORS[" ".join(args)]
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("args", [
    ["toda", "--n", "2", "--cap", "5"],
    ["quasidet-selftest", "--trials", "2"],
])
def test_unwritable_report_exits_two_with_one_line(args, tmp_path, capsys):
    report = tmp_path / "missing" / "x.json"
    assert main(args + ["--seed", "1", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write report ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["toda", "--n", "2", "--N", "1", "--with-lemmas", "--seed", "1"],
    ["sine-gordon", "--N", "1", "--with-lemmas", "--seed", "1"],
    ["langmuir", "--N", "1", "--with-lemmas", "--seed", "1"],
    ["nls", "--mode", "heat", "--N", "2", "--seed", "1"],
    ["toda", "--n", "2", "--N", "2", "--r", "2", "--seed", "1"],
    # r = 2 lemma draws whose shift-lemma checks failed from rounding alone
    # in the former complex-float mode
    *(["toda", "--n", "2", "--N", "1", "--r", "2", "--with-lemmas", "--seed", s]
      for s in ("2", "3", "6")),
    *(["toda", "--n", "2", "--N", "2", "--r", "2", "--with-lemmas", "--seed", s]
      for s in ("1", "2", "3", "5")),
    *(["langmuir", "--N", "1", "--r", "2", "--with-lemmas", "--seed", s]
      for s in ("2", "4")),
    ["sine-gordon", "--N", "1", "--r", "2", "--with-lemmas", "--seed", "2"],
])
def test_gf_p_runs_pass(args, tmp_path):
    code, body = run_cli(args + ["--scalar", "gf-p"], tmp_path)
    assert code == 0
    assert body["passed"] is True
    for check in body["checks"]:
        assert check["exact"] is False


def test_selftest_that_checked_nothing_fails(tmp_path, monkeypatch):
    import solitonlab.cli as cli_mod

    # every submatrix looks singular, and the quasideterminant agrees, so no
    # position is examined
    def singular(m, i, j):
        raise SingularSubmatrix("singular")

    monkeypatch.setattr(cli_mod, "_cofactor_det", lambda rows: 0)
    monkeypatch.setattr(cli_mod, "quasideterminant", singular)
    code, body = run_cli(
        ["quasidet-selftest", "--trials", "3", "--seed", "7"], tmp_path
    )
    assert body["positions_checked"] == 0 and body["failures"] == []
    assert body["passed"] is False
    assert code == 1


def test_selftest_fails_a_value_at_a_singular_position(tmp_path, monkeypatch):
    import solitonlab.cli as cli_mod

    # the reference calls every submatrix singular, but the quasideterminant
    # returns a value at each position instead of raising SingularSubmatrix
    monkeypatch.setattr(cli_mod, "_cofactor_det", lambda rows: 0)
    code, body = run_cli(
        ["quasidet-selftest", "--trials", "3", "--seed", "7"], tmp_path
    )
    assert body["positions_skipped_singular"] == 4 + 9 + 16
    # one of the 29 submatrices of these draws is singular, and raises there
    assert len(body["failures"]) == 28
    assert body["passed"] is False
    assert code == 1


@pytest.mark.parametrize("tamper", [
    # one more at (1, 0) of the first trial, a 2 x 2 with a nonzero S
    lambda i, j, v: v + 1 if (i, j) == (1, 0) else None,
    # the value negated where i + j is odd, so the sign of the identity
    # decides the verdict
    lambda i, j, v: -v if (i + j) % 2 and v else None,
], ids=["plus-one", "negated-odd"])
def test_selftest_names_exactly_a_wrong_value(tamper, tmp_path, monkeypatch):
    import solitonlab.cli as cli_mod

    args = ["quasidet-selftest", "--trials", "6", "--seed", "7"]
    code, body = run_cli(args, tmp_path)
    assert code == 0 and body["failures"] == []

    # the value of the first position ``tamper`` accepts is replaced
    real = cli_mod.quasideterminant
    seen = {"m": None, "trial": -1, "target": None}

    def tampered(m, i, j):
        value = real(m, i, j)
        if m is not seen["m"]:  # each trial draws a new matrix
            seen["m"], seen["trial"] = m, seen["trial"] + 1
        wrong = None if seen["target"] else tamper(i, j, value)
        if wrong is None:
            return value
        seen["target"] = {"trial": seen["trial"], "size": m.dim, "i": i, "j": j}
        return wrong

    monkeypatch.setattr(cli_mod, "quasideterminant", tampered)
    code, body = run_cli(args, tmp_path)
    assert seen["target"] is not None
    assert body["failures"] == [seen["target"]]
    assert body["passed"] is False and code == 1


@pytest.mark.parametrize("size", range(1, 6))
def test_cofactor_det_matches_sympy(size):
    import sympy

    from solitonlab.cli import _cofactor_det

    rng = Random(f"cofactor {size}")
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert _cofactor_det(rows) == sympy.Matrix(rows).det()


def test_report_names_the_scalar_field_computed_over(tmp_path):
    code, body = run_cli(
        ["nls", "--N", "1", "--mode", "heat", "--scalar", "gf-p",
         "--cap", "6", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    assert body["scalar_mode"] == "gf-p"
    for check in body["checks"]:
        assert check["exact"] is False
        for entry in check["entries"]:
            assert entry["exact_zero"] is None


def test_selftest(tmp_path):
    code, body = run_cli(
        ["quasidet-selftest", "--trials", "30", "--seed", "7"], tmp_path
    )
    assert code == 0
    assert body["failures"] == []
    assert body["positions_checked"] > 0


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["langmuir", "--N", "1", "--seed", "11",
                 "--report", str(a)]) == 0
    assert main(["langmuir", "--N", "1", "--seed", "11",
                 "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timings_flag_adds_section_and_breaks_nothing(tmp_path):
    code, body = run_cli(
        ["toda", "--n", "2", "--N", "1", "--seed", "5", "--timings"], tmp_path
    )
    assert code == 0
    assert "timings" in body


def test_dump_series(tmp_path):
    code, body = run_cli(
        ["toda", "--n", "2", "--N", "1", "--seed", "5", "--dump-series",
         "--dump-degree", "2"],
        tmp_path,
    )
    assert code == 0
    dumped = body["series"]["g[0]"]
    assert dumped, "expected at least the constant coefficient"
    for record in dumped:
        assert sum(record["exponents"]) <= 2
        assert isinstance(record["coefficient"], str)
        assert "/" in record["coefficient"] or record["coefficient"].lstrip(
            "-"
        ).isdigit()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "toda", "n": 2, "N": 1, "cap": 7, "seed": 3,
    }))
    code, body = run_cli(
        ["toda", "--config", str(cfg), "--seed", "4"], tmp_path
    )
    assert code == 0
    assert body["seed"] == 4  # flag wins
    assert body["dimensions"]["n"] == 2


def test_config_system_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "nls"}))
    code = main(["toda", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")])
    assert code == 2


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    code = main(["toda", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")])
    assert code == 2


def test_explicit_params_exact_strings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "toda",
        "n": 2, "N": 1, "cap": 6,
        "params": {
            "a": [["2/3"], ["5/7"]],
            "p": [["1", "1/2"]],
        },
    }))
    code, body = run_cli(["toda", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert body["seed"] is None
    assert body["passed"] is True


def test_explicit_params_reject_floats(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "toda",
        "n": 2, "N": 1, "cap": 6,
        "params": {"a": [[0.5], [1]], "p": [[1, 1]]},
    }))
    code = main(["toda", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "floats are rejected" in capsys.readouterr().err


def test_explicit_singular_params_exit_three(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "langmuir",
        "N": 1, "cap": 6, "window": 3,
        "scalar": "gaussian-rational",
        "params": {"p": ["1"], "q": ["1"], "mu": ["i"]},
    }))
    code = main(["langmuir", "--config", str(cfg),
                 "--report", str(tmp_path / "r.json")])
    assert code == 3


def test_report_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLITONLAB_REPORT_DIR", str(tmp_path))
    code = main(["toda", "--n", "2", "--N", "1", "--seed", "6"])
    assert code == 0
    assert (tmp_path / "toda-report.json").exists()


def test_nls_cli_with_scalar_form(tmp_path):
    code, body = run_cli(
        ["nls", "--N", "1", "--seed", "2", "--scalar-form"], tmp_path
    )
    assert code == 0
    [check] = [c for c in body["checks"] if c["equation"] == "scalar-closed-form"]
    [entry] = check["entries"]
    assert check["passed"] and entry["exact_zero"] is True
    notes = {c["topic"]: c for c in body["conventions"] if isinstance(c, dict)}
    orientation = notes["scalar-closed-form-orientation"]
    assert orientation["candidates"] == ["via-gamma-12", "via-gamma-21"]
    assert orientation["matched"]
    assert "cubic-solution-entry" in notes


def test_nls_cli_scalar_form_fails_on_a_broken_identity(tmp_path, monkeypatch):
    from solitonlab import solitons

    exact = solitons._closed_form_residual

    def moved(w, *args):
        return exact(with_coeff(w, (1, 0), w.coeff((1, 0)) + Fraction(1, 1000)), *args)

    monkeypatch.setattr(solitons, "_closed_form_residual", moved)
    code, body = run_cli(
        ["nls", "--N", "1", "--seed", "2", "--scalar-form"], tmp_path
    )
    assert code == 1 and body["passed"] is False
    [check] = [c for c in body["checks"] if c["equation"] == "scalar-closed-form"]
    assert check["passed"] is False and check["entries"][0]["exact_zero"] is False
    [orientation] = [c for c in body["conventions"] if isinstance(c, dict)
                     and c["topic"] == "scalar-closed-form-orientation"]
    assert orientation["matched"] == []


def test_sine_gordon_cli_records_reading(tmp_path):
    code, body = run_cli(
        ["sine-gordon", "--N", "2", "--seed", "3", "--with-lemmas"], tmp_path
    )
    assert code == 0
    topics = [c["topic"] for c in body["conventions"] if isinstance(c, dict)]
    assert "two-mode-closed-form-second-factor" in topics
    equations = {c["equation"] for c in body["checks"]}
    assert {"toda-data", "toda", "toda-gamma", "marchenko"} <= equations


def test_exit_one_when_a_check_fails(tmp_path, monkeypatch):
    # exit status must track the report verdict, so force one check to fail
    import solitonlab.cli as cli_mod
    from solitonlab.residual import ResidualEntry, ResidualReport

    def failing_check(gs, d1, d2):
        report = ResidualReport("toda", exact=True)
        report.entries.append(
            ResidualEntry("site 0", passed=False, max_magnitude=1.0,
                          valid_order=3, exact_zero=False)
        )
        return report

    monkeypatch.setattr(cli_mod, "check_toda", failing_check)
    report = tmp_path / "r.json"
    code = cli_mod.main(["toda", "--n", "2", "--N", "1", "--seed", "5",
                         "--report", str(report)])
    assert code == 1
    assert json.loads(report.read_text())["passed"] is False


def test_module_entrypoint_runs(tmp_path):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(solitonlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "solitonlab.cli", "toda", "--n", "2",
         "--N", "1", "--seed", "1", "--report", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


# what the error line says each key must be
_KIND_ERRORS = {
    "dump_degree": "an integer or null", "report": "a string or null",
    "timings": "true or false", "dump_series": "true or false",
    "with_lemmas": "true or false", "scalar_form": "true or false",
    "cap": "an integer or null", "scalar": "a string", "mode": "a string",
}


@pytest.mark.parametrize("key, value", [
    ("dump_degree", "2"),
    ("report", 7),
    ("timings", "yes"),
    ("dump_series", 1),
    ("with_lemmas", "true"),
    ("scalar_form", None),
    ("cap", True),
    ("scalar", ["rational"]),
    ("mode", 3),
])
def test_bad_config_types_exit_two_with_one_line(key, value, tmp_path,
                                                 monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("SOLITONLAB_REPORT_DIR", str(out))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 1, "seed": 1, key: value}))
    assert main(["nls", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {key} must be {_KIND_ERRORS[key]}\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("scalar, a", [
    ("rational", "1/0"),
    ("gaussian-rational", "1/0"),
    ("gaussian-rational", "2/0*i"),
    ("gaussian-rational", "1/0+1*i"),
    ("gf-p", "1/0"),
    ("gf-p", "1/2147483647"),  # no residue modulo 2**31 - 1
])
def test_unrepresentable_config_scalar_exits_two_with_one_line(
        scalar, a, tmp_path, capsys):
    cfg = tmp_path / "z.json"
    cfg.write_text(json.dumps({
        "n": 2, "N": 1, "cap": 6, "scalar": scalar,
        "params": {"a": [[a], ["1"]], "p": [["1", "1/2"]]},
    }))
    report = tmp_path / "r.json"
    assert main(["toda", "--config", str(cfg), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and a in err
    assert err.count("\n") == 1
    assert not report.exists()


def test_config_file_not_utf8_exits_two_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    report = tmp_path / "r.json"
    assert main(["toda", "--config", str(cfg), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config {cfg}: ")
    assert err.count("\n") == 1
    assert not report.exists()


def _nls_config(tmp_path, b):
    one = [["1", "0"], ["0", "1"]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "nls", "N": 1, "r": 2, "cap": 6,
        "params": {"b": b, "c": [one], "d": [one], "a": [one]},
    }))
    return cfg


@pytest.mark.parametrize("b", [
    [["1", "1"], ["0", "1"]],  # b*b != 1
    [["1", "0"], ["0", "1"]],  # b = 1: U = g b - b g vanishes
    [["-1", "0"], ["0", "-1"]],
])
def test_explicit_bad_grading_exits_two(b, tmp_path, capsys):
    report = tmp_path / "r.json"
    cfg = _nls_config(tmp_path, b)
    assert main(["nls", "--config", str(cfg), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not report.exists()


def test_internal_failure_exits_four(tmp_path, monkeypatch, capsys):
    import solitonlab.cli as cli_mod
    from solitonlab.errors import VerificationError

    def broken(params):
        raise VerificationError("cross-check disagrees")

    monkeypatch.setattr(cli_mod, "toda_solution", broken)
    report = tmp_path / "r.json"
    assert main(["toda", "--seed", "1", "--report", str(report)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: cross-check disagrees\n"
    assert not report.exists()


def test_wrong_wronski_inverse_exits_four(tmp_path, monkeypatch, capsys):
    from solitonlab.series import SeriesAlgebra

    solve = SeriesAlgebra.row_solve

    def corrupted(self, y, m):
        row = solve(self, y, m)
        return (row[0] + 1,) + row[1:]  # one coefficient off by one

    monkeypatch.setattr(SeriesAlgebra, "row_solve", corrupted)
    report = tmp_path / "r.json"
    assert main(["toda", "--n", "2", "--N", "2", "--seed", "1",
                 "--report", str(report)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "defining relation" in err
    assert err.count("\n") == 1
    assert not report.exists()


def test_config_file_trials_are_used(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "seed": 2}))
    code, body = run_cli(["quasidet-selftest", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert body["trials"] == 5
    cfg.write_text(json.dumps({"trials": 0}))
    code, _ = run_cli(["quasidet-selftest", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: trials must be at least 1\n"
    )


@pytest.mark.parametrize("scalar, kind", [
    ("rational", "rational"),
    ("gaussian-rational", "Gaussian rational"),
    ("gf-p", "rational"),
])
@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000"])
def test_decimal_exponent_and_underscore_scalars_exit_two(scalar, kind, text, tmp_path,
                                                          capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "toda", "n": 2, "N": 1, "cap": 6, "scalar": scalar,
        "params": {"a": [[text], ["1"]], "p": [["1", "1/2"]]},
    }))
    report = tmp_path / "r.json"
    assert main(["toda", "--config", str(cfg), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"configuration error: bad {kind} {text!r}\n"
    assert not report.exists()


@pytest.mark.parametrize("scalar", ["rational", "gaussian-rational", "gf-p"])
def test_json_booleans_are_not_scalars(scalar, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "toda", "n": 2, "N": 1, "cap": 6, "scalar": scalar,
        "params": {"a": [[True], ["1"]], "p": [["1", "1/2"]]},
    }))
    report = tmp_path / "r.json"
    assert main(["toda", "--config", str(cfg), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: booleans are not scalars: True\n"
    )
    assert not report.exists()


def _write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("args, cfg", [
    (["nls", "--N", "1", "--mode", "heat", "--scalar-form"], None),
    (["nls", "--N", "1", "--mode", "heat", "--scalar", "gf-p", "--scalar-form"],
     None),
    (["toda"], {"system": "toda", "n": 2, "N": 1, "scalar_form": True}),
])
def test_scalar_form_outside_nls_mode_exits_two(args, cfg, tmp_path, capsys):
    # the closed form is the Schroedinger reduction over QQ(i); no other run
    # computes anything it could be compared with
    if cfg is not None:
        args = args + ["--config", str(_write_config(tmp_path, cfg))]
    report = tmp_path / "r.json"
    assert main(args + ["--seed", "3", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "scalar_form" in err
    assert err.count("\n") == 1
    assert not report.exists()


_ONE = [["1", "0"], ["0", "1"]]
_THREE = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("cfg, name", [
    # an array of the wrong shape, or missing
    ({"system": "toda", "n": 2, "N": 2,
      "params": {"a": [["2", "3"], ["5", "7"]], "p": [["1", "1/2"]]}}, "p"),
    ({"system": "sine-gordon", "N": 2,
      "params": {"p": ["1", "2"], "q": ["1"], "a": ["2", "3"]}}, "q"),
    ({"system": "langmuir", "N": 1,
      "params": {"p": ["1"], "q": ["2"], "mu": "3/2"}}, "mu"),
    ({"system": "nls", "N": 1,
      "params": {"b": [["1", "0"], ["0", "-1"]], "c": [_ONE], "a": [_ONE]}}, "d"),
    # an r = 2 block of the wrong size
    ({"system": "toda", "n": 2, "N": 1, "r": 2,
      "params": {"a": [[_ONE], [_THREE]], "p": [[_ONE, _ONE]]}}, "a"),
    ({"system": "sine-gordon", "N": 1, "r": 2,
      "params": {"p": [[["1", "0"]]], "q": [_ONE], "a": [_ONE]}}, "p"),
    ({"system": "langmuir", "N": 1, "r": 2,
      "params": {"p": [_ONE], "q": ["1"], "mu": [_ONE]}}, "q"),
    ({"system": "nls", "N": 1, "r": 2,
      "params": {"b": [["1", "0"]], "c": [_ONE], "d": [_ONE], "a": [_ONE]}}, "b"),
    # params that are not an object
    *(({"system": system, "params": [["1"]]}, "params")
      for system in ("toda", "sine-gordon", "langmuir", "nls")),
])
def test_explicit_array_errors_name_the_array(cfg, name, tmp_path, capsys):
    report = tmp_path / "r.json"
    path = _write_config(tmp_path, cfg)
    assert main([cfg["system"], "--config", str(path), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(tuple(f"configuration error: {name}{c}" for c in " :"))
    assert err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("system, extra", [
    ("toda", "q"), ("sine-gordon", "mu"), ("langmuir", "a"), ("nls", "p"),
])
def test_explicit_array_the_system_does_not_take_exits_two(system, extra, tmp_path,
                                                           capsys):
    # each family's own explicit config, which runs, plus an array of another
    # family's: a name the system ignores would otherwise be silently dropped
    configs = Path(__file__).parent / "configs"
    [path] = configs.glob(f"{system}-*-explicit.json")
    cfg = json.loads(path.read_text())
    cfg["params"][extra] = cfg["params"][next(iter(cfg["params"]))]
    report = tmp_path / "r.json"
    args = [system, "--config", str(_write_config(tmp_path, cfg)), "--report", str(report)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {extra}: not a {system} array")
    assert err.count("\n") == 1
    assert not report.exists()


def test_every_subcommand_has_a_system_entry():
    from solitonlab import cli

    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert set(cli._SYSTEMS) | {"quasidet-selftest"} == set(sub.choices)
    # solvers and draws are named in the table and looked up in the module
    for spec in cli._SYSTEMS.values():
        assert callable(getattr(cli, spec.solve)) and callable(getattr(cli, spec.draw))


@pytest.mark.parametrize("args, cfg, unused", [
    (["toda"], {"n": 2, "window": 9, "mode": "heat", "trials": 0},
     "mode, trials, window"),
    (["toda"], {"n": 2, "scalar_form": False}, "scalar_form"),
    (["sine-gordon"], {"n": 2}, "n"),
    (["langmuir"], {"mode": "nls"}, "mode"),
    (["nls"], {"window": 5}, "window"),
    (["nls"], {"n": 3, "trials": 2}, "n, trials"),
    (["quasidet-selftest"], {"N": 2}, "N"),
    (["quasidet-selftest"], {"params": None, "dump_series": False},
     "dump_series, params"),
    (["nls"], {"with_lemmas": True}, "with_lemmas"),
])
def test_config_value_the_system_does_not_use_exits_two(
        args, cfg, unused, tmp_path, capsys):
    # a value the run would ignore is rejected, whatever it holds
    report = tmp_path / "r.json"
    argv = args + ["--config", str(_write_config(tmp_path, cfg)),
                   "--report", str(report)]
    assert main(argv) == 2
    system = args[0]
    assert capsys.readouterr().err == (
        f"configuration error: {system} does not use {unused}\n"
    )
    assert not report.exists()


@pytest.mark.parametrize("args, cfg", [
    (["toda", "--dump-degree", "2"], None),
    (["nls", "--N", "1", "--dump-degree", "0"], None),
    (["langmuir"], {"dump_degree": 3, "dump_series": False}),
])
def test_dump_degree_without_dump_series_exits_two(args, cfg, tmp_path, capsys):
    if cfg is not None:
        args = args + ["--config", str(_write_config(tmp_path, cfg))]
    report = tmp_path / "r.json"
    assert main(args + ["--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: dump_degree needs dump_series\n"
    )
    assert not report.exists()


def test_config_values_of_each_system_are_used(tmp_path):
    for args, cfg in [
        (["toda"], {"n": 2, "N": 1, "cap": 5, "seed": 1, "r": 1,
                    "scalar": "rational", "dump_series": True,
                    "dump_degree": 2, "with_lemmas": True, "timings": False,
                    "max_resample": 2, "params": None, "report": None}),
        (["langmuir"], {"N": 1, "window": 3, "cap": 6}),
        (["nls"], {"N": 1, "mode": "nls", "scalar_form": True, "cap": 5}),
        (["quasidet-selftest"], {"trials": 2, "seed": 1, "timings": False}),
    ]:
        path = _write_config(tmp_path, cfg)
        code, _ = run_cli(args + ["--config", str(path)], tmp_path)
        assert code == 0, args


def _spy_wronski(monkeypatch):
    """The argument tuples of every ``wronski`` call the solitons, residual
    and cli modules make."""
    from solitonlab import cli as cli_mod, residual, solitons
    from solitonlab.quasidet import wronski

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return wronski(*args, **kwargs)

    for module in (solitons, residual, cli_mod):
        monkeypatch.setattr(module, "wronski", spy)
    return calls


@pytest.mark.parametrize("lemmas, builds", [(True, 8), (False, 7)])
def test_langmuir_builds_each_wronski_pair_once(lemmas, builds, tmp_path,
                                                monkeypatch):
    # the solution keeps the pair of each of its 7 sites; the lemma check
    # builds only the one data site past them
    calls = _spy_wronski(monkeypatch)
    args = ["langmuir", "--N", "2", "--window", "5", "--cap", "8", "--seed", "1"]
    code, _ = run_cli(args + ["--with-lemmas"] * lemmas, tmp_path)
    assert code == 0
    assert len(calls) == builds


def test_nls_builds_its_wronski_pair_once(tmp_path, monkeypatch):
    # the data check reads the pair the solution keeps
    calls = _spy_wronski(monkeypatch)
    code, _ = run_cli(["nls", "--N", "2", "--cap", "7", "--seed", "1"], tmp_path)
    assert code == 0
    assert len(calls) == 1


def test_with_lemmas_flag_on_nls_exits_two_with_one_line(tmp_path, capsys):
    # nls has no lemma checker, so its subcommand has no --with-lemmas
    report = tmp_path / "r.json"
    assert main(["nls", "--N", "1", "--with-lemmas", "--report", str(report)]) == 2
    assert capsys.readouterr().err == "configuration error: nls does not use --with-lemmas\n"
    assert not report.exists()

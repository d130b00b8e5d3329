import json
import os
import subprocess
import sys

import pytest

import solitonlab
from solitonlab.cli import main


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


def test_bad_flag_value_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["toda", "--n", "three"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    *([system, "--r", r] for system in ("toda", "sine-gordon", "langmuir", "nls")
      for r in ("0", "-1")),
    ["langmuir", "--window", "1"],
    ["langmuir", "--window", "2"],
    ["quasidet-selftest", "--trials", "0"],
    ["quasidet-selftest", "--trials", "-3"],
    ["nls", "--scalar", "rational"],
    ["nls", "--r", "1"],
    ["toda", "--max-resample", "0"],
    ["toda", "--max-resample", "-3"],
    ["toda", "--dump-series", "--dump-degree", "-1"],
])
def test_bad_sizes_exit_two_with_one_line(args, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(args + ["--seed", "1", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
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
    ["toda", "--n", "2", "--N", "1", "--with-lemmas"],
    ["sine-gordon", "--N", "1", "--with-lemmas"],
    ["langmuir", "--N", "1", "--with-lemmas"],
    ["nls", "--mode", "heat", "--N", "2"],
    ["toda", "--n", "2", "--N", "2", "--r", "2"],
])
def test_complex_float_runs_pass(args, tmp_path):
    code, body = run_cli(
        args + ["--scalar", "complex-float", "--seed", "1"], tmp_path
    )
    assert code == 0
    assert body["passed"] is True
    for check in body["checks"]:
        assert check["exact"] is False


@pytest.mark.parametrize("args, failed", [
    (["langmuir", "--N", "2", "--r", "2", "--seed", "1"],
     "rows above the bottom are not the shifted identity"),
    (["langmuir", "--N", "1", "--with-lemmas", "--seed", "6"],
     "single-mode closed form disagrees with pipeline at site 4"),
], ids=["langmuir-N2-r2-seed1", "langmuir-N1-lemmas-seed6"])
def test_float_comparison_failure_exits_one(args, failed, tmp_path, capsys):
    # ill-conditioned float draws: rounding, not a bug, fails the comparison
    report = tmp_path / "r.json"
    code = main(args + ["--scalar", "complex-float", "--report", str(report)])
    assert code == 1
    assert capsys.readouterr().err == f"float comparison failed: {failed}\n"
    assert not report.exists()


def test_selftest_that_checked_nothing_fails(tmp_path, monkeypatch):
    import solitonlab.cli as cli_mod

    # every submatrix looks singular, so no position is examined
    monkeypatch.setattr(cli_mod, "_cofactor_det", lambda rows: 0)
    code, body = run_cli(
        ["quasidet-selftest", "--trials", "3", "--seed", "7"], tmp_path
    )
    assert body["positions_checked"] == 0 and body["failures"] == []
    assert body["passed"] is False
    assert code == 1


def test_report_names_the_scalar_field_computed_over(tmp_path):
    code, body = run_cli(
        ["nls", "--N", "1", "--mode", "heat", "--scalar", "complex-float",
         "--cap", "6", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    assert body["scalar_mode"] == "complex-float"
    for check in body["checks"]:
        assert check["exact"] is False


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
    topics = [c["topic"] for c in body["conventions"] if isinstance(c, dict)]
    assert "scalar-closed-form" in topics
    assert "cubic-solution-entry" in topics


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
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


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

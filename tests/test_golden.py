"""Byte-exact report oracle: fixed-seed runs must reproduce tests/golden/.

Each case runs through ``cli.run`` with default settings (no timings), so the
report bytes depend only on the arithmetic.  A refactor must leave every file
unchanged.  Rewrite the goldens (``python tests/test_golden.py``) only when
report content changes on purpose, and say why in CHANGES.md.
"""

from pathlib import Path

import pytest

from solitonlab import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "toda-n3-N2": ["toda", "--n", "3", "--N", "2", "--cap", "8"],
    "toda-n2-N1-lemmas": ["toda", "--n", "2", "--N", "1", "--cap", "6",
                          "--with-lemmas"],
    "sine-gordon-N2-lemmas": ["sine-gordon", "--N", "2", "--cap", "8",
                              "--with-lemmas"],
    "langmuir-N2-w5": ["langmuir", "--N", "2", "--window", "5", "--cap", "10"],
    "langmuir-N1-r2-lemmas": ["langmuir", "--N", "1", "--r", "2",
                              "--window", "4", "--cap", "8", "--with-lemmas"],
    "nls-N1": ["nls", "--N", "1", "--cap", "7"],
    "heat-N1-dump": ["nls", "--N", "1", "--mode", "heat", "--cap", "7",
                     "--dump-series"],
    "selftest-30": ["quasidet-selftest", "--trials", "30"],
}


def _report_bytes(args, path: Path) -> bytes:
    cfg = cli._merge_config(
        cli._build_parser().parse_args(args + ["--seed", "1", "--report", str(path)])
    )
    cli.run(cfg)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    got = _report_bytes(CASES[name], tmp_path / "report.json")
    assert got == (GOLDEN_DIR / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in CASES.items():
        _report_bytes(args, GOLDEN_DIR / f"{name}.json")

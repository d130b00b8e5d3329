"""Byte-exact report oracle: fixed-seed runs must reproduce tests/golden/.

Each case runs through ``cli.run`` with default settings (no timings), so the
report bytes depend only on the arithmetic.  A refactor must leave every file
unchanged.  Rewrite the goldens (``python tests/test_golden.py``) only when
report content changes on purpose, and say why in CHANGES.md.

The cases over QQ also run in ``gf-p`` mode, whose series must be the QQ
series reduced mod p: a differential test of the prime field against the
proven rational results.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from solitonlab import cli
from solitonlab.scalars import Residue

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG_DIR = Path(__file__).parent / "configs"


def _explicit(system, name):
    """A case that reads its explicit parameter arrays from tests/configs/."""
    return [system, "--config", str(CONFIG_DIR / f"{name}.json")]


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
    "nls-N2-dump": ["nls", "--N", "2", "--cap", "7", "--dump-series"],
    "toda-n3-N2-r2-dump": ["toda", "--n", "3", "--N", "2", "--r", "2",
                           "--cap", "7", "--dump-series"],
    "selftest-30": ["quasidet-selftest", "--trials", "30"],
    "selftest-300-s2": ["quasidet-selftest", "--trials", "300", "--seed", "2"],
    "heat-N2-gfp-dump": ["nls", "--N", "2", "--mode", "heat", "--scalar", "gf-p",
                         "--cap", "7", "--dump-series"],
    "langmuir-N2-r2-lemmas": ["langmuir", "--N", "2", "--r", "2", "--window", "5",
                              "--cap", "8", "--with-lemmas"],
    "toda-n3-N3-lemmas": ["toda", "--n", "3", "--N", "3", "--cap", "8",
                          "--with-lemmas"],
    "toda-n3-N2-explicit": _explicit("toda", "toda-n3-N2-explicit"),
    "sine-gordon-N2-explicit": _explicit("sine-gordon", "sine-gordon-N2-explicit"),
    "langmuir-N2-w4-explicit": _explicit("langmuir", "langmuir-N2-w4-explicit"),
    "nls-N1-r2-explicit": _explicit("nls", "nls-N1-r2-explicit"),
    "nls-N1-scalar-form": ["nls", "--N", "1", "--cap", "7", "--seed", "2",
                           "--scalar-form"],
    # r = 3: the grading b splits the algebra 2+1, so q1 and q2 have unequal rank
    "nls-N1-r3": ["nls", "--N", "1", "--r", "3", "--cap", "7"],
}


# every case that runs over QQ (nls-N1 and nls-N2-dump need QQ(i), heat-N2-gfp-dump
# runs over GF(p); the self-tests have no series)
RATIONAL_CASES = [
    "heat-N1-dump",
    "langmuir-N1-r2-lemmas",
    "langmuir-N2-r2-lemmas",
    "langmuir-N2-w5",
    "sine-gordon-N2-lemmas",
    "toda-n2-N1-lemmas",
    "toda-n3-N2",
    "toda-n3-N2-r2-dump",
    "toda-n3-N3-lemmas",
]


def _report_bytes(args, path: Path) -> bytes:
    # seed 1 unless the case names its own, which comes later and wins
    cfg = cli._merge_config(cli._build_parser().parse_args(
        args[:1] + ["--seed", "1"] + args[1:] + ["--report", str(path)]
    ))
    cli.run(cfg)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    got = _report_bytes(CASES[name], tmp_path / "report.json")
    assert got == (GOLDEN_DIR / f"{name}.json").read_bytes()


def _mod_p(coefficient):
    """A dumped rational coefficient (or matrix of them) as dumped mod p."""
    if isinstance(coefficient, list):
        return [_mod_p(c) for c in coefficient]
    return str(Residue(Fraction(coefficient)))


@pytest.mark.parametrize("name", RATIONAL_CASES)
def test_gf_p_series_are_the_rational_series_mod_p(name, tmp_path):
    args = CASES[name] + ["--dump-series"]
    qq, gfp = (
        json.loads(_report_bytes(args + ["--scalar", scalar], tmp_path / "r.json"))
        for scalar in ("rational", "gf-p")
    )
    assert qq["series"].keys() == gfp["series"].keys()
    for key, terms in qq["series"].items():
        assert [t["exponents"] for t in terms] == [
            t["exponents"] for t in gfp["series"][key]
        ]
        assert [_mod_p(t["coefficient"]) for t in terms] == [
            t["coefficient"] for t in gfp["series"][key]
        ]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in CASES.items():
        _report_bytes(args, GOLDEN_DIR / f"{name}.json")

"""Property tests: truncation honesty of valid_order, and a CLI fuzz."""

import tempfile
from pathlib import Path
from random import Random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solitonlab.cli import main
from solitonlab.errors import SingularMatrix
from solitonlab.quasidet import frobenius_gamma, wronski
from solitonlab.solitons import (
    langmuir_solution,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_sine_gordon_params,
    random_toda_params,
    sine_gordon_solution,
    toda_build_f,
    toda_solution,
)


def _first_disagreement(low, high):
    """Least total degree where a low cap's series differs from a high cap's.

    Every coefficient a series stores is trusted, so an honest valid order
    gives None; the high cap must trust at least as far as the low one.
    """
    stored = dict(zip(high.algebra.exponents, high.coeffs))
    return min(
        (sum(e) for e, c in zip(low.algebra.exponents, low.coeffs) if c != stored[e]),
        default=None,
    )


def _solve(build, seed):
    try:
        return build(Random(seed))
    except SingularMatrix:
        assume(False)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_toda_valid_order_is_honest_and_tight(seed):
    low, high = (
        _solve(lambda rng: toda_solution(random_toda_params(rng, 2, 2, cap=cap)), seed)
        for cap in (6, 8)
    )
    for g_low, g_high in zip(low.gs, high.gs):
        assert _first_disagreement(g_low, g_high) is None
        assert g_low.valid_order == 4  # tight: the caps differ at degree 4


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(12)  # one entry is exact one degree beyond the claimed order
def test_toda_three_mode_bottom_row_is_honest(seed):
    def bottom_row(rng, cap):
        data = toda_build_f(random_toda_params(rng, 2, 3, cap=cap))
        return frobenius_gamma(wronski(data.f[0], data.d2)).bottom_row()

    low, high = (_solve(lambda rng: bottom_row(rng, cap), seed) for cap in (6, 8))
    for x_low, x_high in zip(low, high):
        assert _first_disagreement(x_low, x_high) is None


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_sine_gordon_valid_order_is_honest_and_tight(seed):
    low, high = (
        _solve(
            lambda rng: sine_gordon_solution(
                random_sine_gordon_params(rng, 2, cap=cap)
            ),
            seed,
        )
        for cap in (6, 8)
    )
    for g_low, g_high in zip(low.gs, high.gs):
        assert _first_disagreement(g_low, g_high) is None
        assert g_low.valid_order == 4  # tight: the caps differ at degree 4


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_nls_valid_order_is_honest_and_tight(seed):
    low, high = (
        _solve(lambda rng: nls_solution(random_nls_params(rng, 1, cap=cap)), seed)
        for cap in (6, 8)
    )
    assert _first_disagreement(low.U, high.U) is None
    assert low.U.valid_order == 5  # tight: the caps differ at degree 5


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_heat_valid_order_is_honest_and_tight(seed):
    low, high = (
        _solve(
            lambda rng: nls_solution(random_nls_params(
                rng, 1, cap=cap, mode="heat", scalar="rational"
            )),
            seed,
        )
        for cap in (6, 8)
    )
    assert _first_disagreement(low.U, high.U) is None
    assert low.U.valid_order == 5  # tight: the caps differ at degree 5


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(9)  # an exact draw: its coefficients agree beyond the claimed order
def test_langmuir_valid_order_is_honest(seed):
    low, high = (
        _solve(
            lambda rng: langmuir_solution(
                random_langmuir_params(rng, 2, cap=cap, window=3)
            ),
            seed,
        )
        for cap in (8, 10)
    )
    for k, g_low in low.gs.items():
        assert _first_disagreement(g_low, high.gs[k]) is None


def _mostly(valid, invalid):
    """Draw from ``valid`` about two times in three, else from ``invalid``."""
    return st.sampled_from(list(valid) * 2 + list(invalid))


@st.composite
def _argv(draw):
    system = draw(st.sampled_from(
        ["toda", "sine-gordon", "langmuir", "nls", "quasidet-selftest"]
    ))
    argv = [system, "--seed", str(draw(st.integers(0, 5)))]
    if system == "quasidet-selftest":
        return argv + ["--trials", str(draw(_mostly([1, 2, 3], [0, -1])))]
    n_modes = draw(_mostly([1, 2], [0, -1]))
    least_cap = draw(_mostly([n_modes + 3], [0]))
    argv += ["--N", str(n_modes), "--cap", str(draw(st.integers(least_cap, 7)))]
    if draw(st.booleans()):
        argv += ["--r", str(draw(_mostly([1, 2], [0, -1])))]
    if system == "toda":
        argv += ["--n", str(draw(_mostly([1, 2, 3], [0, -1])))]
    if system == "langmuir":
        argv += ["--window", str(draw(_mostly([3, 4], [0, 2])))]
    if system == "nls":
        argv += ["--mode", draw(st.sampled_from(["nls", "heat"]))]
    if draw(st.booleans()):
        argv += ["--scalar", draw(st.sampled_from(
            ["rational", "gaussian-rational", "gf-p"]
        ))]
    for flag in ("--with-lemmas", "--dump-series"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--dump-degree", str(draw(_mostly([0, 2], [-1])))]
    if draw(st.booleans()):
        argv += ["--max-resample", str(draw(_mostly([1, 2], [0, -1])))]
    return argv


@settings(max_examples=10, deadline=None)
@given(_argv(), st.booleans())
@example(["toda", "--seed", "1", "--N", "1", "--n", "2", "--cap", "4"], False)
@example(["quasidet-selftest", "--seed", "1", "--trials", "2"], False)
def test_cli_exits_with_a_documented_code(argv, writable):
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / ("r.json" if writable else "missing/r.json")
        try:
            code = main(argv + ["--report", str(report)])
        except SystemExit as exc:  # argparse rejecting the command line
            assert exc.code == 2
            return
    assert code in {0, 1, 2, 3, 4}

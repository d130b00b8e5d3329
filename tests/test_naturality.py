"""The pipeline commutes with algebra homomorphisms applied entrywise to
explicit parameters.

The constructions and checks use only sums, products, inverses and
derivations, so for a homomorphism phi the run on phi(params) must give
phi(series), and every check entry must keep its ``passed`` and
``valid_order``.  Both sides run through ``cli.main`` on explicit-params
configs at cap <= 7, and their dumped series are compared exactly, a term
missing from a dump read as 0.

- *Realification*: z = re + im i maps to the real block [[re, im], [-im, re]],
  entrywise, so a gaussian-rational run at block size r and the rational
  run of the realified parameters at 2r agree.  Langmuir's "(commutative
  product form)" entries exist only at r = 1, so checks compare the entries
  both sides have.
- *Inclusion QQ in QQ(i)*: the explicit configs with rational parameters
  give equal series and checks under both scalar modes.
- *Upper-triangular projection*: on upper-triangular 2 x 2 rational
  parameters [[x, y], [0, z]], taking a diagonal entry is a homomorphism
  onto QQ, so each diagonal entry of every series of the r = 2 run is the
  series of the r = 1 run on that entry's parameters, and the lower-left
  entries stay 0.  The off-diagonal y is free: nothing on the diagonal may
  depend on it.
- *Block-diagonal projection*: on block-diagonal 4 x 4 rational parameters
  diag(X, Y), taking either 2 x 2 diagonal block is a homomorphism onto
  Mat(2, QQ), so each diagonal block of every series of the r = 4 run is
  the series of the r = 2 run on that block's parameters, and the
  off-diagonal blocks stay 0.
- *Quaternions*: on 2 x 2 gaussian-rational parameters [[z, w], [-w*, z*]]
  (* the conjugate), a noncommutative division algebra over QQ inside
  Mat(2, QQ(i)), every coefficient of every series is a quaternion, and the
  run commutes with realification.
- *Exterior algebra*: on the left-regular 4 x 4 rational matrices of
  Lambda(Q^2), [[a, 0, 0, 0], [b, a, 0, 0], [c, 0, a, 0], [d, -c, b, a]], a
  local algebra whose non-units are nilpotent, every coefficient lies in
  Lambda(Q^2), and the scalar part a, a homomorphism onto QQ, of every
  coefficient is the series of the r = 1 run on the scalar parts.

Closure in a subalgebra is asserted by one helper, ``_assert_in_subalgebra``,
on the pattern of the subalgebra's matrices.
"""

import json
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import pytest

from solitonlab import cli
from solitonlab.scalars import format_gaussian, parse_gaussian

CONFIG_DIR = Path(__file__).parent / "configs"

# gaussian-rational configs at block size r; each is also run realified at 2r
REALIFIED = {
    "toda": {"system": "toda", "n": 3, "N": 2, "cap": 7, "params": {
        "a": [["2/3+1*i", "-5/2"], ["7/4-1/2*i", "3*i"], ["-1/3", "6/5+2/3*i"]],
        "p": [["1", "1/2*i", "-3/7+1*i"], ["2/5", "-1-1/3*i", "4/3"]],
    }},
    "sine-gordon": {"system": "sine-gordon", "N": 2, "cap": 7, "params": {
        "p": ["3/2+1/2*i", "-2/7"],
        "q": ["1/3*i", "5/4-1*i"],
        "a": ["2-1*i", "-3/5+2/5*i"],
    }},
    "langmuir": {"system": "langmuir", "N": 2, "window": 4, "cap": 7, "params": {
        "p": ["1/2+1*i", "-3"],
        "q": ["4/5", "2/3-1/2*i"],
        "mu": ["3/2+1/2*i", "-1/4+1*i"],
    }},
    "heat": {"system": "nls", "mode": "heat", "N": 1, "r": 2, "cap": 7, "params": {
        "b": [["1", "0"], ["0", "-1"]],
        "c": [[["1+1/2*i", "2/3"], ["-1*i", "3/4"]]],
        "d": [[["1/2", "-1/3+1*i"], ["2", "5/7*i"]]],
        "a": [[["3/2", "1/2*i"], ["0", "-2/3+1/3*i"]]],
    }},
}

INCLUDED = ["toda-n3-N2-explicit", "sine-gordon-N2-explicit", "langmuir-N2-w4-explicit"]

# rational r = 1 configs, one per diagonal entry: (config, the (1, 1) entry's
# params); the (0, 0) entry's are the config's own, and OFF_DIAGONAL fills
# the upper-right entry of every upper-triangular parameter
TRIANGULAR = {
    "toda": ({"system": "toda", "n": 3, "N": 2, "cap": 7, "params": {
        "a": [["2/3", "-5/2"], ["7/4", "3"], ["-1/3", "6/5"]],
        "p": [["1", "1/2", "-3/7"], ["2/5", "-1", "4/3"]],
    }}, {
        "a": [["5/4", "2"], ["-2/5", "1/2"], ["3", "-7/3"]],
        "p": [["2", "-1", "1"], ["3/2", "2/3", "-1/2"]],
    }),
    "sine-gordon": ({"system": "sine-gordon", "N": 2, "cap": 7, "params": {
        "p": ["3/2", "-2/7"], "q": ["1/3", "5/4"], "a": ["2", "-3/5"],
    }}, {"p": ["-1/2", "4"], "q": ["2", "-1/3"], "a": ["3/4", "5/2"]}),
    "langmuir": ({"system": "langmuir", "N": 2, "window": 4, "cap": 7, "params": {
        "p": ["1/2", "-3"], "q": ["4/5", "2/3"], "mu": ["3/2", "-1/4"],
    }}, {"p": ["2", "1/3"], "q": ["-3/2", "5"], "mu": ["5/3", "2/7"]}),
}
OFF_DIAGONAL = ["1", "-1/3", "2", "1/2", "-2", "3/5"]


def _run(cfg, tmp_path, name):
    config, report = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
    config.write_text(json.dumps(dict(cfg, dump_series=True)))
    assert cli.main([cfg["system"], "--config", str(config), "--report", str(report)]) == 0
    return json.loads(report.read_text())


def _realify(node, depth, r):
    """Each scalar (r = 1) or r x r matrix at array depth ``depth`` as its
    2r x 2r real form, entries as strings."""
    if depth:
        return [_realify(x, depth - 1, r) for x in node]
    rows = []
    for row in [[node]] if r == 1 else node:
        zs = [parse_gaussian(x) for x in row]
        rows.append([str(v) for z in zs for v in (z.re, z.im)])
        rows.append([str(v) for z in zs for v in (-z.im, z.re)])
    return rows


def _realified(cfg):
    r = cfg.get("r", 1)
    arrays = cli._SYSTEMS[cfg["system"]].params.arrays
    params = {name: _realify(value, len(arrays[name][0]), r)
              for name, value in cfg["params"].items()}
    return dict(cfg, r=2 * r, scalar="rational", params=params)


def _fractions(c):
    return [[Fraction(x) for x in row] for row in c]


def _series(report, read, zero):
    """Per series name, a reader of its coefficient at an exponent."""
    out = {}
    for name, terms in report["series"].items():
        coeffs = {tuple(t["exponents"]): read(t["coefficient"]) for t in terms}
        out[name] = lambda e, coeffs=coeffs: coeffs.get(e, zero)
    return out, {name: {tuple(t["exponents"]) for t in terms}
                 for name, terms in report["series"].items()}


def _assert_same_series(left, right, read_left, read_right, zero):
    (get_l, exps_l), (get_r, exps_r) = (_series(left, read_left, zero),
                                        _series(right, read_right, zero))
    assert sorted(get_l) == sorted(get_r)
    for name in get_l:
        for e in sorted(exps_l[name] | exps_r[name]):
            assert get_l[name](e) == get_r[name](e), (name, e)


def _assert_in_subalgebra(run, pattern, read):
    """Every dumped coefficient of ``run`` (read by ``read``) has the shape of
    ``pattern``: each entry is "0", or a name, "-name", "name*" (its
    conjugate) or "-name*", and one name stands for one value wherever it
    appears.  Returns the number of coefficients checked."""
    checked = 0
    for name, terms in run["series"].items():
        for t in terms:
            c, values = read(t["coefficient"]), {}
            assert len(c) == len(pattern) and all(len(row) == len(c) for row in c)
            for pats, row in zip(pattern, c):
                for pat, x in zip(pats, row):
                    if pat == "0":
                        assert not x, (name, t["exponents"])
                        continue
                    if pat.startswith("-"):
                        pat, x = pat[1:], -x
                    if pat.endswith("*"):
                        pat, x = pat[:-1], x.conjugate()
                    assert values.setdefault(pat, x) == x, (name, t["exponents"])
            checked += 1
    return checked


def _entries(report):
    return {(check["equation"], entry["label"]): (entry["passed"], entry["valid_order"])
            for check in report["checks"] for entry in check["entries"]}


def _assert_realification_commutes(cfg, tmp_path):
    r = cfg.get("r", 1)
    complex_run = _run(cfg, tmp_path, "complex")
    real_run = _run(_realified(cfg), tmp_path, "real")

    def read_complex(c):
        return [[Fraction(x) for x in row] for row in _realify(c, 0, r)]

    def read_real(c):
        return [[Fraction(x) for x in row] for row in c]

    zero = [[Fraction(0)] * (2 * r) for _ in range(2 * r)]
    _assert_same_series(complex_run, real_run, read_complex, read_real, zero)
    left, right = _entries(complex_run), _entries(real_run)
    assert {k for k in left.keys() ^ right.keys()
            if "(commutative product form)" not in k[1]} == set()
    assert {k: left[k] for k in left.keys() & right.keys()} == \
        {k: right[k] for k in left.keys() & right.keys()}
    assert complex_run["passed"] and real_run["passed"]
    return complex_run


@pytest.mark.parametrize("case", REALIFIED)
def test_realification_commutes(case, tmp_path):
    _assert_realification_commutes(dict(REALIFIED[case], scalar="gaussian-rational"),
                                   tmp_path)


@pytest.mark.parametrize("name", INCLUDED)
def test_inclusion_of_rationals_commutes(name, tmp_path):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg.pop("dump_degree")
    runs = [_run(dict(cfg, scalar=scalar), tmp_path, scalar)
            for scalar in ("rational", "gaussian-rational")]
    _assert_same_series(*runs, parse_gaussian, parse_gaussian, parse_gaussian("0"))
    assert _entries(runs[0]) == _entries(runs[1])


def _two_by_two(top, bottom, upper, lower):
    """The arrays of 2 x 2 matrices [[x, y], [w, z]] with x from ``top``, z
    from ``bottom``, and y and w drawn in turn from the iterators ``upper``
    and ``lower``."""
    if isinstance(top, list):
        return [_two_by_two(x, z, upper, lower) for x, z in zip(top, bottom)]
    return [[top, next(upper)], [next(lower), bottom]]


@pytest.mark.parametrize("case", TRIANGULAR)
def test_upper_triangular_projection_commutes(case, tmp_path):
    cfg, bottom = TRIANGULAR[case]
    off = iter(OFF_DIAGONAL * 4)
    params = {name: _two_by_two(value, bottom[name], off, repeat("0"))
              for name, value in cfg["params"].items()}
    block_run = _run(dict(cfg, r=2, params=params), tmp_path, "block")
    diagonal_runs = [_run(cfg, tmp_path, "top"),
                     _run(dict(cfg, params=bottom), tmp_path, "bottom")]
    assert block_run["passed"] and all(run["passed"] for run in diagonal_runs)
    zero = Fraction(0)
    assert _assert_in_subalgebra(block_run, [["x", "y"], ["0", "z"]], _fractions)
    entries, _ = _series(block_run, _fractions, [[zero] * 2 for _ in range(2)])
    for k, run in enumerate(diagonal_runs):
        series, exponents = _series(run, Fraction, zero)
        assert sorted(series) == sorted(entries)
        for name, get in series.items():
            for e in exponents[name] | {tuple(t["exponents"])
                                        for t in block_run["series"][name]}:
                assert entries[name](e)[k][k] == get(e), (name, e, k)


def _block_diagonal(x, y, depth):
    """The arrays of 4 x 4 matrices diag(X, Y) for arrays of 2 x 2 X and Y
    at array depth ``depth``."""
    if depth:
        return [_block_diagonal(a, b, depth - 1) for a, b in zip(x, y)]
    zeros = ["0", "0"]
    return [row + zeros for row in x] + [zeros + row for row in y]


@pytest.mark.parametrize("case", TRIANGULAR)
def test_block_diagonal_projection_commutes(case, tmp_path):
    cfg, other = TRIANGULAR[case]
    arrays = cli._SYSTEMS[cfg["system"]].params.arrays
    off = iter(OFF_DIAGONAL * 8)
    # X and Y: 2 x 2 rational parameters with every entry filled
    blocks = [{name: _two_by_two(top[name], bottom[name], off, off) for name in arrays}
              for top, bottom in ((cfg["params"], other), (other, cfg["params"]))]
    params = {name: _block_diagonal(*(b[name] for b in blocks), len(arrays[name][0]))
              for name in arrays}
    block_run = _run(dict(cfg, r=4, params=params), tmp_path, "diag")
    runs = [_run(dict(cfg, r=2, params=b), tmp_path, f"block-{k}")
            for k, b in enumerate(blocks)]
    assert block_run["passed"] and all(run["passed"] for run in runs)
    zero = Fraction(0)
    entries, block_exponents = _series(block_run, _fractions, [[zero] * 4 for _ in range(4)])
    for k, run in enumerate(runs):
        assert _entries(run) == _entries(block_run)
        series, exponents = _series(run, _fractions, [[zero] * 2 for _ in range(2)])
        assert sorted(series) == sorted(entries)
        for name, get in series.items():
            for e in exponents[name] | block_exponents[name]:
                c = entries[name](e)
                assert [row[2 * k:2 * k + 2] for row in c[2 * k:2 * k + 2]] == get(e), \
                    (name, e, k)
                assert all(c[i][j] == zero for i in range(4) for j in range(4)
                           if i // 2 != j // 2), (name, e)


# the w of each quaternion [[z, w], [-w*, z*]], drawn in turn; z is the
# entry of the REALIFIED config
QUATERNION_W = ["1/2-1*i", "2", "-1/3*i", "3/4+2/3*i", "-2+1/2*i", "5/3"]


def _quaternions(node, ws):
    """The arrays of quaternions [[z, w], [-w*, z*]] with z from ``node`` and
    w drawn in turn from the iterator ``ws``."""
    if isinstance(node, list):
        return [_quaternions(x, ws) for x in node]
    z, w = parse_gaussian(node), parse_gaussian(next(ws))
    return [[format_gaussian(z), format_gaussian(w)],
            [format_gaussian(-w.conjugate()), format_gaussian(z.conjugate())]]


@pytest.mark.parametrize("case", TRIANGULAR)
def test_quaternion_parameters_give_quaternion_series(case, tmp_path):
    cfg = REALIFIED[case]
    ws = iter(QUATERNION_W * 4)
    params = {name: _quaternions(value, ws) for name, value in cfg["params"].items()}
    run = _assert_realification_commutes(
        dict(cfg, r=2, scalar="gaussian-rational", params=params), tmp_path)

    def read(c):
        return [[parse_gaussian(x) for x in row] for row in c]

    assert _assert_in_subalgebra(run, [["z", "w"], ["-w*", "z*"]], read)


def _exterior(node, parts):
    """The arrays of left-regular matrices of a + b e1 + c e2 + d e1 e2 in
    Lambda(Q^2) with a from ``node`` and b, c, d drawn in turn from the
    iterator ``parts``."""
    if isinstance(node, list):
        return [_exterior(x, parts) for x in node]
    b, c, d = (next(parts) for _ in range(3))
    minus_c = str(-Fraction(c))
    return [[node, "0", "0", "0"], [b, node, "0", "0"],
            [c, "0", node, "0"], [d, minus_c, b, node]]


@pytest.mark.parametrize("case", TRIANGULAR)
def test_exterior_algebra_parameters_stay_in_it(case, tmp_path):
    cfg, _ = TRIANGULAR[case]
    parts = iter(OFF_DIAGONAL * 8)
    params = {name: _exterior(value, parts) for name, value in cfg["params"].items()}
    exterior_run = _run(dict(cfg, r=4, params=params), tmp_path, "exterior")
    scalar_run = _run(cfg, tmp_path, "scalar")
    assert exterior_run["passed"] and scalar_run["passed"]
    pattern = [["a", "0", "0", "0"], ["b", "a", "0", "0"],
               ["c", "0", "a", "0"], ["d", "-c", "b", "a"]]
    assert _assert_in_subalgebra(exterior_run, pattern, _fractions)
    zero = Fraction(0)
    entries, exterior_exponents = _series(exterior_run, _fractions,
                                          [[zero] * 4 for _ in range(4)])
    series, exponents = _series(scalar_run, Fraction, zero)
    assert sorted(series) == sorted(entries)
    for name, get in series.items():
        for e in exponents[name] | exterior_exponents[name]:
            assert entries[name](e)[0][0] == get(e), (name, e)

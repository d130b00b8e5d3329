"""Self-test of the benchmark harness (not of solitonlab).

    python3 -m pytest -q perfbench/selftest.py     (or: python3 perfbench/selftest.py)

For each workload it runs run.py in smoke mode (one pass of the smallest
case) with tracing off and on, and checks the output contract: the last
line is one JSON object with exactly correct/attempted/failed/metrics, every
metric BENCHMARK.json names is emitted with its unit, the verdicts match the
oracle, and every traced span nests inside its parent.  It also checks that
the harness refuses to run, without a result, where src/ is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, out, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", out],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _check_workload(workload, out):
    for trace in (0, 1):
        proc = _run(workload, trace, out)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0, proc.stderr
        assert last["attempted"] == 1 + trace
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(last["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            got = last["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    stem = os.path.join(out, f"smoke-{workload}-seed3-trace1")
    with open(stem + ".spans.json", "r", encoding="utf-8") as fh:
        log = json.load(fh)
    assert log["passes"] and log["passes"][0], "no spans recorded"
    for one_pass in log["passes"]:
        by_case = {}
        for s in one_pass:
            assert s[1] in spans.BOUNDARIES
            by_case.setdefault(s[-1], []).append(s[:-1])
        for case_spans in by_case.values():
            spans.check_nesting(case_spans)
            roots = [s for s in case_spans if s[4] == -1]
            assert [s[1] for s in roots] == ["cli.run"]


def test_smoke_every_workload():
    os.makedirs(OUT, exist_ok=True)
    out = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        for workload in WORKLOADS:
            _check_workload(workload, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_nesting_check_rejects_overlap():
    good = [[0, "cli.run", 0, 10, -1, True], [1, "quasidet.wronski", 2, 5, 0, True]]
    spans.check_nesting(good)
    bad = [[0, "cli.run", 0, 10, -1, True], [1, "quasidet.wronski", 8, 12, 0, True]]
    try:
        spans.check_nesting(bad)
    except ValueError:
        return
    raise AssertionError("a child span outside its parent was accepted")


def test_refuses_without_sources():
    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(WORKLOADS[0], 0, os.path.join(bare, "perfbench", "out"), cwd=bare,
                    script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")

"""Every layer boundary the benchmark tracer wraps must exist in solitonlab,
and every workload must still pass through the boundaries mapped to it.

``perfbench/spans.py`` patches these names at run time; a rename or deletion
in ``src/`` would otherwise only show up in a traced benchmark run, and so
would a refactor that moves a call off a workload's path.  ``spans.py`` and
``workloads.json`` are read here, never imported or written.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

from solitonlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]


def _spans_module():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), vars(module))
    return module


SPANS = _spans_module()


@pytest.mark.parametrize("boundary", sorted(SPANS.BOUNDARIES))
def test_boundary_resolves(boundary):
    mod_name, qualname = boundary.split(".", 1)
    owner = importlib.import_module(f"solitonlab.{mod_name}")
    _, _, target = SPANS._resolve(owner, qualname)
    assert callable(target)


def _small_config(case, report):
    """The case at seed 1, shrunk to cap N + 4 (six trials for the self-test)."""
    args = cli._build_parser().parse_args(
        case.split() + ["--seed", "1", "--report", str(report)]
    )
    cfg = cli._merge_config(args)
    if cfg["system"] == "quasidet-selftest":
        cfg["trials"] = 6
    else:
        cfg["cap"] = cfg["N"] + 4
    return cfg


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_enters_its_boundaries(workload, tmp_path):
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        for case in WORKLOADS[workload]["cases"]:
            code, _ = cli.run(_small_config(case, tmp_path / "report.json"))
            assert code == 0, case
    finally:
        tracer.uninstall()
    entered = {span[1] for span in tracer.spans}
    entered |= {b for b, calls in tracer.counts.items() if calls}
    mapped = {b for b, (_, _, on) in SPANS.BOUNDARIES.items() if workload in on}
    assert sorted(mapped - entered) == []

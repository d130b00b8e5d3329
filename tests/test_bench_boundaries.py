"""Every layer boundary the benchmark tracer wraps must exist in solitonlab.

``perfbench/spans.py`` patches these names at run time; a rename or deletion
in ``src/`` would otherwise only show up in a traced benchmark run.  The file
is read and executed here, never imported, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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

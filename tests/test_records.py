"""The record classes behave as the ``@dataclass`` classes they replace, and
importing the command line loads neither ``dataclasses`` nor ``inspect``.

Each record is compared against a dataclass reference built here from the
field list and defaults the record must have.
"""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from solitonlab import residual, solitons
from solitonlab.series import D_T, D_U, D_V

SRC = Path(__file__).resolve().parent.parent / "src"

# class -> (fields in order, defaults); a list default is a fresh list
SPECS = {
    solitons.TodaParams: ("n N r cap a p scalar", {"scalar": "rational"}),
    solitons.TodaData: ("f a n N algebra cap d1 d2", {"d1": D_U, "d2": D_V}),
    solitons.TodaSolution: ("gs cells wronskians data notes", {}),
    solitons.SineGordonParams: ("N r cap p q a scalar", {"scalar": "rational"}),
    solitons.SineGordonSolution: ("gs closed_forms notes toda", {}),
    solitons.LangmuirParams: ("N r cap p q mu window scalar", {"scalar": "rational"}),
    solitons.LangmuirData: ("f a mu p q N algebra cap sites d", {"d": D_T}),
    solitons.LangmuirSolution: (
        "gs etas cells wronskians closed_forms notes data report", {}),
    solitons.NlsParams: (
        "N r cap b c d a mode scalar",
        {"mode": "nls", "scalar": "gaussian-rational"},
    ),
    solitons.NlsData: ("fs b q1 q2 a algebra cap d0 d mode", {}),
    solitons.NlsSolution: (
        "g U U12 U21 g_bottom_left g_bottom_right cell wronskian data notes vacuum cubic"
        " U11 U22",
        {"vacuum": False, "cubic": None, "U11": None, "U22": None},
    ),
    solitons.NlsScalarComparison: ("orientation report series", {}),
    residual.ResidualEntry: (
        "label passed max_magnitude valid_order exact_zero",
        {"exact_zero": None},
    ),
    residual.ResidualReport: ("equation exact entries notes", {"entries": [], "notes": []}),
}
CLASSES = list(SPECS)


def _fields(cls):
    return SPECS[cls][0].split()


def _required(cls):
    return [f for f in _fields(cls) if f not in SPECS[cls][1]]


def _reference(cls):
    spec = []
    for name in _fields(cls):
        if name not in SPECS[cls][1]:
            spec.append((name, object))
            continue
        value = SPECS[cls][1][name]
        factory = list if isinstance(value, list) else (lambda v=value: v)
        spec.append((name, object, dataclasses.field(default_factory=factory)))
    return dataclasses.make_dataclass(cls.__name__, spec)


def _values(cls):
    return [f"{f}-value" for f in _fields(cls)]


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_fields_in_order_positional_and_keyword(cls):
    values, ref = _values(cls), _reference(cls)
    positional = cls(*values)
    keyword = cls(**dict(zip(_fields(cls), values)))
    assert list(vars(positional)) == _fields(cls)
    assert [getattr(positional, f) for f in _fields(cls)] == values
    assert vars(keyword) == vars(positional) == vars(ref(*values))
    # positional then keyword, as a dataclass takes them
    mixed = cls(values[0], **dict(zip(_fields(cls)[1:], values[1:])))
    assert vars(mixed) == vars(positional)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_defaults(cls):
    kwargs = {f: f"{f}-value" for f in _required(cls)}
    obj, ref = cls(**kwargs), _reference(cls)(**kwargs)
    assert vars(obj) == vars(ref)
    again = cls(**kwargs)
    for name, value in SPECS[cls][1].items():
        if isinstance(value, list):
            assert getattr(obj, name) == [] and getattr(again, name) is not getattr(obj, name)
        else:
            # the same object every time, as the dataclass default factories gave
            assert getattr(obj, name) == value and getattr(again, name) is getattr(obj, name)
    for name in ("d1", "d2", "d"):
        if name in SPECS[cls][1]:
            assert getattr(obj, name) is SPECS[cls][1][name]  # D_U, D_V or D_T
    # a default can be overridden
    for name in SPECS[cls][1]:
        assert getattr(cls(**kwargs, **{name: "given"}), name) == "given"


def test_reports_do_not_share_lists():
    one, two = residual.ResidualReport("x", True), residual.ResidualReport("x", True)
    assert one.entries is not two.entries and one.notes is not two.notes
    one.note("n")
    one.entries.append("e")
    assert two.entries == [] and two.notes == []
    given = []
    assert residual.ResidualReport("x", True, given).entries is given


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_equality(cls):
    values, ref = _values(cls), _reference(cls)
    obj = cls(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    for i in range(len(values)):
        other = cls(*values[:i], "changed", *values[i + 1:])
        assert obj != other and not obj == other
        assert ref(*values) != ref(*values[:i], "changed", *values[i + 1:])
    # another class with the same values is never equal, as with a dataclass
    assert obj != ref(*values) and ref(*values) != obj
    assert obj != tuple(values)
    another = next(c for c in CLASSES if c is not cls)
    assert obj != another(*_values(another))


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_unhashable(cls):
    with pytest.raises(TypeError):
        hash(_reference(cls)(*_values(cls)))
    with pytest.raises(TypeError):
        hash(cls(*_values(cls)))


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_repr(cls):
    values = [f"{f}-value" if i % 2 else i for i, f in enumerate(_fields(cls))]
    assert repr(cls(*values)) == repr(_reference(cls)(*values))
    kwargs = {f: [f] for f in _required(cls)}
    assert repr(cls(**kwargs)) == repr(_reference(cls)(**kwargs))


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_bad_arguments_raise_type_error(cls):
    values, ref = _values(cls), _reference(cls)
    bad_calls = [
        (values[:len(_required(cls)) - 1], {}),
        (values, {"no_such_field": 1}),
        (values + ["extra"], {}),
        (values, {_fields(cls)[0]: "twice"}),
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            ref(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from solitonlab import cli\n"
        "cli._build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "solitonlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name

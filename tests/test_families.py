"""What the shared bases own: each scalar field's zero, one, coercion, text
and equality (``algebra._Field``), and each family's size, cap and shape
checks and its random draw (``solitons._Family``)."""

import copy
import json
import re
from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import (
    GFP,
    QQ,
    QQI,
    GaussianRationals,
    MatrixAlgebra,
    PrimeField,
    Rationals,
    random_element,
    random_invertible,
)
from solitonlab.cli import main
from solitonlab.errors import AlgebraMismatch, SingularMatrix, SingularWronskian
from solitonlab.scalars import PRIME, GaussianRational, Residue, format_gaussian
from solitonlab.solitons import (
    LangmuirParams,
    NlsParams,
    SineGordonParams,
    TodaParams,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_sine_gordon_params,
    random_toda_params,
    scalar_algebra,
)

# -- fields -------------------------------------------------------------------

SHARED = ("zero", "one", "coerce", "format_element", "__eq__", "__hash__", "__repr__")


@pytest.mark.parametrize("cls", [Rationals, GaussianRationals, PrimeField])
def test_fields_declare_none_of_what_the_base_owns(cls):
    assert [name for name in SHARED if name in vars(cls)] == []


@pytest.mark.parametrize("field, foreign, label", [
    (QQ, GaussianRational(1, 1), "rationals"),
    (QQ, Residue(3), "rationals"),
    (QQI, Residue(3), "Gaussian rationals"),
    (QQI, "1", "Gaussian rationals"),
    (GFP, GaussianRational(0, 1), f"GF({PRIME})"),
    (GFP, 0.5, f"GF({PRIME})"),
])
def test_coerce_names_its_own_field(field, foreign, label):
    with pytest.raises(AlgebraMismatch, match=f"into {re.escape(label)}$"):
        field.coerce(foreign)


@pytest.mark.parametrize("field, kind", [
    (QQ, Fraction), (QQI, GaussianRational), (GFP, Residue),
])
def test_zero_one_and_coerce_give_the_fields_scalars(field, kind):
    assert type(field.zero()) is kind and field.zero() == 0 and not field.zero()
    assert type(field.one()) is kind and field.one() == 1
    x = field.coerce(Fraction(-3, 7))
    assert type(x) is kind and field.coerce(x) is x
    assert type(field.coerce(5)) is kind and field.coerce(5) == 5


def test_fields_equal_hash_and_print_by_name():
    for field, name in ((QQ, "QQ"), (QQI, "QQ_I"), (GFP, "GFP")):
        assert repr(field) == name and hash(field) == hash(name)
        assert field == type(field)() and {field: 1}[type(field)()] == 1
    assert QQ != QQI and QQI != GFP and QQ != GFP and QQ != MatrixAlgebra(QQ, 1)


RATIONALS = [Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)]
GAUSSIANS = [GaussianRational(x, y) for x in RATIONALS for y in RATIONALS]


def test_format_element_is_the_old_text():
    # over QQ the old text was str(x); over QQ(i) format_gaussian; over GF(p)
    # the residue's digits
    assert [QQ.format_element(x) for x in RATIONALS] == ["0", "5", "-3/7", "11/2"]
    texts = [format_gaussian(z) for z in GAUSSIANS]
    assert [QQI.format_element(z) for z in GAUSSIANS] == texts
    assert QQI.format_element(GaussianRational(Fraction(1, 2), -2)) == "1/2-2*i"
    assert QQI.format_element(GaussianRational(0, Fraction(3, 4))) == "0+3/4*i"
    residues = [GFP.coerce(x) for x in RATIONALS] + [Residue(PRIME - 1)]
    assert [GFP.format_element(r) for r in residues] == [str(r.v) for r in residues]
    assert GFP.format_element(Residue(-1)) == str(PRIME - 1)


# -- families -----------------------------------------------------------------

DRAWS = {
    TodaParams: lambda cap=None: random_toda_params(Random(1), 2, 3, cap=cap),
    SineGordonParams: lambda cap=None: random_sine_gordon_params(Random(1), 2, cap=cap),
    LangmuirParams: lambda cap=None: random_langmuir_params(Random(1), 2, cap=cap),
    NlsParams: lambda cap=None: random_nls_params(Random(1), 2, cap=cap),
}
FAMILIES = list(DRAWS)
IDS = [cls.__name__ for cls in FAMILIES]


def _with(params, **changes):
    out = copy.copy(params)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


@pytest.mark.parametrize("cls", FAMILIES, ids=IDS)
def test_a_draw_validates(cls):
    params = DRAWS[cls]()
    assert type(params) is cls
    params.validate()


@pytest.mark.parametrize("cls", FAMILIES, ids=IDS)
@pytest.mark.parametrize("field, message", [
    ("N", "mode count N must be at least 1"),
    ("r", "block size r must be at least 1"),
])
def test_zero_sizes_are_rejected(cls, field, message):
    with pytest.raises(ValueError, match=message):
        _with(DRAWS[cls](), **{field: 0}).validate()


@pytest.mark.parametrize("cls, floor", [
    (TodaParams, 3), (SineGordonParams, 3), (LangmuirParams, 2), (NlsParams, 3),
], ids=IDS)
def test_cap_floor(cls, floor):
    params = DRAWS[cls]()
    assert cls.floor == floor
    _with(params, cap=params.N + floor).validate()
    message = f"cap must be at least N [+] {floor} = {params.N + floor}"
    with pytest.raises(ValueError, match=message):
        _with(params, cap=params.N + floor - 1).validate()


def _misshaped(cls):
    """(array name, a wrong value) for each array of cls that has a shape:
    one entry short, one entry long, and a bare element."""
    for name, (shape, _) in cls.arrays.items():
        if shape:
            for bad in (lambda v: v[:-1], lambda v: v + v[:1], lambda v: v[0]):
                yield name, bad


@pytest.mark.parametrize("cls, name, bad", [
    (cls, name, bad) for cls in FAMILIES for name, bad in _misshaped(cls)
])
def test_misshaped_arrays_are_named(cls, name, bad):
    params = DRAWS[cls]()
    with pytest.raises(ValueError, match=f"^{name} must be an array of shape "):
        _with(params, **{name: bad(getattr(params, name))}).validate()


def test_toda_rows_of_the_wrong_length_are_named():
    params = DRAWS[TodaParams]()
    a = [row[:] for row in params.a]
    a[1] = a[1][:-1]
    with pytest.raises(ValueError, match="^a must be an array of shape n x N = 2 x 3$"):
        _with(params, a=a).validate()


@pytest.mark.parametrize("cls, spare", [
    (TodaParams, 6), (SineGordonParams, 6), (LangmuirParams, 8), (NlsParams, 6),
], ids=IDS)
def test_draw_without_cap_spares_its_default(cls, spare):
    params = DRAWS[cls]()
    assert cls.spare == spare and params.cap == params.N + spare
    assert DRAWS[cls](cap=11).cap == 11


# the draws as each family wrote them before the base drew them: the order
# of every rng call is what the goldens pin


def _old_toda(rng, n, N, r, scalar):
    S = scalar_algebra(scalar, r)
    a = [[random_invertible(S, rng) for _ in range(N)] for _ in range(n)]
    p = [[random_element(S, rng) for _ in range(n)] for _ in range(N)]
    return {"a": a, "p": p}


def _old_sine_gordon(rng, N, r, scalar):
    S = scalar_algebra(scalar, r)
    p = [random_invertible(S, rng) for _ in range(N)]
    q = [random_element(S, rng) for _ in range(N)]
    return {"p": p, "q": q, "a": [random_invertible(S, rng) for _ in range(N)]}


def _old_langmuir(rng, N, r, scalar):
    S = scalar_algebra(scalar, r)
    mu = []
    while len(mu) < N:
        m = random_invertible(S, rng)
        try:
            S.invert(m + S.invert(m))
        except SingularMatrix:
            continue
        mu.append(m)
    p = [random_invertible(S, rng) for _ in range(N)]
    return {"mu": mu, "p": p, "q": [random_invertible(S, rng) for _ in range(N)]}


def _old_nls(rng, N, r, scalar):
    S = scalar_algebra(scalar, r)
    b = S.diagonal([1] * ((r + 1) // 2) + [-1] * (r - (r + 1) // 2))
    c = [random_element(S, rng) for _ in range(N)]
    d = [random_element(S, rng) for _ in range(N)]
    return {"b": b, "c": c, "d": d, "a": [random_invertible(S, rng) for _ in range(N)]}


@pytest.mark.parametrize("scalar", ["rational", "gaussian-rational", "gf-p"])
@pytest.mark.parametrize("N, r", [(1, 1), (2, 2), (3, 1), (1, 3)])
@pytest.mark.parametrize("seed", [0, 7])
def test_draws_keep_their_order(scalar, N, r, seed):
    cases = [
        (random_toda_params(Random(seed), 3, N, r, scalar=scalar),
         _old_toda(Random(seed), 3, N, r, scalar)),
        (random_sine_gordon_params(Random(seed), N, r, scalar=scalar),
         _old_sine_gordon(Random(seed), N, r, scalar)),
        (random_langmuir_params(Random(seed), N, r, scalar=scalar),
         _old_langmuir(Random(seed), N, r, scalar)),
    ]
    if r >= 2:
        cases.append((random_nls_params(Random(seed), N, r, mode="heat", scalar=scalar),
                      _old_nls(Random(seed), N, r, scalar)))
    for params, old in cases:
        assert list(type(params).arrays) == list(old)
        for name, value in old.items():
            assert getattr(params, name) == value, (type(params).__name__, name)


def test_nls_singular_wronskian_names_site_zero():
    params = random_nls_params(Random(2), 2)
    params = _with(params, c=params.c[:1] * 2, d=params.d[:1] * 2, a=params.a[:1] * 2)
    message = "^Wronski matrix at site 0 is singular$"
    with pytest.raises(SingularWronskian, match=message) as info:
        nls_solution(params)
    assert info.value.site == 0


def test_cli_names_a_bad_langmuir_mu_before_a_bad_p(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "langmuir", "N": 2, "params": {
        "mu": ["2"], "p": ["1"], "q": ["1", "3"]}}))
    report = tmp_path / "r.json"
    assert main(["langmuir", "--config", str(cfg), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: mu must be an array of shape N = 2\n"
    assert not report.exists()

"""The integer product kernel against a Cauchy product over the coefficient
algebra's own ``*`` and ``+``.

The reference below never lifts to integers: it adds ``x * y`` for every
pair of trusted coefficients whose degrees sum below the lesser valid order.
Every scalar type is canonical (lowest-terms fractions, residues in [0, p)),
so the kernel must agree exactly, coefficient by coefficient.
"""

from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix
from solitonlab.scalars import PRIME, GaussianRational, Residue
from solitonlab.series import (
    SeriesAlgebra,
    TruncatedSeries,
    _count_below,
    _inverse_pairs,
    _row_pairs,
)

CAP = 6
COEFFS = {
    "QQ": QQ,
    "QQi": QQI,
    "GFp": GFP,
    "Mat1-QQ": MatrixAlgebra(QQ, 1),
    "Mat1-GFp": MatrixAlgebra(GFP, 1),
    "Mat2-QQ": MatrixAlgebra(QQ, 2),
    "Mat2-QQi": MatrixAlgebra(QQI, 2),
    "Mat3-GFp": MatrixAlgebra(GFP, 3),
    "Mat2-Mat2-QQ": MatrixAlgebra(MatrixAlgebra(QQ, 2), 2),
}
# denominators with distinct prime factors, so the lcm differs from each one
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 16, 27, 1001)
# residues at both ends of [0, p): products of these overflow p many times
RESIDUES = (0, 1, 2, PRIME - 1, PRIME - 2, PRIME - 3)


def _scalar(field, rng):
    if rng.random() < 0.2:
        return field.zero()
    if field == GFP:
        return Residue(rng.choice(RESIDUES + (rng.randrange(PRIME),)))
    def rational():
        return Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS))

    return GaussianRational(rational(), rational()) if field == QQI else rational()


def _element(alg, rng):
    if isinstance(alg, MatrixAlgebra):
        return SquareMatrix(alg, [[_element(alg.base, rng) for _ in range(alg.dim)]
                                  for _ in range(alg.dim)])
    return _scalar(alg, rng)


def _series(salg, valid_order, rng, kind="dense"):
    n = _count_below(salg.arity, valid_order)
    if kind == "zero":
        return TruncatedSeries(salg, [salg.coeff.zero()] * n, valid_order)
    if kind == "one-term":
        exponent = salg.exponents[rng.randrange(n)]
        return salg.monomial(exponent, _element(salg.coeff, rng), valid_order)
    coeffs = [_element(salg.coeff, rng) for _ in range(n)]
    return TruncatedSeries(salg, coeffs, valid_order)


def _cauchy(a, b):
    """Trusted coefficients of a * b from the coefficient algebra alone."""
    salg = a.algebra
    vo = min(a.valid_order, b.valid_order)
    exps = salg.exponents
    out = {e: salg.coeff.zero() for e in exps if sum(e) < vo}
    for ea, x in zip(exps, a.coeffs):
        for eb, y in zip(exps, b.coeffs):
            e = tuple(p + q for p, q in zip(ea, eb))
            if sum(e) < vo:
                out[e] = out[e] + x * y
    return vo, tuple(out[e] for e in exps if sum(e) < vo)


def _algebras():
    return [
        pytest.param(SeriesAlgebra(alg, arity, CAP), id=f"{name}-arity{arity}")
        for name, alg in COEFFS.items()
        for arity in (1, 2)
    ]


# (kind of a, valid order of a, kind of b, valid order of b)
OPERANDS = [
    ("dense", CAP, "dense", CAP),
    ("dense", CAP, "dense", 3),
    ("dense", 2, "dense", CAP - 1),
    ("dense", CAP, "zero", CAP),
    ("zero", 4, "dense", CAP),
    ("one-term", CAP, "dense", CAP),
    ("dense", CAP - 1, "one-term", CAP),
    ("one-term", CAP, "one-term", 4),
    ("dense", 1, "dense", CAP),
    ("dense", 0, "dense", CAP),
]


@pytest.mark.parametrize("salg", _algebras())
@pytest.mark.parametrize("ka,va,kb,vb", OPERANDS)
def test_product_matches_cauchy_reference(salg, ka, va, kb, vb):
    rng = Random(f"{salg!r} {ka} {va} {kb} {vb}")
    a, b = _series(salg, va, rng, ka), _series(salg, vb, rng, kb)
    vo, coeffs = _cauchy(a, b)
    got = a * b
    assert got.valid_order == vo
    assert got.coeffs == coeffs


@pytest.mark.parametrize("salg", _algebras())
@pytest.mark.parametrize("valid_order", [CAP, 3, 0])
def test_scaling_matches_coefficientwise_products(salg, valid_order):
    rng = Random(f"{salg!r} {valid_order}")
    s = _series(salg, valid_order, rng)
    for c in (_element(salg.coeff, rng), salg.coeff.zero(), salg.coeff.one()):
        left, right = s.scale_left(c), s.scale_right(c)
        assert left.valid_order == right.valid_order == valid_order
        assert left.coeffs == tuple(c * x for x in s.coeffs)
        assert right.coeffs == tuple(x * c for x in s.coeffs)
        assert (c * s).coeffs == left.coeffs and (s * c).coeffs == right.coeffs


@pytest.mark.parametrize("arity", [1, 2])
def test_pair_tables_list_every_product_below_cap(arity):
    """The kernel's per-row table and the inverse recurrence's (F, E-F) pairs
    both list every pair of exponents whose sum stays below cap."""
    for cap in range(1, 9):
        exps = SeriesAlgebra(QQ, arity, cap).exponents
        index = {e: i for i, e in enumerate(exps)}
        rows = [[] for _ in exps]
        pairs = [[] for _ in exps]
        for ia, ea in enumerate(exps):
            for ib, eb in enumerate(exps):
                e = tuple(p + q for p, q in zip(ea, eb))
                if sum(e) < cap:
                    rows[ia].append(index[e])
                    if ia:
                        pairs[index[e]].append((ia, ib))
        assert _row_pairs(arity, cap) == tuple(map(tuple, rows))
        assert _inverse_pairs(arity, cap) == tuple(map(tuple, pairs))

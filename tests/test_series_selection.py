"""Scaling by a constant against the product kernel.

``scale_left(c)`` and ``scale_right(c)`` scale each index's integers by the
real form of c in one pass (``_scaled``), the scaling kernel, for every
constant: the +-1/0 selections (the grading b, its projectors, signed
permutations) as well as general ones.  The reference is the series product
with the constant series of c, which the product kernel forms; scalars are
canonical, so every scaling must agree with it exactly, coefficient by
coefficient and in ``valid_order``.  Each scaling reaches the scaling
kernel once and never the product kernel.

``residual._pm_one_split`` reads the grading b's +-1 diagonal, which
decides whether the NLS check splits U into graded blocks.
"""

from fractions import Fraction
from random import Random

import pytest

from solitonlab import series
from solitonlab.residual import _pm_one_split
from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix
from solitonlab.scalars import PRIME, GaussianRational, Residue
from solitonlab.series import SeriesAlgebra, TruncatedSeries

CAP = 5
FIELDS = {"QQ": QQ, "QQi": QQI, "GFp": GFP}


def _scalar(field, rng):
    if rng.random() < 0.2:
        return field.zero()
    if field == GFP:
        return Residue(rng.choice((1, 2, PRIME - 1, rng.randrange(PRIME))))

    def rational():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7, 12)))

    return GaussianRational(rational(), rational()) if field == QQI else rational()


def _element(alg, rng):
    if isinstance(alg, MatrixAlgebra):
        return SquareMatrix(alg, [[_element(alg.base, rng) for _ in range(alg.dim)]
                                  for _ in range(alg.dim)])
    return _scalar(alg, rng)


def _series(salg, rng, valid_order=CAP):
    n = series._count_below(salg.arity, valid_order)
    return TruncatedSeries(salg, [_element(salg.coeff, rng) for _ in range(n)],
                           valid_order)


def _matrix(alg, rows):
    return alg.matrix([[alg.base.coerce(x) for x in row] for row in rows])


# name -> (rows for r = 2, rows for r = 3), entries 0 and +-1 only
SELECTIONS = {
    "plus-minus diagonal": ([[1, 0], [0, -1]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    "minus identity": ([[-1, 0], [0, -1]], [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    "projector q1": ([[1, 0], [0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
    "projector q2": ([[0, 0], [0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    "zero": ([[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    "swap": ([[0, 1], [1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    "signed permutation": ([[0, -1], [1, 0]], [[0, -1, 0], [0, 0, 1], [-1, 0, 0]]),
    # rows hold one entry each, but a column holds two
    "row selection": ([[1, 0], [-1, 0]], [[0, 1, 0], [0, -1, 0], [1, 0, 0]]),
}

# constants with other entries, or two nonzero entries in a row and a column
GENERAL = {
    "two times identity": ([[2, 0], [0, 2]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    "general": ([[1, 3], [0, -1]], [[0, 1, 0], [5, 0, 0], [0, 0, -1]]),
    "two in a row and a column": ([[1, 1], [1, -1]], [[1, 0, 0], [0, 1, 1], [0, 1, 0]]),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the calls of the product kernel and of the scaling kernel:
    ``kernel_calls()`` gives (products, scalings) since the last call."""
    calls = {"_product": 0, "_scaled": 0}

    def counting(name):
        kernel = getattr(series, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(series, name, counting(name))

    def taken():
        out = (calls["_product"], calls["_scaled"])
        calls.update(dict.fromkeys(calls, 0))
        return out

    return taken


def _reference(s, c, left):
    const = s.algebra.constant(c, s.valid_order)
    return const * s if left else s * const


def _assert_same(out, ref):
    assert out.valid_order == ref.valid_order
    assert out.coeffs == ref.coeffs


def _cases(table):
    return [
        (name, field, r, side)
        for name in table
        for field in FIELDS
        for r in (2, 3)
        for side in ("left", "right")
    ]


@pytest.mark.parametrize("name,field,r,side", _cases(SELECTIONS))
def test_selection_matches_kernel(name, field, r, side, kernel_calls):
    alg = MatrixAlgebra(FIELDS[field], r)
    c = _matrix(alg, SELECTIONS[name][r - 2])
    rng = Random(f"{name}-{field}-{r}-{side}")
    left = side == "left"
    for arity, vo in ((2, CAP), (2, 3), (1, CAP), (2, 0)):
        s = _series(SeriesAlgebra(alg, arity, CAP), rng, vo)
        ref = _reference(s, c, left)
        kernel_calls()
        out = s.scale_left(c) if left else s.scale_right(c)
        _assert_same(out, ref)
        assert kernel_calls() == (0, 1)


@pytest.mark.parametrize("name,field,r,side", _cases(GENERAL))
def test_general_constants_reach_the_kernel(name, field, r, side, kernel_calls):
    alg = MatrixAlgebra(FIELDS[field], r)
    c = _matrix(alg, GENERAL[name][r - 2])
    s = _series(SeriesAlgebra(alg, 2, CAP), Random(f"{name}-{field}-{r}"))
    left = side == "left"
    ref = _reference(s, c, left)
    kernel_calls()
    out = s.scale_left(c) if left else s.scale_right(c)
    _assert_same(out, ref)
    assert kernel_calls() == (0, 1)


def test_integer_two_reaches_the_kernel(kernel_calls):
    alg = MatrixAlgebra(QQI, 2)
    s = _series(SeriesAlgebra(alg, 2, CAP), Random(3))
    out = s.scale_left(2)
    assert kernel_calls() == (0, 1)
    _assert_same(out, _reference(s, alg.coerce(2), True))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", (1, -1, 0))
def test_field_scalars_reach_the_kernel(field, value, kernel_calls):
    fld = FIELDS[field]
    s = _series(SeriesAlgebra(fld, 2, CAP), Random(f"{field}-{value}"))
    c = fld.coerce(value)
    for left in (True, False):
        kernel_calls()
        out = s.scale_left(c) if left else s.scale_right(c)
        assert kernel_calls() == (0, 1)
        _assert_same(out, _reference(s, c, left))


@pytest.mark.parametrize("rows", ([[1, 0], [0, -1]], [[0, 1], [1, 0]]))
def test_nested_constants_reach_the_kernel(rows, kernel_calls):
    inner = MatrixAlgebra(QQ, 2)
    alg = MatrixAlgebra(inner, 2)
    one = inner.one()
    c = SquareMatrix(alg, [[inner.coerce(x) * one for x in row] for row in rows])
    s = _series(SeriesAlgebra(alg, 2, 4), Random(7), 4)
    for left in (True, False):
        kernel_calls()
        out = s.scale_left(c) if left else s.scale_right(c)
        assert kernel_calls() == (0, 1)
        _assert_same(out, _reference(s, c, left))


def test_matrix_of_series_scales_each_entry_in_one_pass(kernel_calls):
    alg = MatrixAlgebra(QQI, 2)
    salg = SeriesAlgebra(alg, 2, CAP)
    rng = Random(11)
    m = SquareMatrix(MatrixAlgebra(salg, 2),
                     [[_series(salg, rng) for _ in range(2)] for _ in range(2)])
    b = alg.diagonal([1, -1])
    out = m.scale_left(b).scale_right(b)
    # four entries, scaled once from each side
    assert kernel_calls() == (0, 8)
    for row_out, row in zip(out.rows, m.rows):
        for x_out, x in zip(row_out, row):
            _assert_same(x_out, _reference(_reference(x, b, True), b, False))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("side", ("left", "right"))
def test_drawn_constants_scale_in_one_pass_at_every_order(field, side, kernel_calls):
    # drawn constants (GF(p) residues include p - 1 and 2) at full, partial
    # and zero valid order, in one and two variables
    rng = Random(f"drawn-{field}-{side}")
    left = side == "left"
    for coeff in (FIELDS[field], MatrixAlgebra(FIELDS[field], 2)):
        for arity, vo in ((2, CAP), (2, 3), (1, CAP), (1, 2), (2, 0), (1, 0)):
            s = _series(SeriesAlgebra(coeff, arity, CAP), rng, vo)
            c = _element(coeff, rng)
            ref = _reference(s, c, left)
            kernel_calls()
            out = s.scale_left(c) if left else s.scale_right(c)
            _assert_same(out, ref)
            assert (out.nums, out.dens) == (ref.nums, ref.dens)
            assert kernel_calls() == (0, 1)


@pytest.mark.parametrize("vo", (4, 2, 0))
def test_nested_drawn_constants_scale_in_one_pass(vo, kernel_calls):
    alg = MatrixAlgebra(MatrixAlgebra(QQ, 2), 2)
    rng = Random(f"nested-{vo}")
    for arity in (1, 2):
        s = _series(SeriesAlgebra(alg, arity, 4), rng, vo)
        c = _element(alg, rng)
        for left in (True, False):
            ref = _reference(s, c, left)
            kernel_calls()
            out = s.scale_left(c) if left else s.scale_right(c)
            assert kernel_calls() == (0, 1)
            _assert_same(out, ref)


@pytest.mark.parametrize("field", FIELDS)
def test_scale_left_by_a_scalar_scales_in_one_pass(field, kernel_calls):
    fld = FIELDS[field]
    q = fld.coerce(Fraction(-5, 3))
    for coeff in (fld, MatrixAlgebra(fld, 2)):
        salg = SeriesAlgebra(coeff, 2, CAP)
        s = _series(salg, Random(f"scalar-mul-{field}"))
        ref = _reference(s, coeff.coerce(q), True)
        kernel_calls()
        out = s.scale_left(q)
        assert kernel_calls() == (0, 1)
        _assert_same(out, ref)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (1, 1, -1), (-1, 1, -1), (1, -1, 1)])
def test_pm_one_split_reads_the_diagonal(field, signs):
    # over GF(p) the entry -1 is the residue p - 1
    alg = MatrixAlgebra(FIELDS[field], len(signs))
    minus_one = -alg.base.one()
    if field == "GFp":
        assert minus_one == Residue(PRIME - 1)
    b = alg.diagonal([alg.base.one() if x == 1 else minus_one for x in signs])
    plus, minus = _pm_one_split(alg, b)
    assert list(plus) == [i for i, x in enumerate(signs) if x == 1]
    assert list(minus) == [i for i, x in enumerate(signs) if x == -1]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("rows", [
    # a swap: b^2 = 1, but b is no diagonal
    [[0, 1], [1, 0]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
    # diagonals with one sign only
    [[1, 0], [0, 1]],
    [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    # a diagonal entry that is no sign, and a +-1 diagonal with an entry beside it
    [[2, 0], [0, -1]],
    [[1, 1], [0, -1]],
])
def test_pm_one_split_needs_a_diagonal_of_both_signs(field, rows):
    alg = MatrixAlgebra(FIELDS[field], len(rows))
    assert _pm_one_split(alg, _matrix(alg, rows)) is None

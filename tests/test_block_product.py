"""Products of matrices of series against a reference that never lifts.

``SquareMatrix.__mul__`` and ``row_times`` over series go through
``SeriesAlgebra.matmul``, which multiplies whole grids of series over
integers in one pass.  The reference below forms each output entry from the
coefficient algebra's own ``*`` and ``+``: for every l it adds x * y over
each pair of trusted coefficients of xs[i][l] and ys[l][j] whose degrees sum
below the entry's valid order, the least valid order of those series.  Every
scalar type is canonical, so the kernel must agree exactly, entry by entry,
valid order included.  Each entry's valid order is drawn on its own, so an
output whose entries all carry one valid order fails here.
"""

from fractions import Fraction
from random import Random

import pytest

from solitonlab.algebra import GFP, QQ, QQI, MatrixAlgebra, SquareMatrix, row_times
from solitonlab.errors import AlgebraMismatch
from solitonlab.scalars import PRIME, GaussianRational, Residue
from solitonlab.series import SeriesAlgebra, TruncatedSeries, _count_below

CAP = 5
COEFFS = {
    "QQ": QQ,
    "QQi": QQI,
    "GFp": GFP,
    "Mat2-QQi": MatrixAlgebra(QQI, 2),
}
DENOMINATORS = (1, 2, 3, 4, 7, 9, 16, 27, 1001)


def _scalar(field, rng):
    if rng.random() < 0.2:
        return field.zero()
    if field == GFP:
        return Residue(rng.choice((1, PRIME - 1, rng.randrange(PRIME))))

    def rational():
        return Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))

    return GaussianRational(rational(), rational()) if field == QQI else rational()


def _element(alg, rng):
    if isinstance(alg, MatrixAlgebra):
        return SquareMatrix(alg, [[_element(alg.base, rng) for _ in range(alg.dim)]
                                  for _ in range(alg.dim)])
    return _scalar(alg, rng)


def _series(salg, valid_order, rng):
    n = _count_below(salg.arity, valid_order)
    return TruncatedSeries(salg, [_element(salg.coeff, rng) for _ in range(n)], valid_order)


def _orders(pattern, n, rng):
    """Valid orders of the entries of two n x n factors."""
    if pattern == "equal":
        return [[CAP] * n for _ in range(n)], [[CAP] * n for _ in range(n)]
    if pattern == "falling":
        # Wronski-like: row i of the left factor lost i orders to derivatives,
        # and column j of the right one lost j
        return ([[CAP - i] * n for i in range(n)],
                [[CAP - j for j in range(n)] for _ in range(n)])
    # independent draws; the last entry of the right factor trusts nothing
    left = [[rng.randint(0, CAP) for _ in range(n)] for _ in range(n)]
    right = [[rng.randint(1, CAP) for _ in range(n)] for _ in range(n)]
    right[-1][-1] = 0
    return left, right


def _reference(xs, ys):
    """Rows of the product, from the coefficient algebra's own * and +."""
    salg = xs[0][0].algebra
    exps = salg.exponents
    out = []
    for row in xs:
        out_row = []
        for col in zip(*ys):
            vo = min(min(x.valid_order, y.valid_order) for x, y in zip(row, col))
            acc = {e: salg.coeff.zero() for e in exps if sum(e) < vo}
            for x, y in zip(row, col):
                for ea, a in zip(exps, x.coeffs):
                    for eb, b in zip(exps, y.coeffs):
                        e = tuple(p + q for p, q in zip(ea, eb))
                        if sum(e) < vo:
                            acc[e] = acc[e] + a * b
            out_row.append((vo, tuple(acc[e] for e in exps if sum(e) < vo)))
        out.append(out_row)
    return out


def _assert_rows(got, expected):
    assert len(got) == len(expected)
    for got_row, expected_row in zip(got, expected):
        assert len(got_row) == len(expected_row)
        for s, (vo, coeffs) in zip(got_row, expected_row):
            assert s.valid_order == vo
            assert s.coeffs == coeffs


def _factors(name, arity, n, pattern):
    salg = SeriesAlgebra(COEFFS[name], arity, CAP)
    rng = Random(f"{name} {arity} {n} {pattern}")
    left, right = _orders(pattern, n, rng)
    mat = MatrixAlgebra(salg, n)
    a = SquareMatrix(mat, [[_series(salg, vo, rng) for vo in row] for row in left])
    b = SquareMatrix(mat, [[_series(salg, vo, rng) for vo in row] for row in right])
    return a, b


CASES = [
    pytest.param(name, arity, n, pattern, id=f"{name}-arity{arity}-N{n}-{pattern}")
    for name in COEFFS
    for arity in (1, 2)
    for n in (1, 2, 3)
    for pattern in ("equal", "falling", "independent")
]


@pytest.mark.parametrize("name,arity,n,pattern", CASES)
def test_matrix_product_matches_reference(name, arity, n, pattern):
    a, b = _factors(name, arity, n, pattern)
    got = a * b
    assert got.algebra == a.algebra
    _assert_rows(got.rows, _reference(a.rows, b.rows))


@pytest.mark.parametrize("name,arity,n,pattern", CASES)
def test_row_times_matches_reference(name, arity, n, pattern):
    a, b = _factors(name, arity, n, pattern)
    for row in a.rows:
        got = row_times(row, b)
        _assert_rows([got], _reference([row], b.rows))


@pytest.mark.parametrize("name", sorted(COEFFS))
def test_rectangular_grids_match_reference(name):
    # a 2 x 3 grid times a 3 x 1 column: the shape of a quasideterminant's
    # row * inverse * column
    salg = SeriesAlgebra(COEFFS[name], 2, CAP)
    rng = Random(f"rectangular {name}")
    xs = [[_series(salg, rng.randint(1, CAP), rng) for _ in range(3)] for _ in range(2)]
    ys = [[_series(salg, rng.randint(1, CAP), rng)] for _ in range(3)]
    _assert_rows(salg.matmul(xs, ys), _reference(xs, ys))


def test_no_entry_product_goes_through_series_mul(monkeypatch):
    a, b = _factors("Mat2-QQi", 2, 3, "falling")
    expected = _reference(a.rows, b.rows)

    def refuse(self, other):
        raise AssertionError("entry product through TruncatedSeries.__mul__")

    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
    _assert_rows((a * b).rows, expected)
    _assert_rows([row_times(a.rows[0], b)], expected[:1])


def test_matmul_coerces_entries_and_rejects_other_series():
    salg = SeriesAlgebra(QQ, 1, CAP)
    s = _series(salg, CAP, Random("coerce"))
    ((got,),) = salg.matmul([[Fraction(3, 2)]], [[s]])
    assert got.coeffs == tuple(Fraction(3, 2) * c for c in s.coeffs)
    other = SeriesAlgebra(QQ, 1, CAP + 1).one()
    with pytest.raises(AlgebraMismatch):
        salg.matmul([[s]], [[other]])

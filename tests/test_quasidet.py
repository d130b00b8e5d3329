from fractions import Fraction
from random import Random

import pytest
import sympy

from conftest import fraction_det, with_coeff
from test_elimination import FIELDS, _draw, _ref_inverse, _scalar
from solitonlab.algebra import (
    GFP,
    QQ,
    Algebra,
    MatrixAlgebra,
    SquareMatrix,
    _Field,
    random_element,
)
from solitonlab.errors import (
    SingularCell,
    SingularMatrix,
    SingularSubmatrix,
    VerificationError,
)
from solitonlab.quasidet import (
    FrobeniusCell,
    bottom_row_conventions,
    frobenius_gamma,
    frobenius_quotient,
    quasideterminant,
    solution_entry_via_quasidet,
    wronski,
)
from solitonlab.residual import check_nls, check_toda_gamma
from solitonlab.scalars import PRIME
from solitonlab.series import D_T, D_U, D_V, SeriesAlgebra, series_exp_linear
from solitonlab import solitons
from solitonlab.solitons import random_langmuir_params, langmuir_build_f

M2 = MatrixAlgebra(QQ, 2)


def test_one_by_one():
    m = MatrixAlgebra(QQ, 1).matrix([[Fraction(5, 3)]])
    assert quasideterminant(m, 0, 0) == Fraction(5, 3)


def test_two_by_two_literals():
    x = M2.matrix([[1, 2], [3, 4]])
    assert quasideterminant(x, 0, 0) == Fraction(-1, 2)
    assert quasideterminant(x, 1, 1) == Fraction(-2)


def test_det_ratio_oracle_all_positions():
    rng = Random(99)
    for _ in range(10):
        for size in (2, 3, 4):
            m = random_element(MatrixAlgebra(QQ, size), rng)
            rows = [list(r) for r in m.rows]
            full = fraction_det(rows)
            for i in range(size):
                for j in range(size):
                    sub = [r[:j] + r[j + 1:]
                           for k, r in enumerate(rows) if k != i]
                    sub_det = fraction_det(sub)
                    if sub_det == 0:
                        with pytest.raises(SingularSubmatrix):
                            quasideterminant(m, i, j)
                        continue
                    q = quasideterminant(m, i, j)
                    assert q * sub_det == (-1) ** (i + j) * full


def _ref_quasideterminant(field, grid, i, j):
    """x_ij - r * S^-1 * c in reference scalars, or None when S, the grid
    without row i and column j, is singular."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    sub = [row[:j] + row[j + 1:] for k, row in enumerate(grid) if k != i]
    inv = _ref_inverse(field, sub)
    if inv is None:
        return None
    r = grid[i][:j] + grid[i][j + 1:]
    c = [row[j] for k, row in enumerate(grid) if k != i]
    value = grid[i][j] - sum(
        r[a] * inv[a][b] * c[b] for a in range(n - 1) for b in range(n - 1)
    )
    return value % PRIME if field == GFP else sympy.expand(value)


def _grids(field, size, rng):
    """Full-rank draws, draws with many zeros, and draws with a repeated row
    or column, which leave many submatrices S rank-deficient."""
    for zeros in (0.0, 0.5):
        yield [[_draw(field, rng, zeros) for _ in range(size)] for _ in range(size)]
    if size > 2:
        grid = [[_draw(field, rng, 0.2) for _ in range(size)] for _ in range(size)]
        grid[-1] = list(grid[0])
        yield grid
        grid = [[_draw(field, rng, 0.2) for _ in range(size)] for _ in range(size)]
        for row in grid:
            row[1] = row[0]
        yield grid


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("size", range(1, 6))
def test_field_quasideterminant_matches_reference(name, size):
    field = FIELDS[name]
    rng = Random(f"quasideterminant {name} {size}")
    singular = 0
    for grid in _grids(field, size, rng):
        m = SquareMatrix(MatrixAlgebra(field, size),
                         [[_scalar(field, v) for v in row] for row in grid])
        for i in range(size):
            for j in range(size):
                expected = _ref_quasideterminant(field, grid, i, j)
                if expected is None:
                    singular += 1
                    with pytest.raises(SingularSubmatrix):
                        quasideterminant(m, i, j)
                    continue
                got = quasideterminant(m, i, j)
                assert got == _scalar(field, expected), (grid, i, j)
                assert type(got) is type(field.zero())
    assert size < 3 or singular > 0


def _swapping_grid(field, size, i, j, rng):
    """A grid whose S at (i, j) puts a zero at the pivot of every column but
    the last: S holds rows U_{s-1}, U_0, ..., U_{s-2} of an upper-triangular
    U with a nonzero diagonal, so a first-nonzero pivot search swaps rows at
    each of the first s - 1 columns.  Row i and column j border S."""
    s = size - 1

    def nonzero():
        v = 0
        while v == 0:
            v = _draw(field, rng, 0.0)
        return v

    u = [[nonzero() if c == r else _draw(field, rng, 0.3) if c > r else 0
          for c in range(s)] for r in range(s)]
    grid = [[_draw(field, rng, 0.0) for _ in range(s)] for _ in range(size)]
    for row, u_row in zip(grid[:i] + grid[i + 1:], [u[-1]] + u[:-1]):
        row[:] = u_row
    for row in grid:
        row.insert(j, _draw(field, rng, 0.0))
    return grid


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("size", range(3, 6))
def test_field_quasideterminant_with_a_row_swap_at_every_pivot(name, size):
    field = FIELDS[name]
    rng = Random(f"swaps {name} {size}")
    for _ in range(6):
        i, j = rng.randrange(size), rng.randrange(size)
        grid = _swapping_grid(field, size, i, j, rng)
        m = SquareMatrix(MatrixAlgebra(field, size),
                         [[_scalar(field, v) for v in row] for row in grid])
        expected = _ref_quasideterminant(field, grid, i, j)
        assert quasideterminant(m, i, j) == _scalar(field, expected), (grid, i, j)


def test_field_quasideterminant_neither_inverts_nor_multiplies(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a field quasideterminant called this")

    monkeypatch.setattr(_Field, "matrix_inverse", forbidden)
    monkeypatch.setattr(Algebra, "matmul", forbidden)
    rng = Random(14)
    for field in FIELDS.values():
        for size in (2, 3, 4):
            m = random_element(MatrixAlgebra(field, size), rng)
            for i in range(size):
                for j in range(size):
                    try:
                        quasideterminant(m, i, j)
                    except SingularSubmatrix:
                        pass


def _toda_like_series(rng, n_modes, cap=7):
    out = []
    for _ in range(n_modes):
        cu = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        cv = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        out.append(series_exp_linear(cu, cv, cap, algebra=QQ).scale_left(scale)
                   + SeriesAlgebra(QQ, 2, cap).constant(Fraction(rng.randint(1, 3))))
    return out


def test_wronski_shape():
    rng = Random(5)
    fs = _toda_like_series(rng, 3)
    wp = wronski(fs, D_V)
    # row r of dW equals row r + 1 of W
    for r in range(2):
        for j in range(3):
            assert wp.dW.entry(r, j) == wp.W.entry(r + 1, j)
    assert wp.N == 3


def test_wronski_single_series():
    rng = Random(6)
    (f,) = _toda_like_series(rng, 1)
    wp = wronski([f], D_V)
    assert wp.W.entry(0, 0) == f
    assert wp.dW.entry(0, 0) == f.derive(D_V)


def test_wronski_needs_valid_order():
    salg = SeriesAlgebra(QQ, 2, 4)
    low = salg.one().with_valid_order(1)
    with pytest.raises(ValueError):
        wronski([low, low], D_V)


def test_exponential_wronski_rows_follow_right_multiplication():
    # rows of W are the exponential times increasing powers of its v-exponent
    cu, cv = Fraction(2, 3), Fraction(3, 2)
    e = series_exp_linear(cu, cv, 6, algebra=QQ)
    wp = wronski([e], D_V)
    row = e
    for k in range(1, 2):
        row = row.scale_right(cv)
        assert wp.dW.entry(k - 1, 0) == row


def test_frobenius_gamma_single_mode():
    rng = Random(7)
    (f,) = _toda_like_series(rng, 1)
    cell = frobenius_gamma(wronski([f], D_V))
    assert cell.entry(0, 0) == f.derive(D_V) * f.inverse()


def test_frobenius_gamma_defining_relation_and_shape():
    rng = Random(8)
    for n_modes in (2, 3):
        fs = _toda_like_series(rng, n_modes)
        wp = wronski(fs, D_V)
        cell = frobenius_gamma(wp)
        prod = cell * wp.W
        for i in range(n_modes):
            for j in range(n_modes):
                assert prod.entry(i, j) == wp.dW.entry(i, j)


def test_bottom_row_convention_recorded():
    rng = Random(9)
    fs = _toda_like_series(rng, 2)
    wp = wronski(fs, D_V)
    cell = frobenius_gamma(wp)
    note = bottom_row_conventions(wp, cell)
    assert "skip-order-q-1" in note.matched
    assert "skip-order-q" not in note.matched


def test_bottom_row_convention_univariate_lattice_data():
    rng = Random(10)
    params = random_langmuir_params(rng, N=2, r=1, cap=8, window=3)
    data = langmuir_build_f(params)
    wp = wronski(data.f[0], D_T)
    cell = frobenius_gamma(wp)
    note = bottom_row_conventions(wp, cell)
    assert "skip-order-q-1" in note.matched


def test_solution_entry_matches_cell():
    rng = Random(11)
    fs = _toda_like_series(rng, 2)
    wp = wronski(fs, D_V)
    cell = frobenius_gamma(wp)
    assert solution_entry_via_quasidet(wp, cell.entry(1, 0)).is_zero()


def test_cross_check_residual_starts_at_a_moved_coefficient():
    # residual = (expression - g) |W|_1N, and |W|_1N has an invertible
    # constant term, so its least nonzero exponent is the moved one
    rng = Random(12)
    for n_modes in (1, 2, 3):
        wp = wronski(_toda_like_series(rng, n_modes), D_V)
        g = frobenius_gamma(wp).entry(n_modes - 1, 0)
        residual = solution_entry_via_quasidet(wp, g)
        assert residual.is_zero()
        assert residual.valid_order == g.valid_order
        exps = g.algebra.exponents[:len(g.coeffs)]
        for e in (exps[0], exps[len(exps) // 2], exps[-1]):
            moved = solution_entry_via_quasidet(wp, with_coeff(g, e, g.coeff(e) + 1))
            assert moved.algebra.exponents[moved.nonzero_indices()[0]] == e


def test_toda_solution_rejects_a_moved_quotient_entry(monkeypatch):
    gamma = solitons._gamma

    def moved(fs, d, site):
        wp, cell = gamma(fs, d, site)
        g = cell.entry(cell.dim - 1, 0)
        e = g.algebra.exponents[len(g.coeffs) - 1]  # its last trusted term
        bottom = (with_coeff(g, e, g.coeff(e) + 1),) + cell.bottom_row()[1:]
        return wp, FrobeniusCell(g.algebra, bottom)

    params = solitons.random_toda_params(Random(3), n=3, N=2, cap=7)
    solitons.toda_solution(params)
    monkeypatch.setattr(solitons, "_gamma", moved)
    with pytest.raises(VerificationError, match=r"disagrees at sites \[0, 1, 2\]"):
        solitons.toda_solution(params)


def test_frobenius_gamma_rejects_a_wrong_inverse(monkeypatch):
    rng = Random(13)
    wp = wronski(_toda_like_series(rng, 2), D_V)
    solve = SeriesAlgebra.row_solve

    def corrupted(self, y, m):
        row = solve(self, y, m)
        return (row[0] + 1,) + row[1:]  # one coefficient off by one

    monkeypatch.setattr(SeriesAlgebra, "row_solve", corrupted)
    with pytest.raises(VerificationError):
        frobenius_gamma(wp)


def test_frobenius_cell_of_bottom_row():
    cell = FrobeniusCell(QQ, [1, 2, 3])
    assert cell.dim == 3
    assert cell.entry(0, 1) == 1
    assert cell.entry(0, 0) == 0
    assert cell.bottom_row() == (1, 2, 3)


def _plain(cell):
    return SquareMatrix(cell.algebra, cell.rows)


@pytest.mark.parametrize("r", [1, 2])
def test_a_cell_is_its_matrix(r):
    sol = solitons.toda_solution(solitons.random_toda_params(Random(5), n=2, N=3, r=r, cap=7))
    coeff = sol.data.algebra
    for cell in sol.cells:
        assert isinstance(cell, SquareMatrix)
        assert cell == _plain(cell) and _plain(cell) == cell
        assert not hasattr(cell, "matrix")
        assert cell.rows[:-1] == cell.algebra.one().rows[1:]
        # the bottom row, and its entries' coefficients, are what the traced
        # benchmark child reads
        bottom = cell.bottom_row()
        assert bottom == cell.rows[-1] and len(bottom) == cell.dim == 3
        for s in bottom:
            assert s.algebra.coeff == coeff and len(s.coeffs) == len(s.dens)
            assert all(coeff.coerce(c) is c for c in s.coeffs)
    gamma = check_toda_gamma(sol.cells, D_U, D_V).to_dict()
    assert gamma["passed"]
    assert gamma == check_toda_gamma([_plain(c) for c in sol.cells], D_U, D_V).to_dict()


@pytest.mark.parametrize("N", [1, 2])
def test_nls_check_reads_a_cell_as_its_matrix(N):
    sol = solitons.nls_solution(solitons.random_nls_params(Random(9), N=N, r=2, cap=N + 5))
    data = sol.data
    checks = [check_nls(sol, data.b, data.d0, data.d, gamma=g).to_dict()
              for g in (sol.cell, _plain(sol.cell))]
    assert checks[0]["passed"] and checks[0] == checks[1]


def test_quotient_identity_when_equal():
    cell = FrobeniusCell(QQ, [2, 3])
    y = frobenius_quotient(cell, cell)
    assert y == M2.one()


def test_quotient_literal_example():
    k = FrobeniusCell(QQ, [2, 3])
    l = FrobeniusCell(QQ, [1, 1])
    y = frobenius_quotient(k, l)
    assert y == M2.matrix([[1, 0], [1, 2]])
    # bottom row decomposes through the single inverted corner entry
    assert y.entry(1, 1) == Fraction(2)
    assert y.entry(1, 0) == Fraction(1)


def test_quotient_requires_invertible_corner():
    k = FrobeniusCell(M2, [M2.one(), M2.one()])
    l = FrobeniusCell(
        M2, [M2.matrix([[1, 2], [2, 4]]), M2.one()]
    )
    with pytest.raises(SingularCell):
        frobenius_quotient(k, l)


def test_quotient_closed_form_random_matrix_entries():
    rng = Random(12)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        k = FrobeniusCell(
            M2, [random_element(M2, rng) for _ in range(n)]
        )
        l = FrobeniusCell(
            M2, [random_element(M2, rng) for _ in range(n)]
        )
        try:
            direct = k * l.inverse()
        except SingularMatrix:
            continue
        assert frobenius_quotient(k, l) == direct


def test_quotient_of_prime_field_cells():
    k = FrobeniusCell(GFP, [2, 3, 5])
    l = FrobeniusCell(GFP, [4, 1, PRIME - 4])
    assert frobenius_quotient(k, l) == k * l.inverse()
    with pytest.raises(SingularCell):
        frobenius_quotient(k, FrobeniusCell(GFP, [PRIME, 1, 4]))


def test_quotient_rejects_a_wrong_bottom_row(monkeypatch):
    k = FrobeniusCell(QQ, [2, 3, 5])
    l = FrobeniusCell(QQ, [1, 1, 4])
    # a wrong quotient of the corner entries moves every bottom-row entry
    divide = Fraction.__truediv__
    monkeypatch.setattr(Fraction, "__truediv__", lambda a, b: divide(a, b) + 1)
    with pytest.raises(VerificationError):
        frobenius_quotient(k, l)

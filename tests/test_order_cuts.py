"""Terms formed only through the order their sum or comparison keeps.

Every site that reads its operands through ``series.through`` is compared
here with the uncut formula, written out in full: each result must agree in
every coefficient and in every valid order.  The operands carry unequal
orders, and the matrices of series carry rows of different orders
(Wronskians, Frobenius cells), over QQ, QQ(i), GF(p) and Mat(2, QQ) in one
and two variables.  Spies check which orders the cut sites hand to their
inverses, and that no site makes more or fewer calls than before.
"""

from fractions import Fraction
from random import Random

import pytest

from solitonlab import cli, quasidet, residual, series, solitons
from solitonlab.algebra import (
    GFP,
    QQ,
    QQI,
    GaussianRational,
    MatrixAlgebra,
    SquareMatrix,
    random_element,
    random_invertible,
    row_times,
)
from solitonlab.errors import SingularMatrix
from solitonlab.quasidet import (
    FrobeniusCell,
    frobenius_gamma,
    quasideterminant,
    solution_entry_via_quasidet,
    wronski,
)
from solitonlab.residual import (
    ResidualReport,
    _commutator_with,
    _cubic_residual,
    _langmuir_residual,
    _toda_residuals,
    check_langmuir,
    check_marchenko,
    check_marchenko_lattice,
    check_nls,
    check_toda_gamma,
)
from solitonlab.series import (
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    constant_series_matrix,
    series_exp_linear,
    through,
)
from solitonlab.solitons import (
    LangmuirData,
    NlsData,
    TodaData,
    _langmuir_single_mode_closed_form,
    _sine_gordon_single_mode_closed_form,
    _sine_gordon_two_mode_closed_forms,
    langmuir_build_f,
    langmuir_solution,
    nls_scalar_closed_form,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_sine_gordon_params,
    random_toda_params,
    sine_gordon_solution,
    toda_shift_data,
    toda_solution,
)

CAP = 7
COEFFS = [QQ, QQI, GFP, MatrixAlgebra(QQ, 2)]
CASES = [(c, arity) for c in COEFFS for arity in (1, 2)]
CASE_IDS = [f"{c!r}-arity{arity}" for c, arity in CASES]


def derivations(arity):
    """Two derivations of an arity, the second scaled."""
    if arity == 1:
        return Derivation("t"), Derivation("t", scale=-2)
    return Derivation("u"), Derivation("v", scale=-2)


def rand_series(salg, rng, order, invertible=False):
    n = sum(1 for e in salg.exponents if sum(e) < order)
    coeffs = [random_element(salg.coeff, rng) for _ in range(n)]
    if invertible:
        coeffs[0] = random_invertible(salg.coeff, rng)
    return TruncatedSeries(salg, coeffs, order)


def rand_wronski(salg, rng, orders, d):
    """The Wronski pair of series of the given orders, redrawn until W is
    invertible."""
    for _ in range(64):
        wp = wronski([rand_series(salg, rng, o) for o in orders], d)
        try:
            wp.W.inverse()
        except SingularMatrix:
            continue
        return wp
    raise SingularMatrix("no invertible Wronskian drawn")


def rand_cell(salg, rng, orders):
    """A Frobenius cell whose bottom row carries the given orders under rows
    of constants trusted through cap, redrawn until it is invertible."""
    for _ in range(64):
        cell = FrobeniusCell(
            salg, [rand_series(salg, rng, o, invertible=True) for o in orders]
        )
        try:
            cell.inverse()
        except SingularMatrix:
            continue
        return cell
    raise SingularMatrix("no invertible cell drawn")


def entries(x):
    if isinstance(x, TruncatedSeries):
        return [x]
    return [s for row in x.rows for s in row]


def assert_same(got, want):
    """Equal in every coefficient and every valid order, entry by entry."""
    got, want = entries(got), entries(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.valid_order == w.valid_order
        assert g.coeffs == w.coeffs


def spy_adds(monkeypatch):
    """Record each (label, value) a checker adds to its report."""
    added = {}
    original = ResidualReport.add

    def add(self, label, x):
        added[label] = x
        original(self, label, x)

    monkeypatch.setattr(ResidualReport, "add", add)
    return added


# -- the helper ---------------------------------------------------------------


def test_through_cuts_only_what_lies_beyond_the_order():
    rng = Random(1)
    salg = SeriesAlgebra(QQ, 2, CAP)
    s = rand_series(salg, rng, 6)
    assert through(s, 6) is s and through(s, 9) is s
    cut = through(s, 3)
    assert cut.valid_order == 3
    assert cut.coeffs == s.coeffs[:6]
    m = rand_cell(salg, rng, [5, 4])
    cut = through(m, 5)
    assert [[x.valid_order for x in row] for row in cut.rows] == [[5, 5], [5, 4]]
    assert cut.rows[1][1] is m.rows[1][1]


# -- residual.py --------------------------------------------------------------


def uncut_toda(xs, d1, d2):
    n = len(xs)
    invs = [x.inverse() for x in xs]
    return [
        (xs[k].derive(d2) * invs[k]).derive(d1)
        - xs[k] * invs[(k - 1) % n]
        + xs[(k + 1) % n] * invs[k]
        for k in range(n)
    ]


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_toda_residuals_of_series_equal_the_uncut_formula(coeff, arity):
    rng = Random(11)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d1, d2 = derivations(arity)
    for orders in ([7, 7, 7], [7, 4, 6], [3, 7, 5, 7], [6]):
        xs = [rand_series(salg, rng, o, invertible=True) for o in orders]
        for got, want in zip(_toda_residuals(xs, d1, d2), uncut_toda(xs, d1, d2)):
            assert_same(got, want)


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_toda_residuals_of_matrices_equal_the_uncut_formula(coeff, arity):
    rng = Random(12)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d1, d2 = derivations(arity)
    cells = [rand_cell(salg, rng, orders) for orders in ([6, 6], [5, 7], [7, 4])]
    wps = [rand_wronski(salg, rng, orders, d2).W for orders in ([7, 7], [6, 7])]
    for xs in (cells, wps, [cells[0], wps[1]]):
        for got, want in zip(_toda_residuals(xs, d1, d2), uncut_toda(xs, d1, d2)):
            assert_same(got, want)


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_langmuir_residual_equals_the_uncut_formula(coeff, arity):
    rng = Random(13)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d = derivations(arity)[1]
    xs = {k: rand_series(salg, rng, o) for k, o in enumerate([7, 4, 6, 2, 7])}
    cells = {k: rand_cell(salg, rng, o) for k, o in enumerate([[6, 6], [7, 5], [5, 7]])}
    for ys in (xs, cells):
        for k in list(ys)[1:-1]:
            want = ys[k].derive(d) - ys[k + 1] * ys[k] + ys[k] * ys[k - 1]
            assert_same(_langmuir_residual(ys, k, d), want)


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_cubic_residual_equals_the_uncut_formula(coeff, arity):
    rng = Random(14)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d0, d = derivations(arity)
    b = random_element(coeff, rng)
    values = [rand_series(salg, rng, o) for o in (7, 5)]
    values += [rand_cell(salg, rng, [6, 4]), rand_wronski(salg, rng, [7, 6], d).W]
    for U in values:
        want = (
            (U.derive(d0).scale_left(b) + U * U * U).scale_left(2)
            + U.derive(d).derive(d)
        )
        assert_same(_cubic_residual(U, b, d0, d), want)


@pytest.mark.parametrize("field", [QQ, QQI, GFP])
@pytest.mark.parametrize("arity", [1, 2])
def test_check_nls_blocks_and_v_equation_equal_the_uncut_formulas(
        field, arity, monkeypatch):
    rng = Random(15)
    S = MatrixAlgebra(field, 2)
    salg = SeriesAlgebra(S, arity, CAP)
    d0, d = derivations(arity)
    b = S.diagonal([1, -1])
    q1, q2 = S.diagonal([1, 0]), S.diagonal([0, 1])
    added = spy_adds(monkeypatch)
    U = rand_series(salg, rng, 6)
    gamma = rand_cell(salg, rng, [7, 5])
    check_nls(U, b, d0, d, gamma=gamma)
    u12 = U.scale_left(q1).scale_right(q2)
    u21 = U.scale_left(q2).scale_right(q1)
    assert_same(added["block equation (1,2)"], (
        (u12.derive(d0) + u12 * u21 * u12).scale_left(2) + u12.derive(d).derive(d)
    ))
    assert_same(added["block equation (2,1)"], (
        (u21 * u12 * u21 - u21.derive(d0)).scale_left(2) + u21.derive(d).derive(d)
    ))
    u_mat = _commutator_with(gamma, b)
    v_mat = gamma.scale_right(b) + gamma.scale_left(b)
    assert_same(added["v-equation"], v_mat.derive(d).scale_left(b) - u_mat * u_mat)


@pytest.mark.parametrize("field,arity", [
    (f, a) for f in (QQ, QQI, GFP) for a in (1, 2)])
def test_check_langmuir_product_form_equals_the_uncut_formula(
        field, arity, monkeypatch):
    rng = Random(16)
    salg = SeriesAlgebra(field, arity, CAP)
    d = derivations(arity)[0]
    gs = {k: rand_series(salg, rng, o) for k, o in enumerate([7, 3, 6, 5, 7])}
    added = spy_adds(monkeypatch)
    check_langmuir(gs, d)
    for k in (1, 2, 3):
        want = gs[k].derive(d) - gs[k] * (gs[k + 1] - gs[k - 1])
        assert_same(added[f"site {k} (commutative product form)"], want)


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_data_check_scalings_equal_the_uncut_formulas(coeff, arity, monkeypatch):
    rng = Random(17)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d1, d2 = derivations(arity)
    added = spy_adds(monkeypatch)
    n, N = 3, 2
    f = [[rand_series(salg, rng, rng.choice([4, 6, 7])) for _ in range(N)]
         for _ in range(n)]
    a = [[random_invertible(coeff, rng) for _ in range(N)] for _ in range(n)]
    residual.check_data("toda", TodaData(
        f=f, a=a, n=n, N=N, algebra=coeff, cap=CAP, d1=d1, d2=d2))
    for i in range(n):
        for j in range(N):
            assert_same(added[f"du relation f[{i}][{j}]"], (
                f[i][j].derive(d1)
                - f[(i - 1) % n][j].scale_right(coeff.invert(a[i][j]))
            ))
            assert_same(added[f"dv relation f[{i}][{j}]"], (
                f[i][j].derive(d2) - f[(i + 1) % n][j].scale_right(a[(i + 1) % n][j])
            ))
    lf = {k: [rand_series(salg, rng, o) for o in orders]
          for k, orders in enumerate([[7, 5], [4, 7], [6, 6]])}
    la = [random_invertible(coeff, rng) for _ in range(N)]
    residual.check_data("langmuir", LangmuirData(
        f=lf, a=la, mu=la, p=la, q=la, N=N, algebra=coeff, cap=CAP,
        sites=list(lf), d=d2))
    for k in (0, 1):
        for j in range(N):
            assert_same(added[f"shift-by-one relation f[{k}][{j}]"], (
                lf[k][j].derive(d2) + lf[k][j] - lf[k + 1][j].scale_right(la[j])
            ))
    wp = rand_wronski(salg, rng, [7, 6], d2)
    one = coeff.one()
    residual.check_data("nls", NlsData(
        fs=list(wp.fs), b=one, q1=one, q2=one, a=la, algebra=coeff, cap=CAP,
        d0=d1, d=d2, mode="heat"))
    wa = SquareMatrix(wp.W.algebra, [
        [wp.W.entry(m, j).scale_right(la[j]) for j in range(N)] for m in range(N)
    ])
    assert_same(added["graded first derivative vs diagonal"],
                wp.dW.scale_left(one) - wa)


def test_lemma_checkers_equal_the_uncut_formulas(monkeypatch):
    # the hypotheses are read through MatrixAlgebra.is_zero, the residuals
    # through ResidualReport.add
    seen = []
    original = MatrixAlgebra.is_zero

    def is_zero(self, x):
        seen.append(x)
        return original(self, x)

    monkeypatch.setattr(MatrixAlgebra, "is_zero", is_zero)
    added = spy_adds(monkeypatch)
    rng = Random(18)
    sol = toda_solution(random_toda_params(rng, n=3, N=2, cap=7))
    gammas, a_mats = toda_shift_data(sol)
    d1, d2 = sol.data.d1, sol.data.d2
    check_marchenko(gammas, a_mats, d1, d2)
    n = len(gammas)
    for k in range(n):
        want = gammas[k].derive(d2) - gammas[(k + 1) % n] * a_mats[k]
        assert_same(seen[4 * k + 3], want)
    cs = [g.derive(d2) * g.inverse() for g in gammas]
    for k, want in enumerate(uncut_toda(cs, d1, d2)):
        assert_same(added[f"site {k}"], want)
    check_toda_gamma(sol.cells, d1, d2)
    cells = list(sol.cells)
    for k, want in enumerate(uncut_toda(cells, d1, d2)):
        assert_same(added[f"site {k}"], want)

    seen.clear()
    lsol = langmuir_solution(random_langmuir_params(Random(19), N=2, cap=8, window=4))
    data, d = lsol.data, lsol.data.d
    sites = sorted(data.sites)
    ws = {k: wronski(data.f[k], d).W for k in sites}
    a_const = constant_series_matrix(
        MatrixAlgebra(data.algebra, data.N).diagonal(data.a), 1, data.cap
    )
    check_marchenko_lattice(ws, {k: a_const for k in sites}, d)
    tests = iter(seen)
    for k in sites:
        next(tests)  # A[k] is constant
        if k + 2 in ws:
            next(tests)  # the double shift, with no product
        if k + 1 in ws:
            assert_same(next(tests), ws[k].derive(d) + ws[k] - ws[k + 1] * a_const)
    cs = {k: ws[k].derive(d) * ws[k].inverse() for k in sites}
    one = a_const.algebra.one()
    for k in sites[:-1]:
        want = (cs[k + 1] - cs[k]) * (cs[k] + one) - cs[k].derive(d)
        assert_same(added[f"increment-product site {k}"], want)
    us = {k: cs[k] * cs[k - 1].inverse() for k in sites[1:]}
    for k in sites[2:-1]:
        want = us[k].derive(d) - us[k + 1] * us[k] + us[k] * us[k - 1]
        assert_same(added[f"lattice-equation site {k}"], want)


# -- quasidet.py --------------------------------------------------------------


def uncut_cross_check(wp, g):
    n = wp.N
    return (
        quasideterminant(wp.dW, n - 1, n - 1)
        - g * quasideterminant(wp.W, 0, n - 1)
    )


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("orders", [[6], [7, 7], [7, 5], [6, 7, 5]])
def test_cross_check_equals_the_uncut_formula(coeff, arity, orders):
    if isinstance(coeff, MatrixAlgebra) and len(orders) == 3:
        orders = orders[:2]  # keeps the Mat(2) cases small
    rng = Random(20)
    salg = SeriesAlgebra(coeff, arity, CAP)
    d = derivations(arity)[1]
    wp = rand_wronski(salg, rng, orders, d)
    g = frobenius_gamma(wp).entry(wp.N - 1, 0)
    assert solution_entry_via_quasidet(wp, g).is_zero()
    for h in (g, rand_series(salg, rng, CAP), rand_series(salg, rng, 3)):
        assert_same(solution_entry_via_quasidet(wp, h), uncut_cross_check(wp, h))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", [
    "toda --n 3 --N 2 --cap 8",
    "toda --n 3 --N 3 --cap 10",
    "toda --n 4 --N 3 --cap 12",
    "sine-gordon --N 2 --cap 10",
    "sine-gordon --N 2 --cap 10 --with-lemmas",
    "toda --n 2 --N 2 --r 2 --cap 6",
])
def test_cross_check_keeps_the_order_of_the_comparison_it_replaced(
        case, seed, tmp_path, monkeypatch):
    # g was compared with numer * denom^-1 through the lesser of their
    # orders; the residual numer - g denom must vanish through that order
    seen = []

    def spy(wp, g):
        seen.append((wp, g, solution_entry_via_quasidet(wp, g)))
        return seen[-1][2]

    monkeypatch.setattr(solitons, "solution_entry_via_quasidet", spy)
    args = case.split() + ["--seed", str(seed), "--report", str(tmp_path / "r.json")]
    assert cli.main(args) == 0
    assert seen
    for wp, g, res in seen:
        n = wp.N
        least = min(s.valid_order for row in wp.dW.rows for s in row)
        numer = quasideterminant(through(wp.dW, least), n - 1, n - 1)
        denom = quasideterminant(through(wp.W, least), 0, n - 1)
        quotient = numer * denom.inverse()
        assert res.valid_order == min(quotient.valid_order, g.valid_order)
        assert res.is_zero() and quotient == g


@pytest.mark.parametrize("coeff,arity", CASES, ids=CASE_IDS)
def test_frobenius_gamma_of_one_mode_equals_the_uncut_formula(coeff, arity):
    rng = Random(21)
    salg = SeriesAlgebra(coeff, arity, CAP)
    for order in (7, 4):
        wp = rand_wronski(salg, rng, [order], derivations(arity)[0])
        want = row_times(wp.dW.rows[-1], wp.W.inverse())
        got = frobenius_gamma(wp).bottom_row()
        assert_same(got[0], want[0])


def test_cross_check_inverts_nothing_above_the_least_order_of_dW(monkeypatch):
    seen = []
    original = series.SeriesAlgebra.matrix_inverse

    def matrix_inverse(self, m):
        seen.append(max(s.valid_order for row in m.rows for s in row))
        return original(self, m)

    monkeypatch.setattr(series.SeriesAlgebra, "matrix_inverse", matrix_inverse)
    def no_series_inverse(s):
        raise AssertionError("the cross-check inverted a series")

    qdets = []
    qdet = quasidet.quasideterminant
    monkeypatch.setattr(quasidet, "quasideterminant",
                        lambda *args: qdets.append(args) or qdet(*args))
    rng = Random(22)
    for coeff, arity in ((QQ, 2), (QQI, 1), (MatrixAlgebra(QQ, 2), 2)):
        salg = SeriesAlgebra(coeff, arity, CAP)
        for orders in ([7, 7], [7, 6, 7]):
            wp = rand_wronski(salg, rng, orders, derivations(arity)[1])
            least = min(s.valid_order for row in wp.dW.rows for s in row)
            g = frobenius_gamma(wp).entry(wp.N - 1, 0)
            seen.clear()
            qdets.clear()
            with monkeypatch.context() as patch:
                patch.setattr(series, "series_inverse", no_series_inverse)
                solution_entry_via_quasidet(wp, g)
            assert len(qdets) == 1
            assert len(seen) == 1  # one submatrix, shared by both terms
            assert max(seen) <= least


def test_frobenius_gamma_of_one_mode_inverts_only_through_the_target(monkeypatch):
    seen = []
    original = series.SeriesAlgebra.matrix_inverse

    def matrix_inverse(self, m):
        seen.append([s.valid_order for row in m.rows for s in row])
        return original(self, m)

    monkeypatch.setattr(series.SeriesAlgebra, "matrix_inverse", matrix_inverse)
    rng = Random(23)
    for coeff, arity in CASES:
        salg = SeriesAlgebra(coeff, arity, CAP)
        wp = rand_wronski(salg, rng, [CAP], derivations(arity)[0])
        seen.clear()
        frobenius_gamma(wp)
        assert seen == [[wp.dW.rows[-1][0].valid_order]] == [[CAP - 1]]


# -- solitons.py closed forms -------------------------------------------------


def test_nls_closed_form_inverts_f_only_through_g(monkeypatch):
    seen = []
    original = series.series_inverse

    def series_inverse(s):
        seen.append(s.valid_order)
        return original(s)

    monkeypatch.setattr(series, "series_inverse", series_inverse)
    for mode, scalar in (("nls", "gaussian-rational"), ("heat", "rational")):
        seen.clear()
        params = random_nls_params(Random(27), N=1, cap=7, mode=mode, scalar=scalar)
        sol = nls_solution(params)
        assert seen == [sol.g.valid_order] == [6]


def test_scalar_nls_closed_form_equals_the_uncut_formula(monkeypatch):
    seen = []
    original = series.SeriesAlgebra.matrix_divide

    def matrix_divide(self, x, m):
        seen.append({s.valid_order for row in m.rows for s in row})
        return original(self, x, m)

    monkeypatch.setattr(series.SeriesAlgebra, "matrix_divide", matrix_divide)
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    alpha, beta = GaussianRational(2), GaussianRational(1)
    cmp = nls_scalar_closed_form(a, alpha, beta, cap=CAP)
    assert seen == [{CAP - 1}]
    i = GaussianRational(0, 1)
    ac = a.conjugate()
    exp = lambda cu, cv: series_exp_linear(cu, cv, CAP, algebra=QQI)
    f = SquareMatrix(MatrixAlgebra(SeriesAlgebra(QQI, 2, CAP), 2), (
        (exp(i * a * a, a).scale_left(alpha), exp(i * ac * ac, -ac).scale_left(beta)),
        (exp(-i * a * a, -a).scale_left(beta), exp(-i * ac * ac, ac).scale_left(alpha)),
    ))
    gamma = f.derive(Derivation("v")) * f.inverse()
    want = {
        "via-gamma-12": gamma.entry(0, 1).scale_left(-2),
        "via-gamma-21": gamma.entry(1, 0).scale_left(-2),
    }
    assert_same(cmp.series, want[cmp.orientation.matched[0]])


def test_closed_forms_equal_the_uncut_forms_through_the_pipeline_order():
    rng = Random(24)
    for r in (1, 2):
        params = random_sine_gordon_params(rng, N=1, r=r, cap=7)
        sol = sine_gordon_solution(params)
        S = sol.toda.data.algebra
        p, q, a = (S.coerce(x[0]) for x in (params.p, params.q, params.a))
        for i, g in enumerate(sol.gs):
            h = series_exp_linear(
                S.scalar_mul(-2, S.invert(a)), S.scalar_mul(-2, a), 7, algebra=S
            ).scale_left(q)
            signed = h if i % 2 == 0 else -h
            salg = h.algebra
            uncut = (
                (salg.constant(p) - signed).scale_right(a)
                * (salg.constant(p) + signed).inverse()
            )
            got = _sine_gordon_single_mode_closed_form(S, p, q, a, g, i)
            assert_same(got, through(uncut, g.valid_order))
            assert got == g

    params = random_sine_gordon_params(Random(25), N=2, r=1, cap=8)
    sol = sine_gordon_solution(params)
    data = sol.toda.data
    S = data.algebra
    a = [S.coerce(x) for x in params.a]
    for i, g in enumerate(sol.gs):
        f = data.f
        prev = (i - 1) % 2
        inv = f[prev][0].inverse()
        first = (
            f[i][1].scale_right(a[1] * a[1])
            - f[i][0].scale_right(a[0]) * inv * f[prev][1].scale_right(a[1])
        )
        second = f[i][1] - f[i][0].scale_right(S.invert(a[0])) * inv * (
            f[prev][1].scale_right(a[1]))
        uncut = first * second.inverse()
        got = _sine_gordon_two_mode_closed_forms(data, a, i, g)
        assert_same(got["site-consistent"], through(uncut, g.valid_order))

    params = random_langmuir_params(Random(26), N=1, r=1, cap=8, window=4)
    data = langmuir_build_f(params)
    lsol = langmuir_solution(params, data)
    S = data.algebra
    mu, p, q = data.mu[0], data.p[0], data.q[0]
    mu2, mu_m2 = mu * mu, S.invert(mu * mu)
    gap = series_exp_linear(mu2 - mu_m2, None, data.cap, algebra=S)

    def h(m):
        power = S.one()
        for _ in range(abs(m)):
            power = power * (mu if m > 0 else S.invert(mu))
        return gap.algebra.constant(q) + gap.scale_left(p * power)

    for k, g in lsol.gs.items():
        uncut = (
            h(2 * k + 4).scale_right(mu_m2) * h(2 * k).inverse()
            * h(2 * k - 2).scale_right(mu2) * h(2 * k + 2).inverse()
        )
        got = _langmuir_single_mode_closed_form(data, k, g)
        assert_same(got, through(uncut, g.valid_order))
        assert got == g


# -- call counts ----------------------------------------------------------------

# Calls made by the uncut formulas on these runs; cutting an operand changes
# what a call reads, never whether it is made.  The Toda residual forms each
# shift quotient x_{k+1} x_k^-1 once, for both sites that read it: n series
# products at period n where there were 2n.  The cross-check is one
# bordered quasideterminant per site, with no series inverse and no
# numer * denom^-1 product, but one product g * w per entry w of W's top row;
# a quotient x * y^-1 whose inverse feeds nothing else is one right division
# x / y, which is neither an inverse nor a product.
CALL_COUNTS = {
    # cross-check at 3 sites, N = 2: qdet -3, inverse -3, products -3 + 6
    ("toda", "--n", "3", "--N", "2", "--cap", "7"): (3, 3, 12),
    # cross-check at 2 sites, N = 3: qdet -2, inverse -2, products -2 + 6
    ("toda", "--n", "2", "--N", "3", "--cap", "7", "--with-lemmas"): (20, 8, 22),
    # cross-check at 2 sites, N = 1: qdet -2, inverse -2, products -2 + 2;
    # the closed form divides at 2 sites: inverse -2, products -2
    ("sine-gordon", "--N", "1", "--cap", "7"): (2, 2, 6),
    # cross-check at 2 sites, N = 2: qdet -2, inverse -2, products -2 + 4;
    # both readings of the closed form divide at 2 sites: inverse -4,
    # products -4
    ("sine-gordon", "--N", "2", "--cap", "8", "--r", "2"): (2, 4, 20),
    # the closed form divides twice at 4 sites: inverse -8, products -8;
    # the 4 cell quotients divide mu_0 / nu_0: inverse -4, products -4;
    # check_langmuir reports the lattice residuals langmuir_solution formed
    # at the 2 interior sites: products -4
    ("langmuir", "--N", "1", "--window", "4", "--cap", "7", "--with-lemmas"):
        (0, 0, 14),
    ("nls", "--N", "1", "--cap", "6"): (0, 1, 7),
    ("nls", "--N", "2", "--cap", "6", "--mode", "heat", "--scalar", "gf-p"):
        (0, 0, 8),
}


@pytest.mark.parametrize("args", list(CALL_COUNTS), ids=" ".join)
def test_call_counts_are_unchanged(args, tmp_path, monkeypatch):
    counts = {"qdet": 0, "inverse": 0, "mul": 0}

    def counting(name, fn):
        def wrapper(*a, **kw):
            counts[name] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(quasidet, "quasideterminant",
                        counting("qdet", quasidet.quasideterminant))
    monkeypatch.setattr(series, "series_inverse",
                        counting("inverse", series.series_inverse))
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        counting("mul", TruncatedSeries.__mul__))
    code = cli.main(list(args) + ["--seed", "3", "--report", str(tmp_path / "r.json")])
    assert code == 0
    assert (counts["qdet"], counts["inverse"], counts["mul"]) == CALL_COUNTS[args]


# SquareMatrix.derive and SquareMatrix.__sub__ calls made inside the lemma
# checkers (check_marchenko_lattice on langmuir, check_marchenko on
# sine-gordon) on these runs.
LEMMA_CALL_COUNTS = {
    # 8 window sites.  derive 41 -> 28: d G_k is formed once per site (8)
    # where the double-shift check, the affine check and the quotient c_k
    # formed it 6 + 7 + 8 times; sub 62 -> 44: each increment c_{k+1} - c_k
    # is formed once (7) where increment-product, increment-shift and
    # additive-quotient formed it 7 + 12 + 6 times
    ("langmuir", "--N", "2", "--window", "5", "--cap", "6", "--with-lemmas"):
        (28, 44),
    # 2 sites.  derive 16 -> 12: d2 w_k is formed once per site (2) where
    # the mixed-derivative check, the shift-linear check and c_k formed it
    # 2 + 2 + 2 times; sub is unchanged
    ("sine-gordon", "--N", "2", "--cap", "6", "--with-lemmas"): (12, 6),
}


@pytest.mark.parametrize("args", list(LEMMA_CALL_COUNTS), ids=" ".join)
def test_lemma_checkers_form_each_value_once(args, tmp_path, monkeypatch):
    counts = {"derive": 0, "sub": 0}
    inside = []

    def counting(name, fn):
        def wrapper(*a, **kw):
            counts[name] += bool(inside)
            return fn(*a, **kw)
        return wrapper

    def scoped(fn):
        def wrapper(*a, **kw):
            inside.append(fn)
            try:
                return fn(*a, **kw)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(SquareMatrix, "derive", counting("derive", SquareMatrix.derive))
    monkeypatch.setattr(SquareMatrix, "__sub__", counting("sub", SquareMatrix.__sub__))
    monkeypatch.setattr(cli, "check_marchenko", scoped(cli.check_marchenko))
    monkeypatch.setattr(cli, "check_marchenko_lattice", scoped(cli.check_marchenko_lattice))
    code = cli.main(list(args) + ["--seed", "3", "--report", str(tmp_path / "r.json")])
    assert code == 0
    assert (counts["derive"], counts["sub"]) == LEMMA_CALL_COUNTS[args]

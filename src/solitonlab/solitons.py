"""Constructors for the four families of explicit lattice/field solutions.

Each family follows the same pattern: build a grid of series from exponentials
of commuting linear forms so that a linear system of shift/derivative
relations holds exactly, stack Wronski matrices, and read the solution off the
bottom row of the Frobenius quotient (dW) * W^-1.  Where a closed form exists
it is evaluated independently and compared against the pipeline; where the
classical displays admit two index/sign readings, both are computed and the
one that actually satisfies the target equation is selected and recorded.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import (
    CC,
    QQ,
    QQI,
    Algebra,
    MatrixAlgebra,
    SquareMatrix,
    random_element,
    random_invertible,
)
from .errors import (
    BNotInvolutive,
    ClosedFormMismatch,
    EvaluationSingularity,
    SingularMatrix,
    SingularWronskian,
    VerificationError,
    WindowTooSmall,
)
from .quasidet import (
    ConventionNote,
    FrobeniusCell,
    WronskiPair,
    frobenius_gamma,
    frobenius_quotient,
    solution_entry_via_quasidet,
    wronski,
)
from .residual import (
    _commutator_with,
    _cubic_residual,
    _langmuir_residual,
    _pm_one_split,
)
from .scalars import GaussianRational
from .series import (
    D_T,
    D_U,
    D_V,
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    series_exp_linear,
)

__all__ = [
    "scalar_algebra",
    "TodaParams",
    "SineGordonParams",
    "LangmuirParams",
    "NlsParams",
    "TodaData",
    "LangmuirData",
    "NlsData",
    "toda_build_f",
    "toda_solution",
    "toda_shift_data",
    "sine_gordon_solution",
    "langmuir_build_f",
    "langmuir_solution",
    "nls_solution",
    "nls_scalar_closed_form",
    "random_toda_params",
    "random_sine_gordon_params",
    "random_langmuir_params",
    "random_nls_params",
]


_FIELDS = {
    "rational": QQ,
    "gaussian-rational": QQI,
    "complex-float": CC,
}


def scalar_algebra(scalar: str, r: int) -> Algebra:
    """The coefficient algebra: a scalar field, or r x r matrices over it."""
    try:
        fld = _FIELDS[scalar]
    except KeyError:
        raise ValueError(f"unknown scalar mode {scalar!r}") from None
    return fld if r == 1 else MatrixAlgebra(fld, r)


def _power(alg: Algebra, x, k: int):
    """x**k in the algebra, with negative k through the inverse."""
    if k < 0:
        return _power(alg, alg.invert(x), -k)
    acc = alg.one()
    for _ in range(k):
        acc = acc * x
    return acc


def cyclic_shift_matrix(alg: Algebra, n: int) -> SquareMatrix:
    """The n x n permutation matrix sending basis vector e_i to e_{i+1 mod n}."""
    mat_alg = MatrixAlgebra(alg, n)
    z, e = alg.zero(), alg.one()
    return SquareMatrix(
        mat_alg,
        tuple(
            tuple(e if m == (i + 1) % n else z for i in range(n))
            for m in range(n)
        ),
    )


# ---------------------------------------------------------------------------
# periodic Toda
# ---------------------------------------------------------------------------


@dataclass
class TodaParams:
    """Parameters of the n-periodic construction with N exponential modes."""

    n: int
    N: int
    r: int
    cap: int
    a: list  # a[i][j], i = 0..n-1 sites, j = 0..N-1 modes; all invertible
    p: list  # p[j][i]: one length-n row vector per mode
    scalar: str = "rational"

    def validate(self):
        if self.n < 1:
            raise ValueError("period n must be at least 1")
        if self.N < 1:
            raise ValueError("mode count N must be at least 1")
        if self.r < 1:
            raise ValueError("block size r must be at least 1")
        if self.cap < self.N + 3:
            raise ValueError(f"cap must be at least N + 3 = {self.N + 3}")
        if len(self.a) != self.n or any(len(row) != self.N for row in self.a):
            raise ValueError("a must be an n x N array")
        if len(self.p) != self.N or any(len(row) != self.n for row in self.p):
            raise ValueError("p must hold N row vectors of length n")


@dataclass
class TodaData:
    """Output of the linear stage: the f grid and its constant coefficients."""

    f: list  # f[i][j]: bivariate series, site i, mode j
    a: list  # a[i][j]: invertible algebra elements
    n: int
    N: int
    algebra: Algebra
    cap: int
    d1: Derivation = field(default_factory=lambda: D_U)
    d2: Derivation = field(default_factory=lambda: D_V)


def toda_build_f(params: TodaParams) -> TodaData:
    """Exponential grid satisfying the one-step shift relations exactly.

    With the cyclic shift s and the diagonal of a-coefficients, the v-exponent
    of mode j is the product (diagonal) * s, so that componentwise

        d/du f[i][j] = f[i-1][j] * a[i][j]^-1
        d/dv f[i][j] = f[i+1][j] * a[i+1][j]         (site indices mod n).
    """
    params.validate()
    S = scalar_algebra(params.scalar, params.r)
    n, N, cap = params.n, params.N, params.cap
    mat_n = MatrixAlgebra(S, n)
    shift = cyclic_shift_matrix(S, n)
    a = [[S.coerce(x) for x in row] for row in params.a]
    for row in a:
        for x in row:
            S.invert(x)  # raises SingularMatrix if any a is not invertible
    p = [[S.coerce(x) for x in row] for row in params.p]
    salg = SeriesAlgebra(S, 2, cap)
    f = [[None] * N for _ in range(n)]
    for j in range(N):
        diag_j = mat_n.diagonal([a[i][j] for i in range(n)])
        r_j = diag_j * shift
        e_j = series_exp_linear(r_j.inverse(), r_j, cap, algebra=mat_n)
        # row vector p_j times the matrix series, one component per site
        for i in range(n):
            coeffs = []
            for c in e_j.coeffs:
                acc = p[j][0] * c.rows[0][i]
                for m in range(1, n):
                    acc = acc + p[j][m] * c.rows[m][i]
                coeffs.append(acc)
            f[i][j] = TruncatedSeries(salg, coeffs, e_j.valid_order)
    return TodaData(f=f, a=a, n=n, N=N, algebra=S, cap=cap)


@dataclass
class TodaSolution:
    gs: list  # n series, the bottom-left quotient entries
    cells: list  # FrobeniusCell per site
    wronskians: list  # WronskiPair per site
    data: TodaData
    notes: list


def toda_solution(params: TodaParams, data: TodaData = None) -> TodaSolution:
    """Bottom-left Frobenius-quotient entries of the sitewise Wronskians,
    cross-checked against the quasideterminant expression at every site."""
    if data is None:
        data = toda_build_f(params)
    cells, pairs, gs = [], [], []
    notes = []
    for k in range(data.n):
        try:
            wp = wronski([data.f[k][j] for j in range(data.N)], data.d2)
            cell = frobenius_gamma(wp)
        except SingularMatrix as exc:
            raise SingularWronskian(
                f"Wronski matrix at site {k} is singular", site=k
            ) from exc
        pairs.append(wp)
        cells.append(cell)
        gs.append(cell.entry(data.N - 1, 0))
    mismatches = []
    for k, wp in enumerate(pairs):
        try:
            expr = solution_entry_via_quasidet(wp)
        except SingularMatrix:
            notes.append(f"quasideterminant expression undefined at site {k}")
            continue
        if not expr.algebra.agree(expr, gs[k]):
            mismatches.append(k)
    if mismatches:
        raise VerificationError(
            f"quasideterminant expression disagrees at sites {mismatches}"
        )
    notes.append("quasideterminant expression matches the quotient entry at every site")
    return TodaSolution(gs=gs, cells=cells, wronskians=pairs, data=data, notes=notes)


def toda_shift_data(solution: TodaSolution):
    """Package (Gamma, A) for the cyclic-shift checker: Gamma[k] is the k-th
    Wronski matrix and A[k] the diagonal of a-coefficients at site k+1.

    The site shift on A makes d2 Gamma[k] = Gamma[k+1] * A[k] hold literally.
    """
    data = solution.data
    salg = solution.wronskians[0].W.algebra.base
    gammas = [wp.W for wp in solution.wronskians]
    a_mats = []
    for k in range(data.n):
        diag = [
            salg.constant(data.a[(k + 1) % data.n][j]) for j in range(data.N)
        ]
        a_mats.append(MatrixAlgebra(salg, data.N).diagonal(diag))
    return gammas, a_mats


def random_toda_params(rng, n: int, N: int, r: int = 1, cap: int = None,
                       scalar: str = "rational") -> TodaParams:
    S = scalar_algebra(scalar, r)
    cap = cap if cap is not None else N + 6
    a = [[random_invertible(S, rng) for _ in range(N)] for _ in range(n)]
    p = [[random_element(S, rng) for _ in range(n)] for _ in range(N)]
    return TodaParams(n=n, N=N, r=r, cap=cap, a=a, p=p, scalar=scalar)


# ---------------------------------------------------------------------------
# sine-Gordon (2-periodic)
# ---------------------------------------------------------------------------


@dataclass
class SineGordonParams:
    N: int
    r: int
    cap: int
    p: list  # per mode
    q: list
    a: list  # invertible
    scalar: str = "rational"

    def validate(self):
        if self.N < 1:
            raise ValueError("mode count N must be at least 1")
        if self.cap < self.N + 3:
            raise ValueError(f"cap must be at least N + 3 = {self.N + 3}")
        if not (len(self.p) == len(self.q) == len(self.a) == self.N):
            raise ValueError("p, q, a must all have N entries")


@dataclass
class SineGordonSolution:
    gs: tuple  # the two alternating-site solutions
    closed_forms: Optional[tuple]
    notes: list
    toda: TodaSolution


def sine_gordon_solution(params: SineGordonParams) -> SineGordonSolution:
    """Two-site alternating solution built from paired +/- exponentials.

    For one mode the closed form (p - (-1)^i q h) a (p + (-1)^i q h)^-1 with
    h = exp(-2 a^-1 u - 2 a v) is evaluated and must match the pipeline.  For
    two modes the classical two-factor display is evaluated in two readings
    (the literal one contains a fixed site index that looks like a typo); the
    pipeline output is authoritative and the matching readings are recorded.
    """
    params.validate()
    S = scalar_algebra(params.scalar, params.r)
    N, cap = params.N, params.cap
    p = [S.coerce(x) for x in params.p]
    q = [S.coerce(x) for x in params.q]
    a = [S.coerce(x) for x in params.a]
    for x in a:
        S.invert(x)
    f = [[None] * N for _ in range(2)]
    for j in range(N):
        a_inv = S.invert(a[j])
        plus = series_exp_linear(a_inv, a[j], cap, algebra=S)
        minus = series_exp_linear(-a_inv, -a[j], cap, algebra=S)
        for i in range(2):
            sgn = minus.scale_left(q[j])
            f[i][j] = plus.scale_left(p[j]) + (sgn if i % 2 == 0 else -sgn)
    data = TodaData(
        f=f, a=[list(a), list(a)], n=2, N=N, algebra=S, cap=cap
    )
    toda = toda_solution(None, data=data)
    notes = list(toda.notes)
    closed_forms = None
    if N == 1:
        closed_forms = tuple(
            _sine_gordon_single_mode_closed_form(S, p[0], q[0], a[0], cap, i)
            for i in range(2)
        )
        for i in range(2):
            if not toda.gs[i].algebra.agree(closed_forms[i], toda.gs[i]):
                raise ClosedFormMismatch(
                    f"single-mode closed form disagrees with pipeline at site {i}"
                )
        notes.append("single-mode closed form matches the pipeline at both sites")
    elif N == 2:
        matched = {"site-consistent": [], "literal-fixed-site": []}
        for i in range(2):
            for name, cf in _sine_gordon_two_mode_closed_forms(data, a, i).items():
                if cf is not None and cf.algebra.agree(cf, toda.gs[i]):
                    matched[name].append(i)
        if matched["site-consistent"] != [0, 1]:
            raise ClosedFormMismatch(
                "two-mode closed form (site-consistent reading) disagrees "
                f"with pipeline; matched only at sites {matched['site-consistent']}"
            )
        notes.append(
            ConventionNote(
                topic="two-mode-closed-form-second-factor",
                candidates=list(matched),
                matched=[k for k, sites in matched.items() if sites == [0, 1]],
                detail=f"sites matched per reading: {matched}",
            )
        )
    return SineGordonSolution(
        gs=tuple(toda.gs), closed_forms=closed_forms, notes=notes, toda=toda
    )


def _sine_gordon_single_mode_closed_form(S, p, q, a, cap, i):
    a_inv = S.invert(a)
    h = series_exp_linear(
        S.scalar_mul(-2, a_inv), S.scalar_mul(-2, a), cap, algebra=S
    )
    qh = h.scale_left(q)
    signed = qh if i % 2 == 0 else -qh
    salg = qh.algebra
    num = salg.constant(p) - signed
    den = salg.constant(p) + signed
    return num.scale_right(a) * den.inverse()


def _sine_gordon_two_mode_closed_forms(data: TodaData, a, i):
    """Both readings of the classical two-factor display at site i."""
    S = data.algebra
    f = data.f
    j1, j2 = 0, 1
    prev = (i - 1) % 2
    a1, a2 = a[j1], a[j2]
    a1_inv, a2_inv = S.invert(a1), S.invert(a2)
    f_prev1_inv = f[prev][j1].inverse()
    first = (
        f[i][j2].scale_right(a2 * a2)
        - f[i][j1].scale_right(a1) * f_prev1_inv * f[prev][j2].scale_right(a2)
    )
    def second(mid):
        return (
            f[i][j2]
            - f[i][j1].scale_right(a1_inv) * f_prev1_inv * mid.scale_right(a2)
        )
    out = {}
    out["site-consistent"] = first * second(f[prev][j2]).inverse()
    try:
        out["literal-fixed-site"] = first * second(f[0][j2]).inverse()
    except SingularMatrix:
        out["literal-fixed-site"] = None
    return out


def random_sine_gordon_params(rng, N: int, r: int = 1, cap: int = None,
                              scalar: str = "rational") -> SineGordonParams:
    S = scalar_algebra(scalar, r)
    cap = cap if cap is not None else N + 6
    return SineGordonParams(
        N=N,
        r=r,
        cap=cap,
        p=[random_invertible(S, rng) for _ in range(N)],
        q=[random_element(S, rng) for _ in range(N)],
        a=[random_invertible(S, rng) for _ in range(N)],
        scalar=scalar,
    )


# ---------------------------------------------------------------------------
# Langmuir lattice
# ---------------------------------------------------------------------------


@dataclass
class LangmuirParams:
    N: int
    r: int
    cap: int
    p: list
    q: list
    mu: list  # invertible, with mu + mu^-1 invertible
    k_range: list  # contiguous sites where solutions are requested
    scalar: str = "rational"

    def validate(self):
        if self.N < 1:
            raise ValueError("mode count N must be at least 1")
        if self.cap < self.N + 2:
            raise ValueError(f"cap must be at least N + 2 = {self.N + 2}")
        if not (len(self.p) == len(self.q) == len(self.mu) == self.N):
            raise ValueError("p, q, mu must all have N entries")
        ks = list(self.k_range)
        if not ks or ks != list(range(ks[0], ks[-1] + 1)):
            raise ValueError("k_range must be a non-empty contiguous range")


@dataclass
class LangmuirData:
    f: dict  # site -> [series per mode]
    a: list  # per mode: mu + mu^-1 (site-independent)
    mu: list
    p: list
    q: list
    N: int
    algebra: Algebra
    cap: int
    sites: list
    d: Derivation = field(default_factory=lambda: D_T)


def langmuir_build_f(params: LangmuirParams) -> LangmuirData:
    """Site grid f[i][j] = p_j mu_j^i exp(mu_j^2 t) + q_j mu_j^-i exp(mu_j^-2 t).

    Satisfies df[i][j] = f[i+2][j] and df[i][j] + f[i][j] = f[i+1][j] * a_j
    with a_j = mu_j + mu_j^-1, exactly through the valid order.
    """
    params.validate()
    S = scalar_algebra(params.scalar, params.r)
    N, cap = params.N, params.cap
    mu = [S.coerce(x) for x in params.mu]
    p = [S.coerce(x) for x in params.p]
    q = [S.coerce(x) for x in params.q]
    a = []
    for m in mu:
        m_inv = S.invert(m)
        a_j = m + m_inv
        S.invert(a_j)  # raises SingularMatrix when mu + mu^-1 degenerates
        a.append(a_j)
    lo, hi = min(params.k_range) - 1, max(params.k_range) + 2
    sites = list(range(lo, hi + 1))
    exp_plus = [
        series_exp_linear(m * m, None, cap, algebra=S) for m in mu
    ]
    exp_minus = [
        series_exp_linear(_power(S, m, -2), None, cap, algebra=S) for m in mu
    ]
    f = {}
    for i in sites:
        f[i] = [
            exp_plus[j].scale_left(p[j] * _power(S, mu[j], i))
            + exp_minus[j].scale_left(q[j] * _power(S, mu[j], -i))
            for j in range(N)
        ]
    return LangmuirData(
        f=f, a=a, mu=mu, p=p, q=q, N=N, algebra=S, cap=cap, sites=sites
    )


@dataclass
class LangmuirSolution:
    gs: dict  # site -> series, the lattice solution
    etas: dict  # site -> bottom-left quotient entry
    cells: dict  # site -> FrobeniusCell
    closed_forms: Optional[dict]
    notes: list
    data: LangmuirData


def langmuir_solution(params: LangmuirParams, data: LangmuirData = None
                      ) -> LangmuirSolution:
    """Lattice solution g_k from quotients of consecutive Frobenius cells.

    g_k is the bottom-right entry of cell_k * cell_{k-1}^-1, which equals the
    product eta_k * eta_{k-1}^-1 of bottom-left entries.  The classical pair
    of displays (a product over sites k, k-1 and an additive form over sites
    k+1, k) is evaluated; the reading that satisfies the lattice equation is
    selected and recorded.
    """
    ks = list(params.k_range)
    if len(ks) < 3:
        raise ValueError("the site window needs at least 3 sites")
    if data is None:
        data = langmuir_build_f(params)
    N = data.N
    gamma_sites = list(range(ks[0] - 1, ks[-1] + 2))
    cells, etas = {}, {}
    for k in gamma_sites:
        try:
            wp = wronski(data.f[k], data.d)
            cells[k] = frobenius_gamma(wp)
        except SingularMatrix as exc:
            raise SingularWronskian(
                f"Wronski matrix at site {k} is singular", site=k
            ) from exc
        etas[k] = cells[k].entry(N - 1, 0)
    gs, additive = {}, {}
    one = etas[ks[0]].algebra.one()
    for k in ks:
        quotient = frobenius_quotient(cells[k], cells[k - 1])
        gs[k] = quotient.entry(N - 1, N - 1)
        product_form = etas[k] * etas[k - 1].inverse()
        if not product_form.algebra.agree(gs[k], product_form):
            raise VerificationError(
                f"quotient entry differs from the eta product at site {k}"
            )
        additive[k] = one + etas[k + 1] - etas[k]
    matched = []
    if _lattice_residuals_vanish(gs, data.d):
        matched.append("product-form-sites-k-k-1")
    if _lattice_residuals_vanish(additive, data.d):
        matched.append("additive-form-sites-k+1-k")
    note = ConventionNote(
        topic="lattice-solution-site-indices",
        candidates=["product-form-sites-k-k-1", "additive-form-sites-k+1-k"],
        matched=matched,
        detail="product and additive forms coincide only for N=1",
    )
    if "product-form-sites-k-k-1" not in matched:
        raise VerificationError("quotient solution fails the lattice equation")
    notes = [note]
    closed_forms = None
    if N == 1:
        closed_forms = {
            k: _langmuir_single_mode_closed_form(data, k) for k in ks
        }
        for k in ks:
            if not gs[k].algebra.agree(closed_forms[k], gs[k]):
                raise ClosedFormMismatch(
                    f"single-mode closed form disagrees with pipeline at site {k}"
                )
        notes.append("single-mode closed form matches the pipeline at all sites")
    return LangmuirSolution(
        gs=gs, etas=etas, cells=cells, closed_forms=closed_forms,
        notes=notes, data=data,
    )


def _lattice_residuals_vanish(gs: dict, d: Derivation) -> bool:
    interior = [k for k in gs if k - 1 in gs and k + 1 in gs]
    if not interior:
        raise WindowTooSmall("need at least one site with both neighbours")
    scale = max(g.max_coeff_magnitude() for g in gs.values())
    salg = gs[interior[0]].algebra
    return all(
        salg.near_zero(_langmuir_residual(gs, k, d), scale) for k in interior
    )


def _langmuir_single_mode_closed_form(data: LangmuirData, k: int):
    """g_k written through one relative exponential E = exp((mu^2 - mu^-2) t):

    (q + p mu^(2k+4) E) mu^-2 (q + p mu^(2k) E)^-1
        (q + p mu^(2k-2) E) mu^2 (q + p mu^(2k+2) E)^-1
    """
    S = data.algebra
    mu, p, q = data.mu[0], data.p[0], data.q[0]
    mu2 = mu * mu
    mu_m2 = _power(S, mu, -2)
    gap = series_exp_linear(mu2 - mu_m2, None, data.cap, algebra=S)
    salg = gap.algebra

    def h(m):
        return salg.constant(q) + gap.scale_left(p * _power(S, mu, m))

    return (
        h(2 * k + 4).scale_right(mu_m2)
        * h(2 * k).inverse()
        * h(2 * k - 2).scale_right(mu2)
        * h(2 * k + 2).inverse()
    )


# ---------------------------------------------------------------------------
# nonlinear Schroedinger (and its rational heat-equation variant)
# ---------------------------------------------------------------------------


@dataclass
class NlsParams:
    """Data for the cubic-equation construction.

    ``b`` must square to one; in the standard setup it is a +/-1 diagonal
    whose two blocks carry the off-diagonal solution.  ``mode`` selects the
    exponent layout: "nls" uses u-coefficients i*a^2 over Gaussian rationals,
    "heat" drops the imaginary unit (u-coefficients a^2, derivation -d/du)
    and works over any exact field.
    """

    N: int
    r: int
    cap: int
    b: object
    c: list
    d: list
    a: list
    mode: str = "nls"
    scalar: str = "gaussian-rational"

    def validate(self):
        if self.N < 1:
            raise ValueError("mode count N must be at least 1")
        _require_grading_size(self.r)
        if self.cap < self.N + 3:
            raise ValueError(f"cap must be at least N + 3 = {self.N + 3}")
        if not (len(self.c) == len(self.d) == len(self.a) == self.N):
            raise ValueError("c, d, a must all have N entries")
        if self.mode not in ("nls", "heat"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "nls" and self.scalar != "gaussian-rational":
            raise ValueError("mode 'nls' needs gaussian-rational scalars for i")


def _require_grading_size(r: int):
    if r < 2:
        raise ValueError(
            "block size r must be at least 2: with b = +/-1 the solution "
            "U = g b - b g is identically zero"
        )


@dataclass
class NlsData:
    fs: list  # one bivariate series per mode
    b: object
    q1: object
    q2: object
    a: list
    algebra: Algebra
    cap: int
    d0: Derivation
    d: Derivation
    mode: str


def nls_build_f(params: NlsParams) -> NlsData:
    """Modes f_j = q1 c_j exp(x_j) + q2 d_j exp(-x_j) with x_j = a_j v + i a_j^2 u.

    The grading projectors q1 = (1+b)/2, q2 = (1-b)/2 make the two linear
    relations d0 f + b d^2 f = 0 and b df = f a_j hold exactly (d = d/dv,
    d0 = i d/du, or their heat-mode counterparts).
    """
    params.validate()
    S = scalar_algebra(params.scalar, params.r)
    b = S.coerce(params.b)
    if b * b != S.one():
        raise BNotInvolutive("b*b must equal 1 exactly")
    if b == S.one() or b == -S.one():
        raise ValueError("b = +/-1 makes U = g b - b g identically zero")
    half = Fraction(1, 2)
    q1 = S.scalar_mul(half, S.one() + b)
    q2 = S.scalar_mul(half, S.one() - b)
    if params.mode == "nls":
        d0 = Derivation("u", scale=GaussianRational(0, 1))
    else:
        d0 = Derivation("u", scale=-1)
    fs = []
    a = [S.coerce(x) for x in params.a]
    for j in range(params.N):
        a_j = a[j]
        S.invert(a_j)
        a_sq = a_j * a_j
        cu = S.scalar_mul(GaussianRational(0, 1), a_sq) if params.mode == "nls" else a_sq
        plus = series_exp_linear(cu, a_j, params.cap, algebra=S)
        minus = series_exp_linear(-cu, -a_j, params.cap, algebra=S)
        fs.append(
            plus.scale_left(q1 * S.coerce(params.c[j]))
            + minus.scale_left(q2 * S.coerce(params.d[j]))
        )
    return NlsData(
        fs=fs, b=b, q1=q1, q2=q2, a=a, algebra=S, cap=params.cap,
        d0=d0, d=D_V, mode=params.mode,
    )


@dataclass
class NlsSolution:
    g: Optional[TruncatedSeries]
    U: TruncatedSeries
    U12: Optional[TruncatedSeries]
    U21: Optional[TruncatedSeries]
    g_bottom_left: Optional[TruncatedSeries]
    g_bottom_right: Optional[TruncatedSeries]
    cell: Optional[FrobeniusCell]
    wronskian: Optional[WronskiPair]
    data: NlsData
    notes: list
    vacuum: bool = False


def nls_solution(params: NlsParams, data: NlsData = None) -> NlsSolution:
    """Commutator solution U = g b - b g of the cubic equation.

    Both bottom-row corner entries of the Frobenius quotient are formed into
    commutators and substituted into the equation; the entry that satisfies it
    is selected (they coincide for one mode) and the choice is recorded.  When
    one exponential family is switched off entirely the Wronskian degenerates
    and the vacuum solution U = 0 is returned.
    """
    if data is None:
        data = nls_build_f(params)
    S = data.algebra
    N = len(data.fs)
    salg = data.fs[0].algebra
    notes = []
    if params is not None and (
        all(S.near_zero(S.coerce(c)) for c in params.c)
        or all(S.near_zero(S.coerce(c)) for c in params.d)
    ):
        zero = salg.zero()
        notes.append("vacuum: one exponential family is zero, U = 0")
        return NlsSolution(
            g=None, U=zero,
            U12=zero.scale_left(data.q1).scale_right(data.q2),
            U21=zero.scale_left(data.q2).scale_right(data.q1),
            g_bottom_left=None, g_bottom_right=None, cell=None,
            wronskian=None, data=data, notes=notes, vacuum=True,
        )
    try:
        wp = wronski(data.fs, data.d)
        cell = frobenius_gamma(wp)
    except SingularMatrix as exc:
        raise SingularWronskian(f"Wronski matrix is singular: {exc}") from exc
    g_bl = cell.entry(N - 1, 0)
    g_br = cell.entry(N - 1, N - 1)
    candidates = {"bottom-left": g_bl, "bottom-right": g_br}
    # one commutator and one cubic per distinct entry: for N = 1 both
    # corners are the same object
    commutators = {id(g): _commutator_with(g, data.b) for g in candidates.values()}
    cand_scale = max(c.max_coeff_magnitude() for c in commutators.values())
    solves = {
        key: salg.near_zero(_cubic_residual(c, data.b, data.d0, data.d), cand_scale)
        for key, c in commutators.items()
    }
    matched = [name for name, g in candidates.items() if solves[id(g)]]
    note = ConventionNote(
        topic="cubic-solution-entry",
        candidates=list(candidates),
        matched=matched,
        detail="corner entries coincide for N=1; for N>=2 only the "
        "bottom-right commutator satisfies the cubic equation",
    )
    notes.append(note)
    if not matched:
        raise VerificationError(
            "neither corner entry yields a cubic-equation solution"
        )
    g = candidates["bottom-left" if "bottom-left" in matched else "bottom-right"]
    U = commutators[id(g)]
    if N == 1:
        cf_matched = []
        f = data.fs[0]
        f_inv = f.inverse()
        corrected = f.scale_left(data.b).scale_right(data.a[0]) * f_inv
        literal = f.scale_right(data.a[0]) * f_inv
        if salg.agree(corrected, g):
            cf_matched.append("sign-corrected")
        if salg.agree(literal, g):
            cf_matched.append("literal-plus-sign")
        if "sign-corrected" not in cf_matched:
            raise ClosedFormMismatch(
                "single-mode closed form (sign-corrected) disagrees with pipeline"
            )
        notes.append(
            ConventionNote(
                topic="single-mode-closed-form-sign",
                candidates=["sign-corrected", "literal-plus-sign"],
                matched=cf_matched,
                detail="first factor of the closed form needs b f = q1 c e - q2 d e",
            )
        )
    U12 = U21 = None
    if _pm_one_split(S, data.b) is not None:
        U12 = U.scale_left(data.q1).scale_right(data.q2)
        U21 = U.scale_left(data.q2).scale_right(data.q1)
        diag_part = (
            U.scale_left(data.q1).scale_right(data.q1)
            + U.scale_left(data.q2).scale_right(data.q2)
        )
        if not salg.near_zero(diag_part, U.max_coeff_magnitude()):
            raise VerificationError("diagonal blocks of U do not vanish")
        notes.append("diagonal blocks of U vanish; off-diagonal blocks extracted")
    return NlsSolution(
        g=g, U=U, U12=U12, U21=U21, g_bottom_left=g_bl, g_bottom_right=g_br,
        cell=cell, wronskian=wp, data=data, notes=notes,
    )


def random_nls_params(rng, N: int, r: int = 2, cap: int = None,
                      mode: str = "nls", scalar: str = "gaussian-rational",
                      ) -> NlsParams:
    _require_grading_size(r)
    S = scalar_algebra(scalar, r)
    cap = cap if cap is not None else N + 6
    b = S.diagonal([1] * ((r + 1) // 2) + [-1] * (r - (r + 1) // 2))
    return NlsParams(
        N=N,
        r=r,
        cap=cap,
        b=b,
        c=[random_element(S, rng) for _ in range(N)],
        d=[random_element(S, rng) for _ in range(N)],
        a=[random_invertible(S, rng) for _ in range(N)],
        mode=mode,
        scalar=scalar,
    )


@dataclass
class NlsScalarComparison:
    """Numeric contact record between the series solution and the classical
    hyperbolic closed form."""

    valid_order: int
    origin_exact_match: bool
    orientation: ConventionNote
    deviations: dict  # radius (Fraction) -> max |series - closed form|
    slope: float
    series: TruncatedSeries = None  # the matched orientation, exact

    def to_dict(self):
        return {
            "valid_order": self.valid_order,
            "origin_exact_match": self.origin_exact_match,
            "orientation": self.orientation.to_dict(),
            "deviations": {str(k): v for k, v in self.deviations.items()},
            "slope": self.slope,
        }


_SAMPLE_DIRECTIONS = (
    (Fraction(1), Fraction(1, 2)),
    (Fraction(-1, 3), Fraction(1)),
    (Fraction(1, 2), Fraction(-1, 2)),
    (Fraction(-1), Fraction(-1, 3)),
    (Fraction(2, 3), Fraction(1, 5)),
)


def nls_scalar_closed_form(a, alpha, beta, cap: int = 8,
                           radii=(Fraction(1, 8), Fraction(1, 16)),
                           ) -> NlsScalarComparison:
    """Compare the series solution of the scalar reduction with
    (a + conj(a)) * exp(-i Im y) / sinh(Re y), where exp(y) = alpha exp(2x) / beta.

    The hermitian 2x2 matrix of exponentials is pushed through the quotient
    pipeline over exact Gaussian rationals; -2 times each off-diagonal entry
    is a candidate orientation for the closed form (complex conjugation flips
    between them).  The matching orientation is fixed exactly at the origin,
    then the deviation at scaled sample points measures the contact order,
    which must track the series' valid order.
    """
    qqi = QQI
    a = qqi.coerce(a)
    alpha = qqi.coerce(alpha)
    beta = qqi.coerce(beta)
    if not beta:
        raise EvaluationSingularity("beta must be nonzero")
    norm_gap = alpha * alpha.conjugate() - beta * beta.conjugate()
    if not norm_gap:
        raise EvaluationSingularity("|alpha| = |beta| puts the origin on a pole")
    i = GaussianRational(0, 1)
    ac, alc = a.conjugate(), alpha.conjugate()
    bc = beta.conjugate()
    exp = lambda cu, cv: series_exp_linear(cu, cv, cap, algebra=qqi)
    f_rows = (
        (exp(i * a * a, a).scale_left(alpha), exp(i * ac * ac, -ac).scale_left(bc)),
        (exp(-i * a * a, -a).scale_left(beta), exp(-i * ac * ac, ac).scale_left(alc)),
    )
    salg = f_rows[0][0].algebra
    f = SquareMatrix(MatrixAlgebra(salg, 2), f_rows)
    gamma = f.derive(D_V) * f.inverse()
    w12 = gamma.entry(0, 1).scale_left(-2)
    w21 = gamma.entry(1, 0).scale_left(-2)
    # exact origin value of the closed form
    origin_closed = (a + ac) * 2 * alc * beta * norm_gap.reciprocal()
    matched = []
    if w12.coeff((0, 0)) == origin_closed:
        matched.append("via-gamma-12")
    if w21.coeff((0, 0)) == origin_closed:
        matched.append("via-gamma-21")
    orientation = ConventionNote(
        topic="scalar-closed-form-orientation",
        candidates=["via-gamma-12", "via-gamma-21"],
        matched=matched,
        detail="the two orientations are complex conjugates of each other",
    )
    if not matched:
        raise EvaluationSingularity(
            "closed form matches neither orientation at the origin"
        )
    w = w12 if "via-gamma-12" in matched else w21
    af, alf, bf = complex(a), complex(alpha), complex(beta)
    re2a = af + complex(ac)

    def closed(u, v):
        x = af * v + 1j * af * af * u
        z = alf * cmath.exp(2 * x) / bf
        y = cmath.log(z)
        sh = cmath.sinh(y.real)
        if sh == 0:
            raise EvaluationSingularity(f"sinh vanishes at sample ({u}, {v})")
        return re2a * cmath.exp(-1j * y.imag) / sh

    deviations = {}
    for rho in radii:
        worst = 0.0
        for du, dv in _SAMPLE_DIRECTIONS:
            u, v = rho * du, rho * dv
            series_val = complex(w.evaluate((u, v)))
            worst = max(worst, abs(series_val - closed(float(u), float(v))))
        deviations[rho] = worst
    radii = list(deviations)
    slope = 0.0
    if len(radii) >= 2 and deviations[radii[1]] > 0:
        import math

        ratio = float(radii[0]) / float(radii[1])
        slope = math.log(deviations[radii[0]] / deviations[radii[1]], ratio)
    return NlsScalarComparison(
        valid_order=w.valid_order,
        origin_exact_match=bool(matched),
        orientation=orientation,
        deviations=deviations,
        slope=slope,
        series=w,
    )


def random_langmuir_params(rng, N: int, r: int = 1, cap: int = None,
                           window: int = 5, scalar: str = "rational",
                           ) -> LangmuirParams:
    S = scalar_algebra(scalar, r)
    cap = cap if cap is not None else N + 8
    mu = []
    while len(mu) < N:
        m = random_invertible(S, rng)
        try:
            S.invert(m + S.invert(m))
        except SingularMatrix:
            continue
        mu.append(m)
    return LangmuirParams(
        N=N,
        r=r,
        cap=cap,
        p=[random_invertible(S, rng) for _ in range(N)],
        q=[random_invertible(S, rng) for _ in range(N)],
        mu=mu,
        k_range=list(range(window)),
        scalar=scalar,
    )

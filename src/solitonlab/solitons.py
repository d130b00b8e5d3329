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

from .algebra import (
    GFP,
    QQ,
    QQI,
    Algebra,
    MatrixAlgebra,
    SquareMatrix,
    random_element,
    random_invertible,
)
from .errors import (
    ClosedFormMismatch,
    EvaluationSingularity,
    Record,
    SingularMatrix,
    SingularWronskian,
    VerificationError,
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
    ResidualReport,
    _commutator_with,
    _cubic_residual,
    _graded_blocks,
    _grading,
    _interior,
    _langmuir_residual,
    _pm_one_split,
)
from .scalars import GaussianRational
from .series import (
    D_T,
    D_U,
    D_V,
    Derivation,
    TruncatedSeries,
    series_exp_linear,
    series_exp_row,
    through,
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
    "gf-p": GFP,
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


class _Family(Record):
    """What the params of every family share.

    ``arrays`` gives each array of exponential data, in draw order, its
    shape in size names (fields of the params, such as "n" and "N") and the
    draw of one entry from (algebra, rng).  ``floor`` is the least cap past
    N that a construction needs, and ``spare`` the cap past N of a draw that
    names none.
    """

    arrays = {}
    floor = 3
    spare = 6

    def validate(self):
        if self.N < 1:
            raise ValueError("mode count N must be at least 1")
        if self.r < 1:
            raise ValueError("block size r must be at least 1")
        least = self.N + self.floor
        if self.cap < least:
            raise ValueError(f"cap must be at least N + {self.floor} = {least}")
        for name, (shape, _) in self.arrays.items():
            dims = [getattr(self, size) for size in shape]
            if not _shaped(getattr(self, name), dims):
                raise ValueError(
                    f"{name} must be an array of shape {' x '.join(shape)}"
                    f" = {' x '.join(map(str, dims))}"
                )

    @classmethod
    def draw(cls, rng, scalar, N, r, cap=None, **fields):
        """Random params: the arrays in table order, each entry by entry in
        row order; with cap None the cap is N + ``spare``."""
        S = scalar_algebra(scalar, r)
        sizes = dict(fields, N=N)
        for name, (shape, entry) in cls.arrays.items():
            fields[name] = _draw_array(S, rng, [sizes[size] for size in shape], entry)
        cap = N + cls.spare if cap is None else cap
        return cls(N=N, r=r, cap=cap, scalar=scalar, **fields)


def _shaped(node, dims) -> bool:
    """Whether node is nested lists of these lengths; leaves are not looked at."""
    return not dims or (
        isinstance(node, (list, tuple)) and len(node) == dims[0]
        and all(_shaped(x, dims[1:]) for x in node)
    )


def _draw_array(S, rng, dims, entry):
    if not dims:
        return entry(S, rng)
    return [_draw_array(S, rng, dims[1:], entry) for _ in range(dims[0])]


def _gamma(fs, d, site):
    """The Wronski pair of the modes fs under d and its Frobenius quotient
    (dW) W^-1; SingularWronskian names the site when W is singular."""
    try:
        wp = wronski(fs, d)
        return wp, frobenius_gamma(wp)
    except SingularMatrix as exc:
        raise SingularWronskian(
            f"Wronski matrix at site {site} is singular", site=site
        ) from exc


def _closed_forms(gs, sites, form, notes, span):
    """The single-mode closed form form(k, g_k) at each site, each of which
    must equal the pipeline's g_k; a note records the match."""
    forms = {k: form(k, gs[k]) for k in sites}
    for k in sites:
        if forms[k] != gs[k]:
            raise ClosedFormMismatch(
                f"single-mode closed form disagrees with pipeline at site {k}"
            )
    notes.append(f"single-mode closed form matches the pipeline at {span} sites")
    return forms


# ---------------------------------------------------------------------------
# periodic Toda
# ---------------------------------------------------------------------------


class TodaParams(_Family):
    """Parameters of the n-periodic construction with N exponential modes."""

    n: int
    N: int
    r: int
    cap: int
    a: list  # a[i][j], i = 0..n-1 sites, j = 0..N-1 modes; all invertible
    p: list  # p[j][i]: one length-n row vector per mode
    scalar: str = "rational"

    arrays = {"a": (("n", "N"), random_invertible), "p": (("N", "n"), random_element)}

    def validate(self):
        if self.n < 1:
            raise ValueError("period n must be at least 1")
        super().validate()


class TodaData(Record):
    """Output of the linear stage: the f grid and its constant coefficients."""

    f: list  # f[i][j]: bivariate series, site i, mode j
    a: list  # a[i][j]: invertible algebra elements
    n: int
    N: int
    algebra: Algebra
    cap: int
    d1: Derivation = D_U
    d2: Derivation = D_V


def toda_build_f(params: TodaParams) -> TodaData:
    """Exponential grid satisfying the one-step shift relations exactly.

    With the cyclic shift s and the diagonal of a-coefficients, the v-exponent
    of mode j is the product (diagonal) * s, so that componentwise

        d/du f[i][j] = f[i-1][j] * a[i][j]^-1
        d/dv f[i][j] = f[i+1][j] * a[i+1][j]         (site indices mod n).

    Column j is p_j * exp(r_j^-1 u + r_j v), r_j = (diagonal) * s, formed by
    ``series_exp_row`` with no n x n matrix series in between.  s sends e_i
    to e_{i+1 mod n}, so r_j holds a[m][j] at (m, m - 1) and its inverse
    s^T (diagonal)^-1 holds a[m + 1][j]^-1 at (m, m + 1).
    """
    params.validate()
    S = scalar_algebra(params.scalar, params.r)
    n, N, cap = params.n, params.N, params.cap
    mat_n, z = MatrixAlgebra(S, n), S.zero()
    a = [[S.coerce(x) for x in row] for row in params.a]
    # raises SingularMatrix if any a is not invertible
    a_inv = [[S.invert(x) for x in row] for row in a]
    p = [[S.coerce(x) for x in row] for row in params.p]
    f = [[None] * N for _ in range(n)]
    for j in range(N):
        r_j = SquareMatrix(mat_n, [[a[m][j] if i == (m - 1) % n else z for i in range(n)]
                                   for m in range(n)])
        r_inv = SquareMatrix(mat_n, [[a_inv[i][j] if i == (m + 1) % n else z
                                      for i in range(n)] for m in range(n)])
        for i, f_ij in enumerate(series_exp_row(p[j], r_inv, r_j, cap, mat_n)):
            f[i][j] = f_ij
    return TodaData(f=f, a=a, n=n, N=N, algebra=S, cap=cap)


class TodaSolution(Record):
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
        wp, cell = _gamma(data.f[k], data.d2, k)
        pairs.append(wp)
        cells.append(cell)
        gs.append(cell.entry(data.N - 1, 0))
    mismatches = []
    for k, wp in enumerate(pairs):
        try:
            residual = solution_entry_via_quasidet(wp, gs[k])
        except SingularMatrix:
            notes.append(f"quasideterminant expression undefined at site {k}")
            continue
        if not residual.is_zero():
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
    return TodaParams.draw(rng, scalar, N, r, cap, n=n)


# ---------------------------------------------------------------------------
# sine-Gordon (2-periodic)
# ---------------------------------------------------------------------------


class SineGordonParams(_Family):
    N: int
    r: int
    cap: int
    p: list  # per mode
    q: list
    a: list  # invertible
    scalar: str = "rational"

    arrays = {
        "p": (("N",), random_invertible),
        "q": (("N",), random_element),
        "a": (("N",), random_invertible),
    }


class SineGordonSolution(Record):
    gs: tuple  # the two alternating-site solutions
    closed_forms: tuple | None
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
        closed_forms = tuple(_closed_forms(
            toda.gs, range(2),
            lambda i, g: _sine_gordon_single_mode_closed_form(S, p[0], q[0], a[0], g, i),
            notes, "both",
        ).values())
    elif N == 2:
        matched = {"site-consistent": [], "literal-fixed-site": []}
        for i in range(2):
            forms = _sine_gordon_two_mode_closed_forms(data, a, i, toda.gs[i])
            for name, cf in forms.items():
                if cf is not None and cf == toda.gs[i]:
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


def _sine_gordon_single_mode_closed_form(S, p, q, a, g, i):
    """The closed form at site i, through the order of g, compared with it."""
    a_inv = S.invert(a)
    h = through(series_exp_linear(
        S.scalar_mul(-2, a_inv), S.scalar_mul(-2, a), g.algebra.cap, algebra=S
    ), g.valid_order)
    qh = h.scale_left(q)
    signed = qh if i % 2 == 0 else -qh
    salg = qh.algebra
    num = salg.constant(p) - signed
    den = salg.constant(p) + signed
    return num.scale_right(a) / den


def _sine_gordon_two_mode_closed_forms(data: TodaData, a, i, g):
    """Both readings of the two-factor display at site i, through g's order."""
    S = data.algebra
    f = [[through(x, g.valid_order) for x in row] for row in data.f]
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
    out["site-consistent"] = first / second(f[prev][j2])
    try:
        out["literal-fixed-site"] = first / second(f[0][j2])
    except SingularMatrix:
        out["literal-fixed-site"] = None
    return out


def random_sine_gordon_params(rng, N: int, r: int = 1, cap: int = None,
                              scalar: str = "rational") -> SineGordonParams:
    return SineGordonParams.draw(rng, scalar, N, r, cap)


# ---------------------------------------------------------------------------
# Langmuir lattice
# ---------------------------------------------------------------------------


def _draw_mu(S, rng):
    """An invertible mu with mu + mu^-1 invertible, by rejection."""
    while True:
        m = random_invertible(S, rng)
        try:
            S.invert(m + S.invert(m))
        except SingularMatrix:
            continue
        return m


class LangmuirParams(_Family):
    """Data for the lattice construction with N exponential modes.

    Solutions are requested at the ``window`` sites 0 .. window - 1, which
    read the data at sites -1 .. window + 1; ``validate`` rejects a window
    below 1, and a solution needs at least 3 sites.
    """

    N: int
    r: int
    cap: int
    p: list
    q: list
    mu: list  # invertible, with mu + mu^-1 invertible
    window: int
    scalar: str = "rational"

    arrays = {
        "mu": (("N",), _draw_mu),
        "p": (("N",), random_invertible),
        "q": (("N",), random_invertible),
    }
    floor = 2
    spare = 8

    def validate(self):
        super().validate()
        if self.window < 1:
            raise ValueError("window must be at least 1")


class LangmuirData(Record):
    f: dict  # site -> [series per mode]
    a: list  # per mode: mu + mu^-1 (site-independent)
    mu: list
    p: list
    q: list
    N: int
    algebra: Algebra
    cap: int
    sites: list
    d: Derivation = D_T


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
    sites = list(range(-1, params.window + 2))
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


class LangmuirSolution(Record):
    gs: dict  # site -> series, the lattice solution
    etas: dict  # site -> bottom-left quotient entry
    cells: dict  # site -> FrobeniusCell
    wronskians: dict  # site -> WronskiPair
    closed_forms: dict | None
    notes: list
    data: LangmuirData
    # (gs, d, sites, residuals): the lattice residual of each interior site
    # of gs, formed with d when the product form was selected, and the
    # (site, series) pairs of gs then; ``check_langmuir`` reuses them only
    # while gs is still this dict, holding those series, and d is its own
    residuals: tuple | None = None


def langmuir_solution(params: LangmuirParams, data: LangmuirData = None
                      ) -> LangmuirSolution:
    """Lattice solution g_k from quotients of consecutive Frobenius cells.

    g_k is the bottom-right entry of cell_k * cell_{k-1}^-1, which equals the
    product eta_k * eta_{k-1}^-1 of bottom-left entries.  The classical pair
    of displays (a product over sites k, k-1 and an additive form over sites
    k+1, k) is evaluated; the reading that satisfies the lattice equation is
    selected and recorded.  The lattice residuals of the product form are
    formed here, once, and kept on the solution (``residuals``), so that
    ``check_langmuir`` given the solution reports them without forming them
    again.
    """
    if params.window < 3:
        raise ValueError("the site window needs at least 3 sites")
    if data is None:
        data = langmuir_build_f(params)
    N = data.N
    ks = range(params.window)
    gamma_sites = range(-1, params.window + 1)
    cells, etas, pairs = {}, {}, {}
    for k in gamma_sites:
        pairs[k], cells[k] = _gamma(data.f[k], data.d, k)
        etas[k] = cells[k].entry(N - 1, 0)
    gs, additive = {}, {}
    one = etas[ks[0]].algebra.one()
    for k in ks:
        quotient = frobenius_quotient(cells[k], cells[k - 1])
        gs[k] = quotient.entry(N - 1, N - 1)
        additive[k] = one + etas[k + 1] - etas[k]
    matched = []
    residuals = {k: _langmuir_residual(gs, k, data.d) for k in _interior(gs)}
    if all(res.is_zero() for res in residuals.values()):
        matched.append("product-form-sites-k-k-1")
    if all(_langmuir_residual(additive, k, data.d).is_zero() for k in _interior(additive)):
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
        closed_forms = _closed_forms(
            gs, ks, lambda k, g: _langmuir_single_mode_closed_form(data, k, g),
            notes, "all",
        )
    return LangmuirSolution(
        gs=gs, etas=etas, cells=cells, wronskians=pairs,
        closed_forms=closed_forms, notes=notes, data=data,
        residuals=(gs, data.d, tuple(gs.items()), residuals),
    )


def _langmuir_single_mode_closed_form(data: LangmuirData, k: int, g):
    """g_k written through one relative exponential E = exp((mu^2 - mu^-2) t),
    through the order of the pipeline value g it is compared with:

    (q + p mu^(2k+4) E) mu^-2 (q + p mu^(2k) E)^-1
        (q + p mu^(2k-2) E) mu^2 (q + p mu^(2k+2) E)^-1
    """
    S = data.algebra
    mu, p, q = data.mu[0], data.p[0], data.q[0]
    mu2 = mu * mu
    mu_m2 = _power(S, mu, -2)
    gap = through(series_exp_linear(mu2 - mu_m2, None, data.cap, algebra=S), g.valid_order)
    salg = gap.algebra

    def h(m):
        return salg.constant(q) + gap.scale_left(p * _power(S, mu, m))

    return (
        h(2 * k + 4).scale_right(mu_m2) / h(2 * k)
        * h(2 * k - 2).scale_right(mu2) / h(2 * k + 2)
    )


# ---------------------------------------------------------------------------
# nonlinear Schroedinger (and its rational heat-equation variant)
# ---------------------------------------------------------------------------


def _require_grading_size(r: int):
    if r < 2:
        raise ValueError(
            "block size r must be at least 2: with b = +/-1 the solution "
            "U = g b - b g is identically zero"
        )


def _draw_grading(S, rng):
    """The +/-1 diagonal b of a drawn NLS params, +1 on its first half
    (rounded up); it draws nothing."""
    r = S.dim if isinstance(S, MatrixAlgebra) else 1
    _require_grading_size(r)
    return S.diagonal([1] * ((r + 1) // 2) + [-1] * (r // 2))


class NlsParams(_Family):
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

    arrays = {
        "b": ((), _draw_grading),
        "c": (("N",), random_element),
        "d": (("N",), random_element),
        "a": (("N",), random_invertible),
    }

    def validate(self):
        super().validate()
        _require_grading_size(self.r)
        if self.mode not in ("nls", "heat"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "nls" and self.scalar != "gaussian-rational":
            raise ValueError("mode 'nls' needs gaussian-rational scalars for i")


class NlsData(Record):
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
    b, q1, q2 = _grading(S, params.b)
    if b == S.one() or b == -S.one():
        raise ValueError("b = +/-1 makes U = g b - b g identically zero")
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


class NlsSolution(Record):
    g: TruncatedSeries | None
    U: TruncatedSeries
    U12: TruncatedSeries | None
    U21: TruncatedSeries | None
    g_bottom_left: TruncatedSeries | None
    g_bottom_right: TruncatedSeries | None
    cell: FrobeniusCell | None
    wronskian: WronskiPair | None
    data: NlsData
    notes: list
    vacuum: bool = False
    # (U, b, d0, d, residual): the cubic residual of U as the selection
    # formed it, with what it was formed from; ``check_nls`` reuses it, and
    # the graded blocks, only while that U is still this solution's U and
    # b, d0, d are its own
    cubic: tuple | None = None
    # the diagonal blocks q1 U q1 and q2 U q2, formed beside U12 and U21
    U11: TruncatedSeries | None = None
    U22: TruncatedSeries | None = None


def nls_solution(params: NlsParams) -> NlsSolution:
    """Commutator solution U = g b - b g of the cubic equation.

    Both bottom-row corner entries of the Frobenius quotient are formed into
    commutators and substituted into the equation; the entry that satisfies it
    is selected (they coincide for one mode) and the choice is recorded.  The
    cubic residual of the selected U is formed here, once, and kept with that
    U on the solution (``cubic``), so that ``check_nls`` given the solution
    reports it without forming it again.  When
    one exponential family is switched off entirely the Wronskian degenerates
    and the vacuum solution U = 0 is returned.
    """
    data = nls_build_f(params)
    S = data.algebra
    N = len(data.fs)
    salg = data.fs[0].algebra
    notes = []
    if any(all(S.is_zero(S.coerce(x)) for x in xs) for xs in (params.c, params.d)):
        zero = salg.zero()
        notes.append("vacuum: one exponential family is zero, U = 0")
        return NlsSolution(
            g=None, U=zero, U12=zero, U21=zero,
            g_bottom_left=None, g_bottom_right=None, cell=None,
            wronskian=None, data=data, notes=notes, vacuum=True,
        )
    wp, cell = _gamma(data.fs, data.d, 0)
    g_bl = cell.entry(N - 1, 0)
    g_br = cell.entry(N - 1, N - 1)
    candidates = {"bottom-left": g_bl, "bottom-right": g_br}
    # one commutator and one cubic per distinct entry: for N = 1 both
    # corners are the same object
    commutators = {id(g): _commutator_with(g, data.b) for g in candidates.values()}
    residuals = {
        key: _cubic_residual(c, data.b, data.d0, data.d)
        for key, c in commutators.items()
    }
    matched = [
        name for name, g in candidates.items() if residuals[id(g)].is_zero()
    ]
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
        f = through(data.fs[0], g.valid_order)  # compared with g on that prefix
        literal = f.scale_right(data.a[0]) * f.inverse()
        # b (f a f^-1) = (b f a) f^-1 exactly
        corrected = literal.scale_left(data.b)
        if corrected == g:
            cf_matched.append("sign-corrected")
        if literal == g:
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
    U11 = U12 = U21 = U22 = None
    if _pm_one_split(S, data.b) is not None:
        U11, U12, U21, U22 = _graded_blocks(U, data.q1, data.q2)
        if not (U11 + U22).is_zero():
            raise VerificationError("diagonal blocks of U do not vanish")
        notes.append("diagonal blocks of U vanish; off-diagonal blocks extracted")
    return NlsSolution(
        g=g, U=U, U12=U12, U21=U21, g_bottom_left=g_bl, g_bottom_right=g_br,
        cell=cell, wronskian=wp, data=data, notes=notes,
        cubic=(U, data.b, data.d0, data.d, residuals[id(g)]), U11=U11, U22=U22,
    )


def random_nls_params(rng, N: int, r: int = 2, cap: int = None,
                      mode: str = "nls", scalar: str = "gaussian-rational",
                      ) -> NlsParams:
    return NlsParams.draw(rng, scalar, N, r, cap, mode=mode)


class NlsScalarComparison(Record):
    """The series solution of the scalar reduction checked against the
    classical hyperbolic closed form by an exact series identity."""

    orientation: ConventionNote
    report: ResidualReport  # "scalar-closed-form": one exact_zero entry
    series: TruncatedSeries  # the matched orientation, or via-gamma-12


def _closed_form_residual(w, a, alpha, beta):
    """w (z zbar - 1) - 2 (a + conj(a)) zbar through w's valid order, where
    z = (alpha / beta) exp(2x) and x = a v + i a^2 u.

    It is zero exactly when w is the closed form 2 (a + conj(a)) zbar /
    (z zbar - 1) through that order; zbar and z zbar are exponentials of
    linear forms over QQ(i).
    """
    i = GaussianRational(0, 1)
    ac, alc, bc = a.conjugate(), alpha.conjugate(), beta.conjugate()
    cap = w.algebra.cap
    zbar = series_exp_linear(-2 * i * ac * ac, 2 * ac, cap, algebra=QQI)
    zzbar = series_exp_linear(2 * i * (a * a - ac * ac), 2 * (a + ac), cap, algebra=QQI)
    zbar = zbar.scale_left(alc * bc.reciprocal())
    zzbar = zzbar.scale_left(alpha * alc * (beta * bc).reciprocal())
    return w * (zzbar - 1) - zbar.scale_left(2 * (a + ac))


def nls_scalar_closed_form(a, alpha, beta, cap: int = 8) -> NlsScalarComparison:
    """Check the series solution of the scalar reduction against
    (a + conj(a)) * exp(-i Im y) / sinh(Re y), where exp(y) = alpha exp(2x) / beta.

    The hermitian 2x2 matrix of exponentials is pushed through the quotient
    pipeline over exact Gaussian rationals; -2 times each off-diagonal entry
    is a candidate orientation for the closed form (complex conjugation flips
    between them).  With z = exp(y) the closed form is 2 (a + conj(a)) zbar /
    (z zbar - 1), so a candidate matches when the identity of
    ``_closed_form_residual`` holds exactly through its valid order.  The
    report holds the first match's residual, or via-gamma-12's when neither
    matches, and then fails.
    """
    a = QQI.coerce(a)
    alpha = QQI.coerce(alpha)
    beta = QQI.coerce(beta)
    if not beta:
        raise EvaluationSingularity("beta must be nonzero")
    if alpha * alpha.conjugate() == beta * beta.conjugate():
        raise EvaluationSingularity("|alpha| = |beta| puts the origin on a pole")
    i = GaussianRational(0, 1)
    ac, alc = a.conjugate(), alpha.conjugate()
    bc = beta.conjugate()
    exp = lambda cu, cv: series_exp_linear(cu, cv, cap, algebra=QQI)
    f_rows = (
        (exp(i * a * a, a).scale_left(alpha), exp(i * ac * ac, -ac).scale_left(bc)),
        (exp(-i * a * a, -a).scale_left(beta), exp(-i * ac * ac, ac).scale_left(alc)),
    )
    salg = f_rows[0][0].algebra
    f = SquareMatrix(MatrixAlgebra(salg, 2), f_rows)
    gamma = f.derive(D_V) / through(f, cap - 1)  # the derivative's order
    candidates = {
        "via-gamma-12": gamma.entry(0, 1).scale_left(-2),
        "via-gamma-21": gamma.entry(1, 0).scale_left(-2),
    }
    reports = {}
    for name, w in candidates.items():
        reports[name] = ResidualReport("scalar-closed-form", exact=True)
        reports[name].add(
            "w (z zbar - 1) = 2 (a + conj a) zbar",
            _closed_form_residual(w, a, alpha, beta),
        )
    matched = [name for name, report in reports.items() if report.passed]
    orientation = ConventionNote(
        topic="scalar-closed-form-orientation",
        candidates=list(candidates),
        matched=matched,
        detail="the two orientations are complex conjugates of each other",
    )
    name = (matched or ["via-gamma-12"])[0]
    return NlsScalarComparison(orientation, reports[name], candidates[name])


def random_langmuir_params(rng, N: int, r: int = 1, cap: int = None,
                           window: int = 5, scalar: str = "rational",
                           ) -> LangmuirParams:
    return LangmuirParams.draw(rng, scalar, N, r, cap, window=window)

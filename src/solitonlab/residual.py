"""Substitute candidate solutions into the nonlinear systems and report
whether every residual coefficient vanishes through the proven order.

A "pass" means every checked coefficient is the exact zero of its algebra,
with no tolerance.  Over QQ and QQ(i) that proves the residual vanishes
(``exact_zero``); over GF(p) it is evidence only, so ``exact_zero`` is null.
Hypothesis validation failures raise; residual failures are reported, because
a checker that cannot fail is worthless.

A derivative costs an order, so the products and inverses beside a
derivative term read their operands only through the largest order any
entry of that term keeps (``series.through``), and every coefficient and
valid order is still the uncut formula's.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra, MatrixAlgebra, SquareMatrix
from .errors import (
    BNotInvolutive,
    HypothesisViolated,
    NonInvertibleSolution,
    Record,
    SingularMatrix,
    WindowTooSmall,
)
from .quasidet import note_dicts, wronski
from .series import (
    Derivation,
    TruncatedSeries,
    constant_series_matrix,
    through,
)

__all__ = [
    "ResidualEntry",
    "ResidualReport",
    "check_toda",
    "check_toda_gamma",
    "check_marchenko",
    "check_marchenko_lattice",
    "check_langmuir",
    "check_nls",
    "check_data",
]


class ResidualEntry(Record):
    label: str
    passed: bool
    max_magnitude: float
    valid_order: int
    exact_zero: bool = None

    def to_dict(self):
        return dict(zip(self._fields, self._values()))


class ResidualReport(Record):
    equation: str
    exact: bool
    entries: list
    notes: list

    def __init__(self, equation, exact, entries=None, notes=None):
        self.equation = equation
        self.exact = exact
        self.entries = [] if entries is None else entries
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        """True when at least one entry was recorded and every entry passed:
        a check that examined nothing does not pass."""
        return bool(self.entries) and all(e.passed for e in self.entries)

    def add(self, label: str, x):
        """Record a series, or a square matrix of series, as one entry.

        A matrix is zero when every entry is zero through that entry's own
        valid order; the entry reports the least order and largest magnitude.
        An entry whose least order is 0 examined nothing, so it fails.
        """
        vo = min(s.valid_order for s in _series_of(x))
        passed = vo >= 1 and x.algebra.is_zero(x)
        self.entries.append(ResidualEntry(
            label, passed, x.algebra.magnitude(x), vo,
            exact_zero=passed if self.exact else None,
        ))

    def note(self, note):
        self.notes.append(note)

    def to_dict(self):
        return {
            "equation": self.equation,
            "passed": self.passed,
            "exact": self.exact,
            "entries": [e.to_dict() for e in self.entries],
            "notes": note_dicts(self.notes),
        }


def _series_of(x):
    """The series of a residual: itself, or the entries of a matrix."""
    if isinstance(x, TruncatedSeries):
        return (x,)
    return [e for row in x.rows for e in row]


def _top(x) -> int:
    """The largest valid order any series of ``x`` keeps."""
    return max(s.valid_order for s in _series_of(x))


def _invert_or_raise(x, site, numer=None):
    """x^-1, or numer * x^-1 as the one right division numer / x."""
    try:
        return x.inverse() if numer is None else numer / x
    except SingularMatrix as exc:
        raise NonInvertibleSolution(
            f"solution at site {site} is not invertible: {exc}", site=site
        ) from exc


# -- the lattice equations, each written once for series and matrices -------


def _toda_residuals(xs, d1: Derivation, d2: Derivation):
    """d1((d2 x_k) x_k^-1) - x_k x_{k-1}^-1 + x_{k+1} x_k^-1, per site: x_k
    is inverted through what d2 x_k and the site k + 1 derivative term read.
    Each shift quotient x_{k+1} x_k^-1 is formed once, through the larger of
    the orders sites k and k + 1 keep, and read by each through its own."""
    n = len(xs)
    dxs = [x.derive(d2) for x in xs]
    reads = [max(_top(dxs[k]), _top(dxs[(k + 1) % n]) - 1) for k in range(n)]
    invs = [_invert_or_raise(through(x, reads[k]), k) for k, x in enumerate(xs)]
    firsts = [(dxs[k] * invs[k]).derive(d1) for k in range(n)]
    tops = [_top(first) for first in firsts]
    shifts = [
        through(xs[(k + 1) % n], max(tops[k], tops[(k + 1) % n])) * invs[k]
        for k in range(n)
    ]
    return [
        first - through(shifts[k - 1], tops[k]) + through(shifts[k], tops[k])
        for k, first in enumerate(firsts)
    ]


def _langmuir_residual(xs, k, d: Derivation):
    """d x_k - x_{k+1} x_k + x_k x_{k-1}."""
    dx = xs[k].derive(d)
    x = through(xs[k], _top(dx))
    return dx - xs[k + 1] * x + x * xs[k - 1]


def _cubic_residual(U, b, d0: Derivation, d: Derivation):
    """2 b d0 U + d^2 U + 2 U^3, formed as (b d0 U + U^3) 2 + d^2 U: b and
    the one factor 2 each scale in one integer pass."""
    d2U = U.derive(d).derive(d)
    return (
        (U.derive(d0).scale_left(b) + through(U, _top(d2U)) * U * U).scale_left(2)
        + d2U
    )


def _commutator_with(U, b):
    """U b - b U."""
    return U.scale_right(b) - U.scale_left(b)


def check_toda(gs, d1: Derivation, d2: Derivation) -> ResidualReport:
    """Residual of the periodic lattice field equations

        d1((d2 g_k) g_k^-1) - g_k g_{k-1}^-1 + g_{k+1} g_k^-1 = 0
    """
    gs = list(gs)
    report = ResidualReport("toda", exact=gs[0].algebra.is_exact)
    for k, res in enumerate(_toda_residuals(gs, d1, d2)):
        report.add(f"site {k}", res)
    return report


def check_toda_gamma(gammas, d1: Derivation, d2: Derivation) -> ResidualReport:
    """The lattice equations at the level of whole Frobenius quotients."""
    report = ResidualReport("toda-gamma", exact=gammas[0].algebra.is_exact)
    top_rows_clean = True
    for k, res in enumerate(_toda_residuals(gammas, d1, d2)):
        report.add(f"site {k}", res)
        dim = res.dim
        if any(
            not res.entry(p, q).is_zero()
            for p in range(dim - 1)
            for q in range(dim)
        ):
            top_rows_clean = False
    report.note(
        "rows above the bottom vanish identically"
        if top_rows_clean
        else "rows above the bottom do NOT vanish"
    )
    return report


def _embed_constants(values, template: SquareMatrix):
    salg = template.algebra.base
    out = []
    for v in values:
        if isinstance(v, SquareMatrix) and v.algebra == template.algebra:
            out.append(v)
        elif isinstance(v, SquareMatrix):
            out.append(constant_series_matrix(v, salg.arity, salg.cap))
        else:
            raise HypothesisViolated(f"cannot interpret constant {v!r}")
    return out


def check_marchenko(gamma, a, d1: Derivation, d2: Derivation) -> ResidualReport:
    """Cyclic-shift logarithmic-derivative identity.

    Hypotheses (validated first, violations raise): the a-diagonals are
    constant, d1(d2 w_k) = w_k, and d2 w_k = w_{k+1} * A_k.  Then with
    c_k = (d2 w_k) w_k^-1 the report checks

        d1((d2 c_k) c_k^-1) - c_k c_{k-1}^-1 + c_{k+1} c_k^-1 = 0.
    """
    ws = list(gamma)
    n = len(ws)
    alg = ws[0].algebra
    a_mats = _embed_constants(a, ws[0])
    if len(a_mats) != n:
        raise HypothesisViolated("need one constant diagonal per site", which="A")
    dws = []
    for k in range(n):
        for d_i, name in ((d1, "d1"), (d2, "d2")):
            if not alg.is_zero(a_mats[k].derive(d_i)):
                raise HypothesisViolated(
                    f"A[{k}] is not constant under {name}", which="A-constant"
                )
        dw = ws[k].derive(d2)
        dws.append(dw)
        if not alg.is_zero(dw.derive(d1) - ws[k]):
            raise HypothesisViolated(
                f"d1 d2 w[{k}] != w[{k}]", which="mixed-derivative-identity"
            )
        if not alg.is_zero(dw - through(ws[(k + 1) % n], _top(dw)) * a_mats[k]):
            raise HypothesisViolated(
                f"d2 w[{k}] != w[{k + 1}] A[{k}]", which="shift-linear-relation"
            )
    report = ResidualReport("marchenko", exact=alg.is_exact)
    report.note(f"hypotheses validated at all {n} sites (shift 1)")
    cs = [_invert_or_raise(ws[k], k, dws[k]) for k in range(n)]
    for k, res in enumerate(_toda_residuals(cs, d1, d2)):
        report.add(f"site {k}", res)
    return report


def check_marchenko_lattice(gamma: dict, a: dict, d: Derivation) -> ResidualReport:
    """Single-derivation shift form on an integer window.

    Hypotheses: constant a-diagonals, d G_k = G_{k+2}, and
    d G_k + G_k = G_{k+1} * A_k (validated wherever the window allows).
    Main check: U_k = c_k c_{k-1}^-1 satisfies the lattice equation
    d U_k = U_{k+1} U_k - U_k U_{k-1}; diagnostics cover the
    increment-product, increment-shift, and additive-quotient identities.
    """
    sites = sorted(gamma)
    template = gamma[sites[0]]
    alg = template.algebra
    a_mats = dict(zip(sites, _embed_constants([a[k] for k in sites], template)))
    dws = {}
    for k in sites:
        if not alg.is_zero(a_mats[k].derive(d)):
            raise HypothesisViolated(f"A[{k}] is not constant", which="A-constant")
        dws[k] = dw = gamma[k].derive(d)
        if k + 2 in gamma:
            if not alg.is_zero(dw - gamma[k + 2]):
                raise HypothesisViolated(
                    f"d G[{k}] != G[{k + 2}]", which="double-shift-relation"
                )
        if k + 1 in gamma:
            res = dw + gamma[k] - through(gamma[k + 1], _top(dw)) * a_mats[k]
            if not alg.is_zero(res):
                raise HypothesisViolated(
                    f"d G[{k}] + G[{k}] != G[{k + 1}] A[{k}]",
                    which="shift-affine-relation",
                )
    main_sites = [k for k in sites if all(k + m in gamma for m in (-2, -1, 1))]
    if not main_sites:
        raise WindowTooSmall("no site has both lattice neighbours available")
    report = ResidualReport("marchenko-lattice", exact=alg.is_exact)
    cs = {k: _invert_or_raise(gamma[k], k, dws[k]) for k in sites}
    us = {k: _invert_or_raise(cs[k - 1], k - 1, cs[k]) for k in sites if k - 1 in cs}
    for k in main_sites:
        res = _langmuir_residual(us, k, d)
        report.add(f"lattice-equation site {k}", res)
    one = alg.one()
    incs = {k: cs[k + 1] - cs[k] for k in sites if k + 1 in cs}
    for k in incs:
        dc = cs[k].derive(d)
        res = through(incs[k], _top(dc)) * (cs[k] + one) - dc
        report.add(f"increment-product site {k}", res)
        if k + 1 in incs:
            res = incs[k + 1] * cs[k] - incs[k]
            report.add(f"increment-shift site {k}", res)
        if k in us:
            res = us[k] - (one + incs[k])
            report.add(f"additive-quotient site {k}", res)
    return report


def check_langmuir(gs, d: Derivation) -> ResidualReport:
    """Lattice residual d g_k - g_{k+1} g_k + g_k g_{k-1} at interior sites.

    ``gs`` is a dict of sites, or a solution from ``langmuir_solution``.
    The residuals are formed here for a bare dict; a solution carries the
    residuals ``langmuir_solution`` formed when it selected its reading
    (``residuals``), and they are reused only while its ``gs`` is still the
    dict, holding the same series, that they were formed from, and d is
    the derivation they were formed with.

    In a commutative coefficient algebra the equivalent product form
    d g_k = g_k (g_{k+1} - g_{k-1}) is verified as well.
    """
    formed = None
    if not isinstance(gs, dict):  # a solution from langmuir_solution
        formed, gs = gs.residuals, gs.gs
    interior = _interior(gs)
    sample = gs[interior[0]]
    report = ResidualReport("langmuir", exact=sample.algebra.is_exact)
    commutative = not isinstance(sample.algebra.coeff, MatrixAlgebra)
    reuse = (formed is not None and formed[0] is gs and formed[1] == d
             and len(formed[2]) == len(gs) and all(gs.get(k) is g for k, g in formed[2]))
    for k in interior:
        report.add(f"site {k}", formed[3][k] if reuse else _langmuir_residual(gs, k, d))
        if commutative:
            dg = gs[k].derive(d)
            res2 = dg - through(gs[k], _top(dg)) * (gs[k + 1] - gs[k - 1])
            report.add(f"site {k} (commutative product form)", res2)
    if commutative:
        report.note("commutative scalars: product form checked as well")
    return report


def _interior(gs: dict) -> list:
    """The sites of gs with both neighbours in gs, in order; WindowTooSmall
    when there is none."""
    interior = [k for k in sorted(gs) if k - 1 in gs and k + 1 in gs]
    if not interior:
        raise WindowTooSmall("need at least one site with both neighbours")
    return interior


def _grading(S: Algebra, b):
    """(b, q1, q2): b in S and its grading projectors q1 = (1 + b)/2 and
    q2 = (1 - b)/2; BNotInvolutive unless b*b = 1 exactly."""
    b = S.coerce(b)
    if b * b != S.one():
        raise BNotInvolutive("b*b must equal 1 exactly")
    half = Fraction(1, 2)
    return b, S.scalar_mul(half, S.one() + b), S.scalar_mul(half, S.one() - b)


def _graded_blocks(U, q1, q2):
    """The blocks (u11, u12, u21, u22) of U, with u_ij = q_i U q_j."""
    return [U.scale_left(p).scale_right(q) for p in (q1, q2) for q in (q1, q2)]


def check_nls(U, b, d0: Derivation, d: Derivation,
              gamma=None) -> ResidualReport:
    """Residual of the cubic equation 2 b d0 U + d^2 U + 2 U^3 = 0.

    ``U`` is a series, or a solution from ``nls_solution``.  The cubic
    residual and the graded blocks of U are formed here, once, for a bare
    series; a solution carries the residual ``nls_solution`` formed when it
    selected U (``cubic``) and the blocks it formed (``U11`` ... ``U22``),
    and they are reused only while they belong to the solution's own U and
    to the b, d0 and d given here.

    When b is a +/-1 diagonal with both signs present, the off-diagonal
    blocks (embedded through the grading projectors) are checked against
    their coupled cubic equations and the diagonal blocks against zero.
    When the Frobenius quotient is supplied, the matrix-level identities
    B dV = U_mat^2 (with V = c B + B c) and the matrix cubic equation are
    verified too.  For a 1 x 1 quotient whose commutator is U, through the
    same valid order, the matrix cubic residual is [[the cubic residual]];
    otherwise it is formed from the quotient.
    """
    formed = graded = None
    if not isinstance(U, TruncatedSeries):  # a solution from nls_solution
        formed, graded, U = U.cubic, (U.U11, U.U12, U.U21, U.U22), U.U
    S = U.algebra.coeff
    b, q1, q2 = _grading(S, b)
    report = ResidualReport("nls", exact=U.algebra.is_exact)
    reuse = formed is not None and formed[0] is U and formed[1:4] == (b, d0, d)
    cubic = formed[4] if reuse else _cubic_residual(U, b, d0, d)
    report.add("cubic equation", cubic)
    blocks = _pm_one_split(S, b)
    if blocks is not None:
        u11, u12, u21, u22 = graded if reuse else _graded_blocks(U, q1, q2)
        report.add("diagonal block (1,1)", u11)
        report.add("diagonal block (2,2)", u22)
        # (b d0 x + x y x) 2 + d^2 x, where b acts on u12 as 1 and on u21 as -1
        for name, x, y in (("(1,2)", u12, u21), ("(2,1)", u21, u12)):
            d2x = x.derive(d).derive(d)
            xyx = through(x, _top(d2x)) * y * x
            report.add(f"block equation {name}",
                       (x.derive(d0).scale_left(b) + xyx).scale_left(2) + d2x)
        report.note(
            f"grading splits the algebra {len(blocks[0])}+{len(blocks[1])}"
        )
    if gamma is not None:
        u_mat = _commutator_with(gamma, b)
        v_mat = gamma.scale_right(b) + gamma.scale_left(b)
        dv = v_mat.derive(d).scale_left(b)
        report.add("v-equation", dv - through(u_mat, _top(dv)) * u_mat)
        u = u_mat.entry(0, 0)
        if u_mat.dim == 1 and u.valid_order == U.valid_order and u == U:
            matrix_cubic = SquareMatrix(u_mat.algebra, ((cubic,),))
        else:
            matrix_cubic = _cubic_residual(u_mat, b, d0, d)
        report.add("matrix cubic equation", matrix_cubic)
    return report


def _pm_one_split(S: Algebra, b):
    """(plus_indices, minus_indices) when b is a +/-1 diagonal matrix over a
    field with both signs present, else None."""
    if not isinstance(S, MatrixAlgebra) or isinstance(S.base, MatrixAlgebra):
        return None
    one = S.base.one()
    split = ([], [])
    for i, row in enumerate(b.rows):
        if row[i] not in (one, -one) or any(x for j, x in enumerate(row) if j != i):
            return None
        split[row[i] != one].append(i)
    return split if all(split) else None


def check_data(kind: str, data, wronskian=None) -> ResidualReport:
    """Validate the linear relations a constructor promises for its grid;
    an NLS grid's Wronski pair is built here only when none is given."""
    if kind == "toda":
        return _check_toda_data(data)
    if kind == "langmuir":
        return _check_langmuir_data(data)
    if kind == "nls":
        return _check_nls_data(data, wronskian or wronski(data.fs, data.d))
    raise ValueError(f"unknown data kind {kind!r}")


def _check_toda_data(data) -> ResidualReport:
    report = ResidualReport("toda-data", exact=data.algebra.is_exact)
    S = data.algebra
    n, N = data.n, data.N
    for i in range(n):
        for j in range(N):
            relations = (("du", data.d1, i - 1, S.invert(data.a[i][j])),
                         ("dv", data.d2, i + 1, data.a[(i + 1) % n][j]))
            for name, d, k, c in relations:
                df = data.f[i][j].derive(d)
                shifted = through(data.f[k % n][j], df.valid_order).scale_right(c)
                report.add(f"{name} relation f[{i}][{j}]", df - shifted)
    report.note("a-coefficients are plain algebra elements, constant by type")
    return report


def _check_langmuir_data(data) -> ResidualReport:
    report = ResidualReport("langmuir-data", exact=data.algebra.is_exact)
    # the sites with a shifted neighbour; each derives its f[k][j] once
    sites = [k for k in sorted(data.f) if k + 1 in data.f or k + 2 in data.f]
    for k in sites:
        for j in range(data.N):
            f = data.f[k][j]
            df = f.derive(data.d)
            if k + 2 in data.f:
                report.add(f"shift-by-two relation f[{k}][{j}]", df - data.f[k + 2][j])
            if k + 1 in data.f:
                up = through(data.f[k + 1][j], df.valid_order).scale_right(data.a[j])
                report.add(f"shift-by-one relation f[{k}][{j}]", df + f - up)
    report.note("a-coefficients are plain algebra elements, constant by type")
    return report


def _check_nls_data(data, wp) -> ResidualReport:
    report = ResidualReport("nls-data", exact=data.algebra.is_exact)
    res_evolution = wp.W.derive(data.d0) + wp.dW.derive(data.d).scale_left(data.b)
    report.add("d0 + graded second derivative", res_evolution)
    wa_rows = tuple(
        tuple(through(w, dw.valid_order).scale_right(a)
              for w, dw, a in zip(w_row, dw_row, data.a))
        for w_row, dw_row in zip(wp.W.rows, wp.dW.rows)
    )
    wa = SquareMatrix(wp.W.algebra, wa_rows)
    res_grading = wp.dW.scale_left(data.b) - wa
    report.add("graded first derivative vs diagonal", res_grading)
    return report

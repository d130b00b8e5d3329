"""Substitute candidate solutions into the nonlinear systems and report
whether every residual coefficient vanishes through the proven order.

In exact scalar modes a "pass" means every checked coefficient is the exact
zero of its algebra; the float mode (diagnostics only) compares magnitudes
against a relative tolerance of 1e-10 times the largest input coefficient.
Hypothesis validation failures raise; residual failures are reported, because
a checker that cannot fail is worthless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Algebra, MatrixAlgebra, SquareMatrix
from .errors import (
    BNotInvolutive,
    HypothesisViolated,
    NonInvertibleSolution,
    SingularMatrix,
    WindowTooSmall,
)
from .quasidet import ConventionNote, FrobeniusCell
from .series import D_U, D_V, Derivation, TruncatedSeries, constant_series_matrix

__all__ = [
    "ResidualEntry",
    "ResidualReport",
    "FLOAT_RELATIVE_TOLERANCE",
    "check_toda",
    "check_toda_gamma",
    "check_marchenko",
    "check_marchenko_lattice",
    "check_langmuir",
    "check_nls",
    "check_data",
]

FLOAT_RELATIVE_TOLERANCE = 1e-10


@dataclass
class ResidualEntry:
    label: str
    passed: bool
    max_magnitude: float
    valid_order: int
    exact_zero: bool = None

    def to_dict(self):
        return {
            "label": self.label,
            "passed": self.passed,
            "exact_zero": self.exact_zero,
            "max_magnitude": self.max_magnitude,
            "valid_order": self.valid_order,
        }


@dataclass
class ResidualReport:
    equation: str
    exact: bool
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, label: str, x, scale: float = 1.0):
        """Record a series, or a square matrix of series, as one entry.

        A matrix is zero when every entry is zero through that entry's own
        valid order; the entry reports the least order and largest magnitude.
        """
        parts = _series_of(x)
        vo = min(s.valid_order for s in parts)
        mag = max(s.max_coeff_magnitude() for s in parts)
        if self.exact:
            zero = x.is_zero()
            self.entries.append(ResidualEntry(label, zero, mag, vo, exact_zero=zero))
        else:
            tol = FLOAT_RELATIVE_TOLERANCE * max(scale, 1.0)
            self.entries.append(ResidualEntry(label, mag <= tol, mag, vo))

    def note(self, note):
        self.notes.append(note)

    def to_dict(self):
        return {
            "equation": self.equation,
            "passed": self.passed,
            "exact": self.exact,
            "entries": [e.to_dict() for e in self.entries],
            "notes": [
                n.to_dict() if isinstance(n, ConventionNote) else n
                for n in self.notes
            ],
        }


def _series_of(x):
    """The series of a residual: itself, or the entries of a matrix."""
    if isinstance(x, TruncatedSeries):
        return (x,)
    return [e for row in x.rows for e in row]


def _series_scale(xs) -> float:
    return max(
        (s.max_coeff_magnitude() for x in xs for s in _series_of(x)), default=0.0
    )


def _invert_or_raise(x, site):
    try:
        return x.inverse()
    except SingularMatrix as exc:
        raise NonInvertibleSolution(
            f"solution at site {site} is not invertible: {exc}", site=site
        ) from exc


# -- the lattice equations, each written once for series and matrices -------


def _toda_residuals(xs, d1: Derivation, d2: Derivation, shift: int = 1):
    """d1((d2 x_k) x_k^-1) - x_k x_{k-shift}^-1 + x_{k+shift} x_k^-1, per site."""
    n = len(xs)
    invs = [_invert_or_raise(x, k) for k, x in enumerate(xs)]
    return [
        (xs[k].derive(d2) * invs[k]).derive(d1)
        - xs[k] * invs[(k - shift) % n]
        + xs[(k + shift) % n] * invs[k]
        for k in range(n)
    ]


def _langmuir_residual(xs, k, d: Derivation, shift: int = 1):
    """d x_k - x_{k+shift} x_k + x_k x_{k-shift}."""
    return xs[k].derive(d) - xs[k + shift] * xs[k] + xs[k] * xs[k - shift]


def _cubic_residual(U, b, d0: Derivation, d: Derivation):
    """2 b d0 U + d^2 U + 2 U^3."""
    return (
        U.derive(d0).scale_left(b).scale_left(2)
        + U.derive(d).derive(d)
        + (U * U * U).scale_left(2)
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
    scale = _series_scale(gs)
    for k, res in enumerate(_toda_residuals(gs, d1, d2)):
        report.add(f"site {k}", res, scale)
    return report


def _as_matrix(x) -> SquareMatrix:
    return x.matrix if isinstance(x, FrobeniusCell) else x


def check_toda_gamma(gammas, d1: Derivation, d2: Derivation) -> ResidualReport:
    """The lattice equations at the level of whole Frobenius quotients."""
    gammas = [_as_matrix(g) for g in gammas]
    report = ResidualReport(
        "toda-gamma", exact=gammas[0].algebra.base.is_exact
    )
    scale = _series_scale(gammas)
    top_rows_clean = True
    for k, res in enumerate(_toda_residuals(gammas, d1, d2)):
        report.add(f"site {k}", res, scale)
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


def check_marchenko(gamma, a, d1: Derivation = None, d2: Derivation = None,
                    shift: int = 1) -> ResidualReport:
    """Cyclic-shift logarithmic-derivative identity.

    Hypotheses (validated first, violations raise): the a-diagonals are
    constant, d1(d2 w_k) = w_k, and d2 w_k = w_{k+shift} * A_k.  Then with
    c_k = (d2 w_k) w_k^-1 the report checks

        d1((d2 c_k) c_k^-1) - c_k c_{k-shift}^-1 + c_{k+shift} c_k^-1 = 0.
    """
    d1 = d1 if d1 is not None else D_U
    d2 = d2 if d2 is not None else D_V
    ws = [_as_matrix(g) for g in gamma]
    n = len(ws)
    a_mats = _embed_constants(a, ws[0])
    if len(a_mats) != n:
        raise HypothesisViolated("need one constant diagonal per site", which="A")
    for k in range(n):
        for d_i, name in ((d1, "d1"), (d2, "d2")):
            if not a_mats[k].derive(d_i).is_zero():
                raise HypothesisViolated(
                    f"A[{k}] is not constant under {name}", which="A-constant"
                )
        if not (ws[k].derive(d2).derive(d1) - ws[k]).is_zero():
            raise HypothesisViolated(
                f"d1 d2 w[{k}] != w[{k}]", which="mixed-derivative-identity"
            )
        if not (ws[k].derive(d2) - ws[(k + shift) % n] * a_mats[k]).is_zero():
            raise HypothesisViolated(
                f"d2 w[{k}] != w[{k + shift}] A[{k}]", which="shift-linear-relation"
            )
    report = ResidualReport(
        "marchenko", exact=ws[0].algebra.base.is_exact
    )
    report.note(f"hypotheses validated at all {n} sites (shift {shift})")
    scale = _series_scale(ws)
    cs = [ws[k].derive(d2) * _invert_or_raise(ws[k], k) for k in range(n)]
    for k, res in enumerate(_toda_residuals(cs, d1, d2, shift)):
        report.add(f"site {k}", res, scale)
    return report


def check_marchenko_lattice(gamma: dict, a: dict, d: Derivation,
                            shift: int = 1) -> ResidualReport:
    """Single-derivation shift form on an integer window.

    Hypotheses: constant a-diagonals, d G_k = G_{k+2 shift}, and
    d G_k + G_k = G_{k+shift} * A_k (validated wherever the window allows).
    Main check: U_k = c_k c_{k-shift}^-1 satisfies the lattice equation
    d U_k = U_{k+shift} U_k - U_k U_{k-shift}; diagnostics cover the
    increment-product, increment-shift, and additive-quotient identities.
    """
    sites = sorted(gamma)
    ws = {k: _as_matrix(gamma[k]) for k in sites}
    template = ws[sites[0]]
    a_mats = dict(zip(sites, _embed_constants([a[k] for k in sites], template)))
    for k in sites:
        if not a_mats[k].derive(d).is_zero():
            raise HypothesisViolated(f"A[{k}] is not constant", which="A-constant")
        if k + 2 * shift in ws:
            if not (ws[k].derive(d) - ws[k + 2 * shift]).is_zero():
                raise HypothesisViolated(
                    f"d G[{k}] != G[{k + 2 * shift}]", which="double-shift-relation"
                )
        if k + shift in ws:
            if not (ws[k].derive(d) + ws[k] - ws[k + shift] * a_mats[k]).is_zero():
                raise HypothesisViolated(
                    f"d G[{k}] + G[{k}] != G[{k + shift}] A[{k}]",
                    which="shift-affine-relation",
                )
    main_sites = [
        k
        for k in sites
        if all(k + m * shift in ws for m in (-2, -1, 1))
    ]
    if not main_sites:
        raise WindowTooSmall("no site has both lattice neighbours available")
    report = ResidualReport(
        "marchenko-lattice", exact=template.algebra.base.is_exact
    )
    scale = _series_scale(ws.values())
    cs = {k: ws[k].derive(d) * _invert_or_raise(ws[k], k) for k in sites}
    us = {
        k: cs[k] * _invert_or_raise(cs[k - shift], k - shift)
        for k in sites
        if k - shift in cs
    }
    for k in main_sites:
        res = _langmuir_residual(us, k, d, shift)
        report.add(f"lattice-equation site {k}", res, scale)
    one = template.algebra.one()
    for k in sites:
        if k + shift in cs:
            res = (cs[k + shift] - cs[k]) * (cs[k] + one) - cs[k].derive(d)
            report.add(f"increment-product site {k}", res, scale)
        if k + 2 * shift in cs:
            res = (cs[k + 2 * shift] - cs[k + shift]) * cs[k] - (
                cs[k + shift] - cs[k]
            )
            report.add(f"increment-shift site {k}", res, scale)
        if k in us and k + shift in cs:
            res = us[k] - (one + cs[k + shift] - cs[k])
            report.add(f"additive-quotient site {k}", res, scale)
    return report


def check_langmuir(gs: dict, d: Derivation) -> ResidualReport:
    """Lattice residual d g_k - g_{k+1} g_k + g_k g_{k-1} at interior sites.

    In a commutative coefficient algebra the equivalent product form
    d g_k = g_k (g_{k+1} - g_{k-1}) is verified as well.
    """
    sites = sorted(gs)
    interior = [k for k in sites if k - 1 in gs and k + 1 in gs]
    if not interior:
        raise WindowTooSmall("need at least one site with both neighbours")
    sample = gs[sites[0]]
    report = ResidualReport("langmuir", exact=sample.algebra.is_exact)
    commutative = not isinstance(sample.algebra.coeff, MatrixAlgebra)
    scale = _series_scale([gs[k] for k in sites])
    for k in interior:
        report.add(f"site {k}", _langmuir_residual(gs, k, d), scale)
        if commutative:
            res2 = gs[k].derive(d) - gs[k] * (gs[k + 1] - gs[k - 1])
            report.add(f"site {k} (commutative product form)", res2, scale)
    if commutative:
        report.note("commutative scalars: product form checked as well")
    return report


def check_nls(U: TruncatedSeries, b, d0: Derivation, d: Derivation,
              gamma=None) -> ResidualReport:
    """Residual of the cubic equation 2 b d0 U + d^2 U + 2 U^3 = 0.

    When b is a +/-1 diagonal with both signs present, the off-diagonal
    blocks (embedded through the grading projectors) are checked against
    their coupled cubic equations and the diagonal blocks against zero.
    When the Frobenius quotient is supplied, the matrix-level identities
    B dV = U_mat^2 (with V = c B + B c) and the matrix cubic equation are
    verified too.
    """
    S = U.algebra.coeff
    b = S.coerce(b)
    if b * b != S.one():
        raise BNotInvolutive("b*b must equal 1 exactly")
    report = ResidualReport("nls", exact=U.algebra.is_exact)
    scale = U.max_coeff_magnitude()
    report.add("cubic equation", _cubic_residual(U, b, d0, d), scale)
    blocks = _pm_one_split(S, b)
    if blocks is not None:
        half = Fraction(1, 2)
        q1 = S.scalar_mul(half, S.one() + b)
        q2 = S.scalar_mul(half, S.one() - b)
        u12 = U.scale_left(q1).scale_right(q2)
        u21 = U.scale_left(q2).scale_right(q1)
        report.add("diagonal block (1,1)", U.scale_left(q1).scale_right(q1), scale)
        report.add("diagonal block (2,2)", U.scale_left(q2).scale_right(q2), scale)
        res_block12 = (
            u12.derive(d0).scale_left(2)
            + u12.derive(d).derive(d)
            + (u12 * u21 * u12).scale_left(2)
        )
        res_block21 = (
            -u21.derive(d0).scale_left(2)
            + u21.derive(d).derive(d)
            + (u21 * u12 * u21).scale_left(2)
        )
        report.add("block equation (1,2)", res_block12, scale)
        report.add("block equation (2,1)", res_block21, scale)
        report.note(
            f"grading splits the algebra {len(blocks[0])}+{len(blocks[1])}"
        )
    if gamma is not None:
        g_mat = _as_matrix(gamma)
        u_mat = _commutator_with(g_mat, b)
        v_mat = g_mat.scale_right(b) + g_mat.scale_left(b)
        report.add("v-equation", v_mat.derive(d).scale_left(b) - u_mat * u_mat, scale)
        report.add("matrix cubic equation", _cubic_residual(u_mat, b, d0, d), scale)
    return report


def _pm_one_split(S: Algebra, b):
    """(plus_indices, minus_indices) when b is a +/-1 diagonal with both
    signs present, else None."""
    if not isinstance(S, MatrixAlgebra):
        return None
    one, zero = S.base.one(), S.base.zero()
    plus, minus = [], []
    for i in range(S.dim):
        for j in range(S.dim):
            x = b.entry(i, j)
            if i == j:
                if x == one:
                    plus.append(i)
                elif x == -one:
                    minus.append(i)
                else:
                    return None
            elif x != zero:
                return None
    if not plus or not minus:
        return None
    return plus, minus


def check_data(kind: str, data) -> ResidualReport:
    """Validate the linear relations a constructor promises for its grid."""
    if kind == "toda":
        return _check_toda_data(data)
    if kind == "langmuir":
        return _check_langmuir_data(data)
    if kind == "nls":
        return _check_nls_data(data)
    raise ValueError(f"unknown data kind {kind!r}")


def _check_toda_data(data) -> ResidualReport:
    report = ResidualReport("toda-data", exact=data.algebra.is_exact)
    S = data.algebra
    n, N = data.n, data.N
    scale = _series_scale([data.f[i][j] for i in range(n) for j in range(N)])
    for i in range(n):
        for j in range(N):
            f = data.f[i][j]
            res1 = f.derive(data.d1) - data.f[(i - 1) % n][j].scale_right(
                S.invert(data.a[i][j])
            )
            report.add(f"du relation f[{i}][{j}]", res1, scale)
            res2 = f.derive(data.d2) - data.f[(i + 1) % n][j].scale_right(
                data.a[(i + 1) % n][j]
            )
            report.add(f"dv relation f[{i}][{j}]", res2, scale)
    report.note("a-coefficients are plain algebra elements, constant by type")
    return report


def _check_langmuir_data(data) -> ResidualReport:
    report = ResidualReport("langmuir-data", exact=data.algebra.is_exact)
    sites = sorted(data.f)
    scale = _series_scale([f for k in sites for f in data.f[k]])
    for k in sites:
        for j in range(data.N):
            f = data.f[k][j]
            if k + 2 in data.f:
                report.add(
                    f"shift-by-two relation f[{k}][{j}]",
                    f.derive(data.d) - data.f[k + 2][j],
                    scale,
                )
            if k + 1 in data.f:
                report.add(
                    f"shift-by-one relation f[{k}][{j}]",
                    f.derive(data.d) + f - data.f[k + 1][j].scale_right(data.a[j]),
                    scale,
                )
    report.note("a-coefficients are plain algebra elements, constant by type")
    return report


def _check_nls_data(data) -> ResidualReport:
    from .quasidet import wronski

    report = ResidualReport("nls-data", exact=data.algebra.is_exact)
    scale = _series_scale(data.fs)
    wp = wronski(data.fs, data.d)
    res_evolution = wp.W.derive(data.d0) + wp.dW.derive(data.d).scale_left(data.b)
    report.add("d0 + graded second derivative", res_evolution, scale)
    n = wp.N
    wa_rows = tuple(
        tuple(wp.W.entry(m, j).scale_right(data.a[j]) for j in range(n))
        for m in range(n)
    )
    wa = SquareMatrix(wp.W.algebra, wa_rows)
    res_grading = wp.dW.scale_left(data.b) - wa
    report.add("graded first derivative vs diagonal", res_grading, scale)
    return report

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
    SingularConstantTerm,
    SingularMatrix,
    WindowTooSmall,
)
from .quasidet import ConventionNote, FrobeniusCell
from .series import (
    D_U,
    D_V,
    Derivation,
    TruncatedSeries,
    constant_series_matrix,
    matrix_of_series_derive,
    matrix_of_series_is_zero,
)

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

    def add_series(self, label: str, s: TruncatedSeries, scale: float = 1.0):
        mag = s.max_coeff_magnitude()
        if self.exact:
            zero = s.is_zero()
            self.entries.append(
                ResidualEntry(label, zero, mag, s.valid_order, exact_zero=zero)
            )
        else:
            tol = FLOAT_RELATIVE_TOLERANCE * max(scale, 1.0)
            self.entries.append(
                ResidualEntry(label, mag <= tol, mag, s.valid_order)
            )

    def add_matrix(self, label: str, m: SquareMatrix, scale: float = 1.0):
        vo = min(x.valid_order for row in m.rows for x in row)
        mag = max(x.max_coeff_magnitude() for row in m.rows for x in row)
        if self.exact:
            zero = matrix_of_series_is_zero(m)
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


def _series_scale(series_list) -> float:
    return max((s.max_coeff_magnitude() for s in series_list), default=0.0)


def _invert_or_raise(s: TruncatedSeries, site):
    try:
        return s.inverse()
    except (SingularConstantTerm, SingularMatrix) as exc:
        raise NonInvertibleSolution(
            f"solution at site {site} is not invertible: {exc}", site=site
        ) from exc


def check_toda(gs, d1: Derivation, d2: Derivation) -> ResidualReport:
    """Residual of the periodic lattice field equations

        d1((d2 g_k) g_k^-1) - g_k g_{k-1}^-1 + g_{k+1} g_k^-1 = 0
    """
    gs = list(gs)
    n = len(gs)
    report = ResidualReport("toda", exact=gs[0].algebra.is_exact)
    scale = _series_scale(gs)
    invs = [_invert_or_raise(g, k) for k, g in enumerate(gs)]
    for k in range(n):
        log_term = (gs[k].derive(d2) * invs[k]).derive(d1)
        res = log_term - gs[k] * invs[(k - 1) % n] + gs[(k + 1) % n] * invs[k]
        report.add_series(f"site {k}", res, scale)
    return report


def _invert_matrix_or_raise(m: SquareMatrix, site):
    try:
        return m.inverse()
    except SingularMatrix as exc:
        raise NonInvertibleSolution(
            f"matrix solution at site {site} is not invertible: {exc}", site=site
        ) from exc


def _as_matrix(x) -> SquareMatrix:
    return x.matrix if isinstance(x, FrobeniusCell) else x


def check_toda_gamma(gammas, d1: Derivation, d2: Derivation) -> ResidualReport:
    """The lattice equations at the level of whole Frobenius quotients."""
    gammas = [_as_matrix(g) for g in gammas]
    n = len(gammas)
    report = ResidualReport(
        "toda-gamma", exact=gammas[0].algebra.base.is_exact
    )
    scale = max(
        x.max_coeff_magnitude() for g in gammas for row in g.rows for x in row
    )
    invs = [_invert_matrix_or_raise(g, k) for k, g in enumerate(gammas)]
    top_rows_clean = True
    for k in range(n):
        log_term = matrix_of_series_derive(
            matrix_of_series_derive(gammas[k], d2) * invs[k], d1
        )
        res = log_term - gammas[k] * invs[(k - 1) % n] + gammas[(k + 1) % n] * invs[k]
        report.add_matrix(f"site {k}", res, scale)
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
            if not matrix_of_series_is_zero(matrix_of_series_derive(a_mats[k], d_i)):
                raise HypothesisViolated(
                    f"A[{k}] is not constant under {name}", which="A-constant"
                )
        mixed = matrix_of_series_derive(
            matrix_of_series_derive(ws[k], d2), d1
        ) - ws[k]
        if not matrix_of_series_is_zero(mixed):
            raise HypothesisViolated(
                f"d1 d2 w[{k}] != w[{k}]", which="mixed-derivative-identity"
            )
        linear = matrix_of_series_derive(ws[k], d2) - ws[(k + shift) % n] * a_mats[k]
        if not matrix_of_series_is_zero(linear):
            raise HypothesisViolated(
                f"d2 w[{k}] != w[{k + shift}] A[{k}]", which="shift-linear-relation"
            )
    report = ResidualReport(
        "marchenko", exact=ws[0].algebra.base.is_exact
    )
    report.note(f"hypotheses validated at all {n} sites (shift {shift})")
    scale = max(
        x.max_coeff_magnitude() for w in ws for row in w.rows for x in row
    )
    cs = [
        matrix_of_series_derive(ws[k], d2) * _invert_matrix_or_raise(ws[k], k)
        for k in range(n)
    ]
    c_invs = [_invert_matrix_or_raise(c, k) for k, c in enumerate(cs)]
    for k in range(n):
        log_term = matrix_of_series_derive(
            matrix_of_series_derive(cs[k], d2) * c_invs[k], d1
        )
        res = (
            log_term
            - cs[k] * c_invs[(k - shift) % n]
            + cs[(k + shift) % n] * c_invs[k]
        )
        report.add_matrix(f"site {k}", res, scale)
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
        if not matrix_of_series_is_zero(matrix_of_series_derive(a_mats[k], d)):
            raise HypothesisViolated(f"A[{k}] is not constant", which="A-constant")
        if k + 2 * shift in ws:
            if not matrix_of_series_is_zero(
                matrix_of_series_derive(ws[k], d) - ws[k + 2 * shift]
            ):
                raise HypothesisViolated(
                    f"d G[{k}] != G[{k + 2 * shift}]", which="double-shift-relation"
                )
        if k + shift in ws:
            if not matrix_of_series_is_zero(
                matrix_of_series_derive(ws[k], d) + ws[k]
                - ws[k + shift] * a_mats[k]
            ):
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
    scale = max(
        x.max_coeff_magnitude()
        for w in ws.values()
        for row in w.rows
        for x in row
    )
    cs = {
        k: matrix_of_series_derive(ws[k], d) * _invert_matrix_or_raise(ws[k], k)
        for k in sites
    }
    us = {
        k: cs[k] * _invert_matrix_or_raise(cs[k - shift], k - shift)
        for k in sites
        if k - shift in cs
    }
    for k in main_sites:
        res = (
            matrix_of_series_derive(us[k], d)
            - us[k + shift] * us[k]
            + us[k] * us[k - shift]
        )
        report.add_matrix(f"lattice-equation site {k}", res, scale)
    one = constant_series_matrix(
        MatrixAlgebra(template.algebra.base.coeff, template.dim).one(),
        template.algebra.base.arity,
        template.algebra.base.cap,
    )
    for k in sites:
        if k + shift in cs:
            res = (cs[k + shift] - cs[k]) * (cs[k] + one) - matrix_of_series_derive(
                cs[k], d
            )
            report.add_matrix(f"increment-product site {k}", res, scale)
        if k + 2 * shift in cs:
            res = (cs[k + 2 * shift] - cs[k + shift]) * cs[k] - (
                cs[k + shift] - cs[k]
            )
            report.add_matrix(f"increment-shift site {k}", res, scale)
        if k in us and k + shift in cs:
            res = us[k] - (one + cs[k + shift] - cs[k])
            report.add_matrix(f"additive-quotient site {k}", res, scale)
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
        res = gs[k].derive(d) - gs[k + 1] * gs[k] + gs[k] * gs[k - 1]
        report.add_series(f"site {k}", res, scale)
        if commutative:
            res2 = gs[k].derive(d) - gs[k] * (gs[k + 1] - gs[k - 1])
            report.add_series(f"site {k} (commutative product form)", res2, scale)
    if commutative:
        report.note("commutative scalars: product form checked as well")
    return report


def _mat_scale_left(c, m: SquareMatrix) -> SquareMatrix:
    return SquareMatrix(
        m.algebra, tuple(tuple(x.scale_left(c) for x in row) for row in m.rows)
    )


def _mat_scale_right(m: SquareMatrix, c) -> SquareMatrix:
    return SquareMatrix(
        m.algebra, tuple(tuple(x.scale_right(c) for x in row) for row in m.rows)
    )


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
    report.add_series("cubic equation", _cubic_residual(U, b, d0, d), scale)
    blocks = _pm_one_split(S, b)
    if blocks is not None:
        half = Fraction(1, 2)
        q1 = S.scalar_mul(half, S.one() + b)
        q2 = S.scalar_mul(half, S.one() - b)
        u12 = U.scale_left(q1).scale_right(q2)
        u21 = U.scale_left(q2).scale_right(q1)
        report.add_series(
            "diagonal block (1,1)", U.scale_left(q1).scale_right(q1), scale
        )
        report.add_series(
            "diagonal block (2,2)", U.scale_left(q2).scale_right(q2), scale
        )
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
        report.add_series("block equation (1,2)", res_block12, scale)
        report.add_series("block equation (2,1)", res_block21, scale)
        report.note(
            f"grading splits the algebra {len(blocks[0])}+{len(blocks[1])}"
        )
    if gamma is not None:
        g_mat = _as_matrix(gamma)
        u_mat = _mat_scale_right(g_mat, b) - _mat_scale_left(b, g_mat)
        v_mat = _mat_scale_right(g_mat, b) + _mat_scale_left(b, g_mat)
        res_v = _mat_scale_left(b, matrix_of_series_derive(v_mat, d)) - u_mat * u_mat
        report.add_matrix("v-equation", res_v, scale)
        u_cubed = u_mat * u_mat * u_mat
        mat_cubic = (
            _mat_scale_left(
                2, _mat_scale_left(b, matrix_of_series_derive(u_mat, d0))
            )
            + matrix_of_series_derive(matrix_of_series_derive(u_mat, d), d)
            + _mat_scale_left(2, u_cubed)
        )
        report.add_matrix("matrix cubic equation", mat_cubic, scale)
    return report


def _cubic_residual(U: TruncatedSeries, b, d0: Derivation, d: Derivation):
    """2 b d0 U + d^2 U + 2 U^3."""
    return (
        U.derive(d0).scale_left(b).scale_left(2)
        + U.derive(d).derive(d)
        + (U * U * U).scale_left(2)
    )


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
            report.add_series(f"du relation f[{i}][{j}]", res1, scale)
            res2 = f.derive(data.d2) - data.f[(i + 1) % n][j].scale_right(
                data.a[(i + 1) % n][j]
            )
            report.add_series(f"dv relation f[{i}][{j}]", res2, scale)
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
                report.add_series(
                    f"shift-by-two relation f[{k}][{j}]",
                    f.derive(data.d) - data.f[k + 2][j],
                    scale,
                )
            if k + 1 in data.f:
                report.add_series(
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
    second = matrix_of_series_derive(wp.dW, data.d)
    res_evolution = matrix_of_series_derive(wp.W, data.d0) + _mat_scale_left(data.b, second)
    report.add_matrix("d0 + graded second derivative", res_evolution, scale)
    n = wp.N
    wa_rows = tuple(
        tuple(wp.W.entry(m, j).scale_right(data.a[j]) for j in range(n))
        for m in range(n)
    )
    wa = SquareMatrix(wp.W.algebra, wa_rows)
    res_grading = _mat_scale_left(data.b, wp.dW) - wa
    report.add_matrix("graded first derivative vs diagonal", res_grading, scale)
    return report

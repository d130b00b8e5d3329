"""solitonlab: exact-arithmetic multisoliton constructions and verification.

Everything is computed over exact scalars (rationals or Gaussian rationals,
with complex floats as a diagnostics-only mode): truncated noncommutative
power series, quasideterminants, Wronski/Frobenius machinery, the four
solution families, and residual checkers that substitute each candidate back
into its nonlinear system and prove the result vanishes coefficient by
coefficient through a tracked order.
"""

from .algebra import (
    CC,
    QQ,
    QQI,
    Algebra,
    ComplexFloats,
    GaussianRationals,
    MatrixAlgebra,
    Rationals,
    SquareMatrix,
)
from .errors import (
    AlgebraMismatch,
    BNotInvolutive,
    ClosedFormMismatch,
    ConfigError,
    EvaluationSingularity,
    HypothesisViolated,
    NonInvertibleSolution,
    NoncommutingExponents,
    ShapeViolation,
    SingularCell,
    SingularConstantTerm,
    SingularMatrix,
    SingularSubmatrix,
    SingularWronskian,
    SolitonLabError,
    WindowTooSmall,
)
from .quasidet import (
    ConventionNote,
    FrobeniusCell,
    WronskiPair,
    bottom_row_conventions,
    frobenius_gamma,
    frobenius_quotient,
    frobenius_quotient_closed_form,
    quasideterminant,
    solution_entry_via_quasidet,
    wronski,
)
from .residual import (
    ResidualEntry,
    ResidualReport,
    check_data,
    check_langmuir,
    check_marchenko,
    check_marchenko_lattice,
    check_nls,
    check_toda,
    check_toda_gamma,
)
from .scalars import GaussianRational, parse_gaussian, parse_rational
from .series import (
    D_T,
    D_U,
    D_V,
    Derivation,
    SeriesAlgebra,
    TruncatedSeries,
    series_derive,
    series_equal,
    series_exp_linear,
    series_inverse,
)
from .solitons import (
    LangmuirParams,
    NlsParams,
    SineGordonParams,
    TodaParams,
    langmuir_build_f,
    langmuir_solution,
    nls_build_f,
    nls_scalar_closed_form,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_sine_gordon_params,
    random_toda_params,
    scalar_algebra,
    sine_gordon_solution,
    toda_build_f,
    toda_shift_data,
    toda_solution,
)

__version__ = "0.1.0"

"""Exception hierarchy for exact-algebra and pipeline failures."""


class SolitonLabError(Exception):
    """Base class for all package errors."""


class AlgebraMismatch(SolitonLabError):
    """Operands live in different algebras (or have incompatible shapes)."""


class SingularMatrix(SolitonLabError):
    """Matrix has no inverse over its algebra."""


class SingularSubmatrix(SingularMatrix):
    """The submatrix needed by a quasideterminant is not invertible."""


class SingularWronskian(SingularMatrix):
    """A Wronski matrix is not invertible as a series-valued matrix."""

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class SingularCell(SingularMatrix):
    """A Frobenius cell lacks the invertible corner entry needed for a quotient."""


class SingularConstantTerm(SingularMatrix):
    """Series inversion requires an invertible constant coefficient."""


class NoncommutingExponents(SolitonLabError):
    """exp of a linear form requires the two exponent coefficients to commute."""


class DerivationMismatch(SolitonLabError):
    """Derivation variable is absent from the series arity."""


class ClosedFormMismatch(SolitonLabError):
    """A closed-form expression disagrees with the pipeline result."""


class BNotInvolutive(SolitonLabError):
    """The grading element b must satisfy b*b = 1 exactly."""


class HypothesisViolated(SolitonLabError):
    """A linear hypothesis required by a lemma checker does not hold."""

    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which


class NonInvertibleSolution(SolitonLabError):
    """A candidate solution series has a non-invertible constant term."""

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class WindowTooSmall(SolitonLabError):
    """Not enough lattice sites to evaluate any interior residual."""


class EvaluationSingularity(SolitonLabError):
    """Numeric evaluation hit a pole or a vanishing denominator."""


class VerificationError(SolitonLabError):
    """An internal cross-check that should always hold failed (arithmetic bug)."""


class ConfigError(SolitonLabError):
    """Run configuration failed validation."""

"""Exception hierarchy for exact-algebra and pipeline failures, and the
plain base class of the package's record types."""


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
    """Parameters are singular: the solution or closed form has a pole at
    the origin, or a draw stayed singular after every resample."""


class VerificationError(SolitonLabError):
    """An internal cross-check that should always hold failed (arithmetic bug)."""


class ConfigError(SolitonLabError):
    """Run configuration failed validation."""


class Record:
    """Plain record class.  Its fields are the subclass's own annotations, in
    order; a field with a class attribute of the same name defaults to it.

    Construction takes the fields positionally or by keyword.  Two records
    are equal when they are of the same class with equal fields, ``repr``
    names every field, and records are unhashable (defining ``__eq__`` leaves
    ``__hash__`` None).  Nothing is generated or imported per class, so
    importing a module of records stays cheap.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments but {len(args)} were given"
            )
        for f, value in zip(fields, args):
            setattr(self, f, value)
        for f in fields[len(args):]:
            if f in kwargs:
                setattr(self, f, kwargs.pop(f))
            elif f in self._defaults:
                setattr(self, f, self._defaults[f])
            else:
                raise TypeError(f"{name}() missing required argument {f!r}")
        if kwargs:
            extra = next(iter(kwargs))
            raise TypeError(f"{name}() got an unexpected or repeated argument {extra!r}")

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

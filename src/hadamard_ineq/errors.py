"""Exception hierarchy.

``ValidationError`` marks bad inputs (CLI exit code 2), ``NumericalError``
marks failures of the numerics themselves (CLI exit code 1).  Divergence of
a supremum or an eigenvalue is *not* an error anywhere in this package: it
is a reported result.
"""


class HadamardIneqError(Exception):
    pass


class ValidationError(HadamardIneqError, ValueError):
    """A precondition on user-supplied parameters is violated."""


class NumericalError(HadamardIneqError, RuntimeError):
    """A computation could not be completed to the requested accuracy."""


class NonHadamardProfile(ValidationError):
    """Curvature law takes positive sectional values somewhere."""


class OutOfDomain(ValidationError):
    """Radius outside the model's sampled domain (0, Rmax]."""


class CurvatureNotVanishing(ValidationError):
    """Ricci curvature does not decay to zero at large radius."""


class FlatProfile(ValidationError):
    """Identically flat geometry: no finite curvature scale exists."""


class InvalidExponent(ValidationError):
    """Lebesgue exponent outside the admissible open interval."""


class BelowCriticalExponent(ValidationError):
    """Exponent below the threshold where the quasi-Euclidean bound starts."""


class DivergentPoint(ValidationError):
    """A regression input contains an infinite best-constant value."""


class ParameterOutOfRange(ValidationError):
    """Parameter outside the range required by an explicit formula."""


class InsufficientWindow(ValidationError):
    """Fit window shorter than the required number of decades."""


class GridTooCoarse(NumericalError):
    """Discretization error estimate exceeds tolerance."""


class TailUnclassifiable(NumericalError):
    """Large-radius behavior fits neither analytic tail family."""


class StabilityFailure(NumericalError):
    """Time stepping produced a negative state, or Newton did not converge or
    met a singular linear system."""

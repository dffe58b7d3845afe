"""Structured error types shared across the package."""


class RobustStabilityError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(RobustStabilityError):
    pass


class IndexMismatchError(RobustStabilityError):
    """Index-label sets of two systems differ (metric undefined)."""


class OriginNotInteriorError(RobustStabilityError):
    pass


class UnboundedPolarError(RobustStabilityError):
    """Origin within tolerance of the boundary; polar polytope unbounded."""


class IterationLimitError(RobustStabilityError):
    pass


class NumericalBreakdownError(RobustStabilityError):
    pass


class EmptyUncertaintySetError(RobustStabilityError):
    pass


class NuNotFiniteError(RobustStabilityError):
    pass


class SlaterFailedError(RobustStabilityError):
    pass


class NotSolvableError(RobustStabilityError):
    pass


class NotInteriorSolvableError(RobustStabilityError):
    pass


class EpsilonTooLargeError(RobustStabilityError):
    pass


class EtaTooLargeError(RobustStabilityError):
    pass


class HypothesisViolatedError(RobustStabilityError):
    """A theorem hypothesis failed; the message names the failing item."""


class ShapeMismatchError(RobustStabilityError):
    pass


class SchemaError(RobustStabilityError):
    """Problem/config file violates the expected JSON schema."""

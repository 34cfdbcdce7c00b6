"""Exception hierarchy shared across the toolkit."""

import numbers


class RvikitError(Exception):
    """Base class for all toolkit errors."""


class ContractViolation(RvikitError, ValueError):
    """A typed-geometry contract was broken.

    Raised when a point or tangent fails its representation invariant by
    more than the reprojection tolerance, or when an operation mixes
    tangents/points that do not share a base.
    """


class InjectivityError(RvikitError, RuntimeError):
    """An exp/log/transport request left the injectivity domain.

    Typical causes: a sphere exponential step of length >= pi, or the
    logarithm/transport between (numerically) antipodal sphere points.
    """


class DomainError(RvikitError, ValueError):
    """A scalar function of curvature was evaluated outside its domain."""


class AveragingError(RvikitError, RuntimeError):
    """Running geodesic average became undefined (e.g. antipodal update)."""


class CertificateError(RvikitError, AssertionError):
    """A checked algebraic certificate held its hypotheses but failed its
    conclusion beyond numerical tolerance."""


class SolverAbort(RvikitError, RuntimeError):
    """A solver run stopped early on a geometry failure.

    Non-finite numbers are such failures: Point/Tangent reject non-finite
    coordinates when built, and an overflowing norm or distance raises.
    Carries the partial trace when available.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConfigError(RvikitError, ValueError):
    """An experiment configuration failed validation."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ConfigError(message)


def is_strictly(value, kind) -> bool:
    """``isinstance(value, kind)``, except that a bool counts as no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def require_count(name: str, value, least: int = 1) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer >= ``least``."""
    require(is_strictly(value, numbers.Integral) and value >= least,
            f"{name} must be an integer >= {least}, got {value!r}")

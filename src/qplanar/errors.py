"""Exception types shared across the package."""


class QPlanarError(Exception):
    """Base class for all package errors."""


class ConfigError(QPlanarError):
    """Malformed or inconsistent stack configuration."""


class PassivityError(QPlanarError):
    """A material model violates Im eps >= 0."""


class FrequencyRangeError(ConfigError):
    """Frequency outside the validity range of a tabulated model."""


class SingularInterfaceError(QPlanarError):
    """Degenerate Fresnel denominator (beta_i + beta_j = 0 or epsilon-weighted analog)."""


class RegimeError(QPlanarError):
    """Operation requested in a kinematic regime where it is not defined."""


class AccuracyError(QPlanarError):
    """A quadrature or transform failed to reach the requested accuracy."""


class UsageError(QPlanarError):
    """Bad command-line arguments or units."""

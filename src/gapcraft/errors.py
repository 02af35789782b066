"""Exception types raised by gapcraft."""


class GapcraftError(Exception):
    """Base class for all gapcraft errors."""


class ConfigError(GapcraftError):
    """Invalid configuration (bad shares, timers, profiles, ...)."""


class ShareSumError(ConfigError):
    """Traffic-class shares do not sum to 1."""


class EmptyClassSet(ConfigError):
    """No traffic classes configured."""


class NonPositiveTimer(ConfigError):
    """A per-priority timer is zero or negative."""


class TimeRegression(GapcraftError):
    """An event time is not finite or precedes the state's last event time."""


class UnknownClass(GapcraftError):
    """Offer carries a class id outside the configured class set."""


class UnknownPriority(GapcraftError):
    """Offer carries a priority outside the configured priority set."""


class NonPositiveStep(GapcraftError):
    """Probe step must be positive."""


class AllZeroIntensity(ConfigError):
    """Intensity profile is identically zero (or zero on an unbounded tail)."""


class InvalidMix(ConfigError):
    """Priority mix probabilities are invalid."""


class NonMonotoneTimestamps(GapcraftError):
    """Stream timestamps are not strictly increasing."""


class ParseError(GapcraftError):
    """A stream or scenario file could not be parsed."""


class SchemaError(ConfigError):
    """Scenario file does not match the expected schema."""


class DomainError(GapcraftError):
    """Numeric argument outside the function's domain."""

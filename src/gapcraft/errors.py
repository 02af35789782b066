"""Exception types raised by gapcraft."""


class GapcraftError(Exception):
    """Base class for all gapcraft errors."""


class ConfigError(GapcraftError):
    """Invalid configuration (bad shares, timers, profiles, ...).

    ``param`` names the throttle parameter at fault for the errors a throttle
    constructor raises (shares, watermarks, timers, variant, kind); None for
    the others.
    """

    param: str | None = None


class ShareError(ConfigError):
    """Traffic-class shares are missing or not one per class."""

    param = "shares"


class ShareSumError(ShareError):
    """Traffic-class shares do not sum to 1."""


class EmptyClassSet(ShareError):
    """No traffic classes configured."""


class WatermarkError(ConfigError):
    """Per-priority watermarks are missing or empty, or one is not finite
    and >= 1."""

    param = "watermarks"


class TimerError(ConfigError):
    """Per-priority timers are missing, or not one per watermark."""

    param = "timers"


class NonPositiveTimer(TimerError):
    """Per-priority timers are empty, or one is zero, negative or not finite."""


class UnknownVariant(ConfigError):
    """A bound-rate variant other than G or GPrime."""

    param = "variant"


class UnknownKind(ConfigError):
    """A strategy kind that build_throttle does not know."""

    param = "kind"


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


class ParseError(GapcraftError):
    """A scenario file could not be parsed."""


class SchemaError(ConfigError):
    """Scenario file does not match the expected schema."""


class DomainError(GapcraftError):
    """Numeric argument outside the function's domain."""

"""Core domain vocabulary: offers, decisions, capacity signals, configuration.

Time points are plain non-negative floats (seconds). All types here are
immutable values and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    EmptyClassSet,
    NonPositiveTimer,
    ShareSumError,
)

SHARE_SUM_TOL = 1e-9


class Decision(enum.Enum):
    ADMIT = "admit"
    REJECT = "reject"


@dataclass(frozen=True, slots=True)
class Offer:
    """A single admission request: arrival time, traffic class, priority.

    Priority 0 is the HIGHEST priority.
    """

    arrival: float
    class_id: int = 0
    priority: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.arrival) and self.arrival >= 0.0):
            raise ConfigError(f"offer arrival must be finite and >= 0, got {self.arrival}")
        if self.class_id < 0:
            raise ConfigError(f"negative class id {self.class_id}")
        if self.priority < 0:
            raise ConfigError(f"negative priority {self.priority}")


@dataclass(frozen=True)
class CapacityProfile:
    """Piecewise-constant rate signal, right-continuous at breakpoints.

    ``segments`` is an ordered tuple of (start_seconds, rate) pairs; the
    first segment must start at 0 and the last one extends to +inf.
    """

    segments: tuple[tuple[float, float], ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple((float(t), float(r)) for t, r in self.segments)
        if not segs:
            raise ConfigError("capacity profile needs at least one segment")
        if segs[0][0] != 0.0:
            raise ConfigError("first capacity segment must start at t=0")
        for (t0, _), (t1, _) in zip(segs, segs[1:]):
            if t1 <= t0:
                raise ConfigError("capacity segment starts must be strictly increasing")
        for _, rate in segs:
            if not (math.isfinite(rate) and rate > 0.0):
                raise ConfigError(f"capacity rate must be positive and finite, got {rate}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", tuple(t for t, _ in segs))

    def rate_at(self, t: float) -> float:
        """Rate of the segment whose half-open interval [start, next) holds t."""
        if t < 0.0:
            raise ConfigError(f"capacity queried at negative time {t}")
        return self.segments[bisect_right(self._starts, t) - 1][1]

    @classmethod
    def constant(cls, rate: float) -> "CapacityProfile":
        return cls(((0.0, rate),))

    @classmethod
    def ramp(cls, start_rate: float, end_rate: float, duration: float,
             dt: float = 0.1) -> "CapacityProfile":
        """Approximate a linear ramp by short constant steps of length dt.

        After ``duration`` the profile stays at ``end_rate``.
        """
        if duration <= 0.0 or dt <= 0.0:
            raise ConfigError("ramp duration and step must be positive")
        n = max(1, int(math.ceil(duration / dt)))
        segs = []
        for k in range(n):
            t = k * dt
            mid = min(duration, t + dt / 2.0)
            rate = start_rate + (end_rate - start_rate) * mid / duration
            segs.append((t, rate))
        segs.append((n * dt, end_rate))
        return cls(tuple(segs))


@dataclass(frozen=True)
class ShareVector:
    """Agreed capacity fractions per traffic class; sums to 1.

    A single class may hold the full share (s == (1.0,)).
    """

    s: tuple[float, ...]

    def __post_init__(self):
        shares = tuple(float(x) for x in self.s)
        if not shares:
            raise EmptyClassSet("share vector is empty")
        for x in shares:
            if not (0.0 < x <= 1.0):
                raise ShareSumError(f"share {x} outside (0, 1]")
        if abs(sum(shares) - 1.0) > SHARE_SUM_TOL:
            raise ShareSumError(f"shares sum to {sum(shares)}, expected 1")
        object.__setattr__(self, "s", shares)

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, i: int) -> float:
        return self.s[i]


@dataclass(frozen=True)
class PriorityParams:
    """Per-priority watermarks W_j (tokens) and estimator timers T_j (seconds).

    Priority 0 is highest; conventionally W decreases and T increases with
    the priority index (larger watermark and faster forgetting favour the
    high priorities).
    """

    watermarks: tuple[float, ...]
    timers: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.watermarks)
        t = tuple(float(x) for x in self.timers)
        if not w or len(w) != len(t):
            raise ConfigError("watermarks and timers must be non-empty and equally long")
        for x in w:
            if not (math.isfinite(x) and x >= 1.0):
                raise ConfigError(f"watermark {x} must be >= 1")
        for x in t:
            if not (math.isfinite(x) and x > 0.0):
                raise NonPositiveTimer(f"timer {x} must be > 0")
        object.__setattr__(self, "watermarks", w)
        object.__setattr__(self, "timers", t)

    @classmethod
    def from_capacity(cls, watermarks, c: float) -> "PriorityParams":
        """Derive timers as T_j = W_j / c at configuration time."""
        if c <= 0.0:
            raise ConfigError("capacity must be positive")
        w = tuple(float(x) for x in watermarks)
        return cls(w, tuple(x / c for x in w))

    def __len__(self) -> int:
        return len(self.watermarks)

"""Core domain vocabulary: offers, decisions, capacity signals, configuration.

Time points are plain non-negative floats (seconds). All types here are
immutable values and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptyClassSet,
    NonPositiveTimer,
    ShareError,
    ShareSumError,
    TimerError,
    WatermarkError,
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
    first segment must start at 0 and the last one extends to +inf.  Only
    this class reads them: ``rate_at`` is the scalar lookup; ``segment_at``
    gives the throttles the whole segment, which they cache as a cursor;
    ``breakpoints``, ``rates`` and ``integral`` are the checkers' array forms.
    """

    segments: tuple[tuple[float, float], ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _spans: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False)
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)
    _rates: np.ndarray = field(init=False, repr=False, compare=False)
    _prefix: np.ndarray = field(init=False, repr=False, compare=False)

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
        table = np.array(segs)
        table.flags.writeable = False
        starts, rates = table.T
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", tuple(t for t, _ in segs))
        object.__setattr__(self, "_spans", tuple(
            (r, t0, t1) for (t0, r), t1 in zip(segs, self._starts[1:] + (math.inf,))))
        object.__setattr__(self, "breakpoints", starts)
        object.__setattr__(self, "_rates", rates)
        # integral of c from 0 to each segment start
        object.__setattr__(self, "_prefix", np.concatenate(
            ([0.0], np.cumsum(rates[:-1] * np.diff(starts)))))

    def segment_at(self, t: float) -> tuple[float, float, float]:
        """(rate, start, end) of the segment whose interval [start, end) holds t."""
        if t < 0.0:
            raise ConfigError(f"capacity queried at negative time {t}")
        return self._spans[bisect_right(self._starts, t) - 1]

    def rate_at(self, t: float) -> float:
        """Rate of the segment whose half-open interval [start, next) holds t."""
        return self.segment_at(t)[0]

    def rates(self, t: np.ndarray, left: bool = False) -> np.ndarray:
        """c(t) at each time of the array t >= 0, or with ``left`` the left
        limit c(t-), which differs only at a breakpoint (c(0-) is c(0))."""
        i = np.searchsorted(self.breakpoints, t, "left" if left else "right") - 1
        return self._rates[np.maximum(i, 0)]

    def integral(self, t: np.ndarray) -> np.ndarray:
        """The integral of c from 0 to t, at each time of the array t >= 0."""
        i = np.searchsorted(self.breakpoints, t, "right") - 1
        return self._prefix[i] + self._rates[i] * (t - self.breakpoints[i])

    @classmethod
    def constant(cls, rate: float) -> "CapacityProfile":
        return cls(((0.0, rate),))


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


def class_shares(shares, num_classes: int) -> tuple[float, ...]:
    """``shares`` as floats, checked as a ShareVector with one per class."""
    if shares is None:
        raise ShareError("shares are missing")
    checked = ShareVector(shares)
    if len(checked) != num_classes:
        raise ShareError(f"{len(checked)} shares for {num_classes} traffic classes")
    return checked.s


@dataclass(frozen=True)
class PriorityParams:
    """Per-priority watermarks W_j (tokens) and estimator timers T_j (seconds).

    Priority 0 is highest; a larger watermark and a longer timer (a smaller
    impulse 1/T) favour a priority, so conventionally both decrease with the
    priority index.  Either field may be None (absent); a given one is
    non-empty, and when both are given there is one timer per watermark.
    """

    watermarks: tuple[float, ...] | None = None
    timers: tuple[float, ...] | None = None

    def __post_init__(self):
        w = _per_priority(self.watermarks, WatermarkError, lambda x: x >= 1.0, ">= 1")
        t = _per_priority(self.timers, NonPositiveTimer, lambda x: x > 0.0, "> 0")
        if w is None and t is None:
            raise ConfigError("priority parameters need watermarks or timers")
        if w is not None and t is not None and len(w) != len(t):
            raise TimerError(f"{len(t)} timers for {len(w)} watermarks")
        object.__setattr__(self, "watermarks", w)
        object.__setattr__(self, "timers", t)

    def __len__(self) -> int:
        return len(self.watermarks if self.watermarks is not None else self.timers)


def _per_priority(values, error, valid, rule: str):
    """One PriorityParams field as floats, None if absent."""
    if values is None:
        return None
    out = tuple(float(x) for x in values)
    if not out or not all(math.isfinite(x) and valid(x) for x in out):
        raise error(f"{error.param} must be non-empty, each finite and {rule}, "
                    f"got {list(out)}")
    return out

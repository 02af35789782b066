"""Exponential-forgetting intensity estimator for marked point processes.

One estimator tracks one event rate (offers/sec). At every observed event
time the previous value decays by the forgetting factor max{0, 1 - dt/T}
and, if the event counts for this estimator (chi = 1), an impulse 1/T is
added:

    value' = chi/T + value * max(0, 1 - dt/T)

T is the forgetting horizon of the *current* event (it may differ event to
event when priorities carry different timers).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import DomainError, TimeRegression


def forgetting(dt: float, T: float) -> float:
    """The forgetting factor max{0, 1 - dt/T}; no argument checking (hot path)."""
    decay = 1.0 - dt / T
    return decay if decay > 0.0 else 0.0


def step(value: float, dt: float, chi: int, T: float) -> float:
    """One raw estimator transition; no argument checking (hot path)."""
    return chi / T + value * forgetting(dt, T)


@dataclass(frozen=True, slots=True)
class EstimatorState:
    """Estimator value (events/sec) and its clock."""

    value: float = 0.0
    last_time: float = 0.0


def estimator_peek(state: EstimatorState, t: float, chi: int, T: float) -> float:
    """Value the estimator would take at event time t, without committing."""
    if T <= 0.0:
        raise DomainError(f"timer must be positive, got {T}")
    dt = t - state.last_time
    if not 0.0 <= dt < inf:
        raise TimeRegression(f"event at {t} is not finite or precedes clock {state.last_time}")
    return step(state.value, dt, chi, T)


def estimator_update(state: EstimatorState, t: float, chi: int, T: float) -> EstimatorState:
    """Commit one event observation; returns the new state."""
    return EstimatorState(estimator_peek(state, t, chi, T), t)

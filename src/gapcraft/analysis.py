"""Requirement checkers and closed-form side computations.

Req-A: windowed admission rate stays bounded by capacity (statistical).
Req-B: post-rejection recovery times are ordered by priority.
Req-C: classes offering at or under their agreed share are never rejected.

Also hosts the Erlang-B blocking probability and the closed-form
arrival-sampling bias of the intensity estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .harness import StrategyResult
from .throttles import probe_recovery_times
from .traffic import IntensityProfile
from .types import CapacityProfile


@dataclass
class RequirementVerdict:
    requirement: str  # "A" | "B" | "C"
    passed: bool
    evidence: dict = field(default_factory=dict)


def _mean_capacity(capacity: CapacityProfile, t0: float, t1: float) -> float:
    """Time-average of the piecewise-constant capacity over [t0, t1)."""
    if t1 <= t0:
        return capacity.rate_at(t0)
    total = 0.0
    starts = [t for t, _ in capacity.segments]
    rates = [r for _, r in capacity.segments]
    for i, (seg_start, rate) in enumerate(zip(starts, rates)):
        seg_end = starts[i + 1] if i + 1 < len(starts) else math.inf
        lo = max(t0, seg_start)
        hi = min(t1, seg_end)
        if hi > lo:
            total += rate * (hi - lo)
    return total / (t1 - t0)


def check_req_a(result: StrategyResult, capacity: CapacityProfile,
                window: float = 10.0, tolerance: float = 0.05,
                steady_from: float | None = None) -> RequirementVerdict:
    """Pass iff every steady-state window's admission rate is <= c(1+tol).

    The transient start of a run is excluded: windows beginning before
    ``steady_from`` (default: half the run) are reported but not judged.
    """
    if window <= 0.0:
        raise DomainError("window must be positive")
    starts, agg, _ = result.windowed_rates(window)
    cut = steady_from if steady_from is not None else result.end_time / 2.0
    max_rate = 0.0
    max_t = 0.0
    violations = 0
    checked = 0
    steady_rates = []
    for t, rate in zip(starts, agg):
        if rate > max_rate:
            max_rate, max_t = rate, t
        if t < cut:
            continue
        checked += 1
        steady_rates.append(rate)
        limit = _mean_capacity(capacity, t, t + window) * (1.0 + tolerance)
        if rate > limit:
            violations += 1
    return RequirementVerdict(
        "A",
        passed=violations == 0,
        evidence={
            "max_windowed_rate": max_rate,
            "max_windowed_rate_time": max_t,
            "windows_checked": checked,
            "violations": violations,
            "steady_mean_rate": (sum(steady_rates) / len(steady_rates)
                                 if steady_rates else 0.0),
            "tolerance": tolerance,
            "window": window,
        },
    )


def check_req_b(throttle, t0: float, step: float = 0.25, horizon: float = 30.0,
                class_id: int = 0) -> RequirementVerdict:
    """Probe a post-rejection state: recovery must not get faster as the
    priority gets lower.

    The snapshot is cloned for every probe; the throttle is left untouched.
    Verdicts are theorem-backed for the token bucket and empirical for the
    estimator-based strategies.
    """
    times = probe_recovery_times(throttle, t0, step, horizon, class_id)
    ordered = True
    prev = -math.inf
    for j in range(throttle.num_priorities):
        t = times[j] if times[j] is not None else math.inf
        if t < prev:
            ordered = False
            break
        prev = t
    basis = "theorem" if getattr(throttle, "kind", "") == "token_bucket" else "empirical"
    return RequirementVerdict(
        "B",
        passed=ordered,
        evidence={"recovery_times": dict(times), "rejected_at": t0, "basis": basis},
    )


def survey_recovery(offers, throttle, step: float = 0.25, horizon: float = 30.0,
                    sample_every: int = 1, class_id: int = 0) -> list[RequirementVerdict]:
    """Run a stream, probing recovery ordering after sampled rejections."""
    verdicts = []
    n_rej = 0
    for offer in offers:
        if throttle.admit(offer.arrival, offer.class_id, offer.priority):
            continue
        n_rej += 1
        if (n_rej - 1) % sample_every:
            continue
        verdicts.append(check_req_b(throttle, offer.arrival, step, horizon, class_id))
    return verdicts


def check_req_c(result: StrategyResult, shares, capacity: CapacityProfile,
                profiles, window: float = 10.0) -> RequirementVerdict:
    """Count rejections of classes inside their protected windows.

    A window is protected for class i when the true offered intensity
    lambda_i(t) stays at or under s_i * c(t) throughout the window.  The
    requirement passes iff no protected-window rejection exists.
    """
    if window <= 0.0:
        raise DomainError("window must be positive")
    profiles = tuple(profiles)
    end = result.end_time
    n_win = max(1, int(math.ceil(end / window))) if end > 0 else 0
    protected = [_protected_windows(profiles[k], shares[k], capacity, window, n_win)
                 for k in range(len(profiles))]
    violations = [0] * len(profiles)
    if n_win:
        reject = ~result.decisions
        classes = result.class_id[reject]
        hit = np.array(protected)[classes, result.window_index(window, n_win)[reject]]
        violations = np.bincount(classes[hit], minlength=len(profiles)).tolist()
    total = sum(violations)
    return RequirementVerdict(
        "C",
        passed=total == 0,
        evidence={
            "violations_by_class": violations,
            "protected_windows_by_class": [sum(p) for p in protected],
            "window": window,
        },
    )


def _protected_windows(profile: IntensityProfile, share: float,
                       capacity: CapacityProfile, window: float, n_win: int):
    flags = []
    for i in range(n_win):
        t0, t1 = i * window, (i + 1) * window
        checkpoints = {t0, t1}
        checkpoints.update(t for t, _ in profile.knots if t0 < t < t1)
        checkpoints.update(t for t, _ in capacity.segments if t0 < t < t1)
        ok = all(float(profile.rate_at(t)) <= share * capacity.rate_at(t) + 1e-12
                 for t in sorted(checkpoints))
        flags.append(ok)
    return flags


def erlang_b(servers: int, load: float) -> float:
    """Blocking probability of an M/M/W/W loss system.

    Computed with the stable recurrence B_0 = 1,
    B_k = a B_{k-1} / (k + a B_{k-1}).
    """
    if servers < 0 or load < 0.0:
        raise DomainError("servers and load must be non-negative")
    b = 1.0
    for k in range(1, servers + 1):
        b = load * b / (k + load * b)
    return b


def estimator_bias(T: float, alpha: float) -> float:
    """Arrival-sampling bias of the decay estimator on Poisson(alpha) input.

    Sampling the estimator at arrivals, its stationary mean is
    1 / E[min(dt, T)]: the denominator groups the truncated-gap expectation
    weighted by the gap CDF, T*(1-F[T]) + E[dt | dt < T]*F[T], with
    exponential inter-arrivals F[T] = 1 - exp(-alpha T).  Returned is that
    mean minus alpha (always positive: the estimator overestimates).
    """
    if T <= 0.0 or alpha <= 0.0:
        raise DomainError("T and alpha must be positive")
    at = alpha * T
    f = -math.expm1(-at)  # F[T]
    tail = math.exp(-at)
    if f <= 0.0:
        raise DomainError("alpha*T too small to evaluate")
    e_cond = 1.0 / alpha - T * tail / f  # E[dt | dt < T]
    denom = T * tail + e_cond * f  # = E[min(dt, T)]
    return 1.0 / denom - alpha

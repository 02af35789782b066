"""Requirement checkers and closed-form side computations.

Req-A: windowed admission rate stays bounded by capacity (statistical).
Req-B: post-rejection recovery times are ordered by priority.
Req-C: classes offering at or under their agreed share are never rejected.

Req-A and Req-C use ``StrategyResult.window_grid`` and read c(t) only
through CapacityProfile: a window's mean capacity is one ``integral``
difference, and Req-C tests one grid of window edges, knots and breakpoints.

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

MAX_SERVERS = 10**7


@dataclass
class RequirementVerdict:
    requirement: str  # "A" | "B" | "C"
    passed: bool
    evidence: dict = field(default_factory=dict)


def check_req_a(result: StrategyResult, capacity: CapacityProfile,
                window: float = 10.0, tolerance: float = 0.05) -> RequirementVerdict:
    """Pass iff every steady-state window's admission rate is <= c(1+tol),
    with c the window's mean capacity.

    The transient start of a run is excluded: windows beginning before half
    the run are reported but not judged.
    """
    starts, agg, _ = result.windowed_rates(window)
    cut = result.end_time / 2.0
    edges = np.arange(len(starts) + 1) * window
    limits = np.diff(capacity.integral(edges)) / window * (1.0 + tolerance)
    steady = np.array(starts) >= cut
    violations = int(np.count_nonzero(steady & (np.array(agg) > limits)))
    steady_rates = [rate for rate, judged in zip(agg, steady) if judged]
    worst = int(np.argmax(agg))
    return RequirementVerdict(
        "A",
        passed=violations == 0,
        evidence={
            "max_windowed_rate": agg[worst],
            "max_windowed_rate_time": starts[worst],
            "windows_checked": len(steady_rates),
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
    n_win, index = result.window_grid(window)
    edges = np.arange(n_win + 1) * window
    # a run that ends at t = 0 spans no window, so it has none protected
    protected = np.array([_protected_windows(profile, share, capacity, edges) for profile, share
                          in zip(profiles, shares, strict=True)]) & (result.end_time > 0.0)
    reject = ~result.decisions
    classes = result.class_id[reject]
    hit = protected[classes, index[reject]]
    violations = np.bincount(classes[hit], minlength=len(protected)).tolist()
    return RequirementVerdict(
        "C",
        passed=sum(violations) == 0,
        evidence={
            "violations_by_class": violations,
            "protected_windows_by_class": protected.sum(axis=1).tolist(),
            "window": window,
        },
    )


def _protected_windows(profile: IntensityProfile, share: float,
                       capacity: CapacityProfile, edges: np.ndarray) -> np.ndarray:
    """Protected flags of the windows [t0, t1) between consecutive ``edges``.

    lambda is piecewise linear and c piecewise constant, so
    lambda <= share * c + 1e-12 holds throughout [t0, t1) iff it holds with
    c(p) at each grid point p (edge, knot or breakpoint) in [t0, t1) and
    with the left limit c(p-) at each p in (t0, t1].
    """
    points = np.concatenate(([t for t, _ in profile.knots], capacity.breakpoints))
    grid = np.sort(np.concatenate((edges, points[(points > 0.0) & (points < edges[-1])])))
    lam = profile.rate_at(grid)
    right, left = (np.concatenate(([0], np.cumsum(
        lam > share * capacity.rates(grid, limit) + 1e-12))) for limit in (False, True))
    # grid[lo[i]:lo[i + 1]] holds [t0, t1) of window i, grid[hi[i]:hi[i + 1]] (t0, t1]
    lo, hi = (np.searchsorted(grid, edges, side) for side in ("left", "right"))
    return (right[lo[1:]] == right[lo[:-1]]) & (left[hi[1:]] == left[hi[:-1]])


def erlang_b(servers: int, load: float) -> float:
    """Blocking probability of an M/M/W/W loss system.

    Computed with the stable recurrence B_0 = 1,
    B_k = a B_{k-1} / (k + a B_{k-1}), which stops once B_k reaches 0.0
    (it stays there).  More than MAX_SERVERS servers raise DomainError.
    """
    if servers < 0:
        raise DomainError(f"servers must be non-negative, got {servers}")
    if servers > MAX_SERVERS:
        raise DomainError(f"servers {servers} exceed the limit of {MAX_SERVERS}")
    if not 0.0 <= load < math.inf:
        raise DomainError(f"load must be finite and non-negative, got {load}")
    b = 1.0
    for k in range(1, servers + 1):
        b = load * b / (k + load * b)
        if b == 0.0:
            break
    return b


def estimator_bias(T: float, alpha: float) -> float:
    """Arrival-sampling bias of the decay estimator on Poisson(alpha) input.

    Sampling the estimator at arrivals, its stationary mean is
    1 / E[min(dt, T)]: the denominator groups the truncated-gap expectation
    weighted by the gap CDF, T*(1-F[T]) + E[dt | dt < T]*F[T], with
    exponential inter-arrivals F[T] = 1 - exp(-alpha T).  Returned is that
    mean minus alpha (always positive: the estimator overestimates).
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"timer T must be finite and positive, got {T}")
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    at = alpha * T
    f = -math.expm1(-at)  # F[T]
    tail = math.exp(-at)
    if f <= 0.0:
        raise DomainError("alpha*T too small to evaluate")
    e_cond = 1.0 / alpha - T * tail / f  # E[dt | dt < T]
    denom = T * tail + e_cond * f  # = E[min(dt, T)]
    if not 0.0 < denom < math.inf:
        raise DomainError(f"E[min(dt, T)] evaluates to {denom} at T={T}, alpha={alpha}")
    return 1.0 / denom - alpha

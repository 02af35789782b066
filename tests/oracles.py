"""Reference implementations that the tests compare the library against."""

from math import inf

from gapcraft.errors import TimeRegression, UnknownClass, UnknownPriority
from gapcraft.estimator import forgetting
from gapcraft.throttles import (
    _VERDICT,
    DecisionRecord,
    MixedGapper,
    RateGapper,
    TokenBucket,
    _time_error,
    compute_bound_rates,
    compute_used_capacity,
    drain,
)
from gapcraft.types import Offer


class TokenBucketRateModel:
    """Token bucket restated as a rate variable a_tilde with T = W/r.

    Defined for a constant token rate r; the decision sequence matches
    TokenBucket((W,), constant r) exactly, with b = a_tilde * T.  It has one
    priority and ignores the class and priority of an offer.
    """

    num_priorities = 1

    def __init__(self, rate: float, watermark: float):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self.r = float(rate)
        self.W = float(watermark)
        self.T = self.W / self.r
        self.a_tilde = 0.0
        self.last_time = 0.0

    def clone(self) -> "TokenBucketRateModel":
        other = TokenBucketRateModel.__new__(TokenBucketRateModel)
        other.r, other.W, other.T = self.r, self.W, self.T
        other.a_tilde = self.a_tilde
        other.last_time = self.last_time
        return other

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        dt = t - self.last_time
        if not 0.0 <= dt < inf:
            raise TimeRegression(
                f"offer at {t} is not finite or precedes last event {self.last_time}")
        T = self.T
        decayed = (T * self.a_tilde - dt * self.r) / T
        if decayed < 0.0:
            decayed = 0.0
        provisional = 1.0 / T + decayed
        admitted = provisional <= self.r
        self.a_tilde = provisional if admitted else decayed
        self.last_time = t
        return admitted


def mean_capacity(capacity, t0: float, t1: float) -> float:
    """Time-average of the piecewise-constant capacity over [t0, t1),
    summed segment by segment."""
    if t1 <= t0:
        return capacity.rate_at(t0)
    total = 0.0
    starts = [t for t, _ in capacity.segments]
    for i, (seg_start, rate) in enumerate(capacity.segments):
        seg_end = starts[i + 1] if i + 1 < len(starts) else inf
        lo = max(t0, seg_start)
        hi = min(t1, seg_end)
        if hi > lo:
            total += rate * (hi - lo)
    return total / (t1 - t0)


def protected_windows(profile, share: float, capacity, window: float, n_win: int):
    """Req-C's protected flag of each window [t0, t1), one window at a time:
    the class's intensity stays at or under share * c at the window's edges,
    knots and capacity breakpoints, taking c(p) at each such p < t1 and the
    left limit c(p-) at each p > t0."""
    def left_limit(t):
        return [rate for start, rate in capacity.segments if start < t][-1]

    flags = []
    for i in range(n_win):
        t0, t1 = i * window, (i + 1) * window
        checkpoints = {t0, t1}
        checkpoints.update(t for t, _ in profile.knots if t0 < t < t1)
        checkpoints.update(t for t, _ in capacity.segments if t0 < t < t1)
        ok = True
        for t in sorted(checkpoints):
            lam = float(profile.rate_at(t))
            if t < t1:
                ok &= lam <= share * capacity.rate_at(t) + 1e-12
            if t > t0:
                ok &= lam <= share * left_limit(t) + 1e-12
        flags.append(ok)
    return flags


class ReferenceTokenBucket(TokenBucket):
    """TokenBucket with the admit it had before the capacity cursor: c(last)
    by a fresh ``rate_at`` bisect at every decision."""

    @property
    def rate(self):
        return self.capacity

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        dt = t - self.last_time
        if not 0.0 <= dt < inf:
            raise _time_error(t, self.last_time)
        if not 0 <= priority < len(self.watermarks):
            raise UnknownPriority(f"priority {priority} not configured")
        rejected, provisional = drain(self.b, self.rate.rate_at(self.last_time), dt)
        admitted = provisional <= self.watermarks[priority]
        self.b = provisional if admitted else rejected
        self.last_time = t
        return admitted


class ReferenceRateGapper(RateGapper):
    """RateGapper with the admit and decide it had before the one-pass core:
    a decay loop, then the full ``compute_bound_rates`` vector, with c(t) and
    c(last) by fresh ``rate_at`` bisects.  ``normalize`` was a constructor
    parameter then; the throttles now fold it into the variant."""

    normalize = False

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        last = self.last_time
        dt = t - last
        if not 0.0 <= dt < inf:
            raise _time_error(t, last)
        if not 0 <= class_id < self.num_classes:
            raise UnknownClass(f"class {class_id} not configured")
        if not 0 <= priority < self.num_priorities:
            raise UnknownPriority(f"priority {priority} not configured")
        c = self.capacity.rate_at(t)
        watermarks = self.watermarks
        if watermarks is None:
            T = self.timers[priority]
            relax = 1.0
        else:
            w_j = watermarks[priority]
            T = self.timers[priority] if self.timers is not None else w_j / c
            rejected, provisional = drain(self.b, self.capacity.rate_at(last), dt)
            if provisional > self.w_max:
                provisional = self.w_max
            relax = provisional / w_j
        decay = forgetting(dt, T)
        impulse = 1.0 / T
        rho = self.rho
        a_hat = self.a_hat
        for i in range(self.num_classes):
            rho[i] *= decay
            a_hat[i] *= decay
        rho[class_id] += impulse
        alpha_k = a_hat[class_id] + impulse
        g = compute_bound_rates(rho, self.shares, c, self.variant, self.normalize)
        admitted = relax * alpha_k <= g[class_id]
        if admitted:
            a_hat[class_id] = alpha_k
        if watermarks is not None:
            self.b = provisional if admitted else rejected
        self.last_time = t
        self._terms = alpha_k, g, c
        return admitted

    def decide(self, offer: Offer) -> DecisionRecord:
        k = offer.class_id
        admitted = self.admit(offer.arrival, k, offer.priority)
        alpha_k, g, c = self._terms
        a_hat = tuple(self.a_hat)
        return DecisionRecord(
            offer, _VERDICT[admitted], b=self.b,
            u=compute_used_capacity(self.rho, self.shares, c)[0],
            rho_hat=tuple(self.rho), alpha_hat=a_hat[:k] + (alpha_k,) + a_hat[k + 1:],
            a_hat=a_hat, g=tuple(g))


class ReferenceMixedGapper(MixedGapper):
    """MixedGapper on the reference gapper core."""

    normalize = False
    admit = ReferenceRateGapper.admit
    decide = ReferenceRateGapper.decide

"""Reference implementations that the tests compare the library against."""

from math import inf

from gapcraft.errors import TimeRegression


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

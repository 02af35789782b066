"""The four queue-free admission strategies.

* TokenBucket          -- inverted-fill bucket with per-priority watermarks
* TokenBucketRateModel -- the bucket rewritten as a rate variable (b = a*T)
* RateGapper           -- rate-estimation gapping with class fairness
* MixedGapper          -- the RateGapper core plus the bucket relaxation: the
                          gapper test scaled by the relative fill of a bucket
                          that drains like TokenBucket's

All throttles expose the same stateful surface: ``decide(offer)`` returns a
DecisionRecord and commits the state change; ``admit(t, class_id, priority)``
is the record-free fast path; ``clone()`` copies the state for what-if
probing.

A DecisionRecord holds the ``offer``, the ``verdict`` and the state the
decision left behind: the bucket fill ``b``, the used capacity ``u``, and per
class the offered-rate estimates ``rho_hat``, the provisional admitted rates
``alpha_hat``, the admitted-rate estimates ``a_hat`` and the bound rates
``g``.  A field that does not apply to the strategy is None.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .errors import (
    NonPositiveStep,
    TimeRegression,
    UnknownClass,
    UnknownPriority,
)
from .estimator import forgetting
from .types import CapacityProfile, Decision, Offer

_DENOM_EPS = 1e-12
_VERDICT = (Decision.REJECT, Decision.ADMIT)  # indexed by the admit bool


class DecisionRecord(NamedTuple):
    """One decision and the throttle state it left; see the module docstring."""

    offer: Offer
    verdict: Decision
    b: float | None = None
    u: float | None = None
    rho_hat: tuple[float, ...] | None = None
    alpha_hat: tuple[float, ...] | None = None
    a_hat: tuple[float, ...] | None = None
    g: tuple[float, ...] | None = None


def _time_error(t: float, last: float) -> TimeRegression:
    return TimeRegression(f"offer at {t} is not finite or precedes last event {last}")


def drain(b: float, r: float, dt: float) -> tuple[float, float]:
    """One bucket step: (fill if the offer is rejected, fill if admitted).

    The fill b drains at rate r over dt, never below 0; an admitted offer
    adds 1 to the drained fill, and never leaves less than that 1.
    """
    drained = b - r * dt
    provisional = drained + 1.0
    return (drained if drained > 0.0 else 0.0,
            1.0 if provisional < 1.0 else provisional)


def compute_used_capacity(rho_hats, shares, c: float):
    """Capacity consumed by classes up to their agreed shares.

    Returns (u, u1, u2): u1 sums the offered-rate estimates of classes at or
    under their share, u2 sums the share allotments of over-share classes,
    u = u1 + u2.
    """
    u1 = 0.0
    u2 = 0.0
    for rho_i, s_i in zip(rho_hats, shares):
        sc = s_i * c
        if rho_i <= sc:
            u1 += rho_i
        else:
            u2 += sc
    return u1 + u2, u1, u2


def compute_bound_rates(rho_hats, shares, c: float, variant: str = "G",
                        normalize: bool = False):
    """Per-class admission ceilings g_i.

    Classes at or under their share are never capped below their offered
    rate (g_i = rho_hat_i); over-share classes receive their agreed share
    plus a proportional cut of the surplus capacity.  Variant "G" measures
    the surplus against the full used capacity u; variant "GPrime" against
    the under-share part u1 only (its sum is exported as a diagnostic, not
    guaranteed to equal c).  ``normalize`` rescales the over-share surplus
    so the total is exactly c; off by default.
    """
    if variant not in ("G", "GPrime"):
        raise ValueError(f"unknown bound-rate variant {variant!r}")
    n = len(rho_hats)
    u1 = 0.0
    u2 = 0.0
    rho = 0.0
    over = [False] * n
    for i in range(n):
        rho_i = rho_hats[i]
        rho += rho_i
        sc = shares[i] * c
        if rho_i <= sc:
            u1 += rho_i
        else:
            u2 += sc
            over[i] = True
    u_eff = u1 if variant == "GPrime" else u1 + u2
    denom = rho - u_eff
    frac = (c - u_eff) / denom if denom > _DENOM_EPS else 0.0
    g = [0.0] * n
    surplus_total = 0.0
    for i in range(n):
        if over[i]:
            extra = (rho_hats[i] - shares[i] * c) * frac
            surplus_total += extra
            g[i] = shares[i] * c + extra
        else:
            g[i] = rho_hats[i]
    if normalize and surplus_total > _DENOM_EPS:
        scale = (c - (u1 + u2)) / surplus_total
        for i in range(n):
            if over[i]:
                g[i] = shares[i] * c + (g[i] - shares[i] * c) * scale
    return g


class TokenBucket:
    """Inverted-fill token bucket with per-priority watermarks.

    The fill b rises by 1 per admitted offer and drains at the token rate
    r(t); an offer of priority j is admitted while the provisional fill
    stays at or under W_j.  The drain uses the rate observed at the previous
    event (r is piecewise-constant, so this only matters across breakpoints).
    """

    kind = "token_bucket"

    def __init__(self, watermarks, rate: CapacityProfile):
        self.watermarks = tuple(float(w) for w in watermarks)
        self.rate = rate
        self.b = 0.0
        self.last_time = 0.0

    @property
    def num_priorities(self) -> int:
        return len(self.watermarks)

    def clone(self) -> "TokenBucket":
        other = TokenBucket.__new__(TokenBucket)
        other.watermarks = self.watermarks
        other.rate = self.rate
        other.b = self.b
        other.last_time = self.last_time
        return other

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

    def decide(self, offer: Offer) -> DecisionRecord:
        admitted = self.admit(offer.arrival, offer.class_id, offer.priority)
        return DecisionRecord(offer, _VERDICT[admitted], b=self.b)


class TokenBucketRateModel:
    """Token bucket restated as a rate variable a_tilde with T = W/r.

    Defined for a constant token rate r; the decision sequence matches
    TokenBucket((W,), constant r) exactly, with b = a_tilde * T.  Its
    DecisionRecord carries the verdict only.
    """

    kind = "rate_model"

    def __init__(self, rate: float, watermark: float):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self.r = float(rate)
        self.W = float(watermark)
        self.T = self.W / self.r
        self.a_tilde = 0.0
        self.last_time = 0.0

    num_priorities = 1

    def clone(self) -> "TokenBucketRateModel":
        other = TokenBucketRateModel.__new__(TokenBucketRateModel)
        other.r, other.W, other.T = self.r, self.W, self.T
        other.a_tilde = self.a_tilde
        other.last_time = self.last_time
        return other

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        dt = t - self.last_time
        if not 0.0 <= dt < inf:
            raise _time_error(t, self.last_time)
        T = self.T
        decayed = (T * self.a_tilde - dt * self.r) / T
        if decayed < 0.0:
            decayed = 0.0
        provisional = 1.0 / T + decayed
        admitted = provisional <= self.r
        self.a_tilde = provisional if admitted else decayed
        self.last_time = t
        return admitted

    def decide(self, offer: Offer) -> DecisionRecord:
        admitted = self.admit(offer.arrival, offer.class_id, offer.priority)
        return DecisionRecord(offer, _VERDICT[admitted])


class RateGapper:
    """Rate-estimation call gapping with class fairness.

    Keeps one offered-rate estimate rho_hat_i and one admitted-rate estimate
    a_hat_i per class.  Every event decays all estimators with the timer T_j
    of the arriving offer's priority; only the offered class receives the
    impulse.  The offer is admitted iff the provisional admitted rate
    alpha_hat_k of its class stays within the class's bound rate g_k.
    Rejected offers still count as offered traffic (rho_hat keeps the
    impulse) but never raise any a_hat.  ``admit`` is the one decision core:
    MixedGapper sets ``watermarks`` to turn on its bucket relaxation there,
    and ``decide`` reports what ``admit`` decided.
    """

    kind = "rate_gapper"

    def __init__(self, num_classes: int, shares, timers,
                 capacity: CapacityProfile, variant: str = "G",
                 normalize: bool = False):
        self.num_classes = int(num_classes)
        self.shares = tuple(float(s) for s in shares)
        self.timers = tuple(float(x) for x in timers) if timers is not None else None
        self.capacity = capacity
        self.variant = variant
        self.normalize = normalize
        self.num_priorities = len(self.timers or ())
        self.watermarks = None
        self.b = None
        self.rho = [0.0] * self.num_classes
        self.a_hat = [0.0] * self.num_classes
        self.last_time = 0.0
        # alpha_hat_k, g and c of the last admit, for decide() to report;
        # admit() leaves them here so it stays a single call.
        self._terms = None

    def clone(self) -> "RateGapper":
        other = self.__class__.__new__(self.__class__)
        other.__dict__.update(self.__dict__)
        other.rho = list(self.rho)
        other.a_hat = list(self.a_hat)
        return other

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        last = self.last_time
        dt = t - last
        if not 0.0 <= dt < inf:
            raise _time_error(t, last)
        if not 0 <= class_id < self.num_classes:
            raise UnknownClass(f"class {class_id} not configured")
        if not 0 <= priority < self.num_priorities:
            raise UnknownPriority(f"priority {priority} not configured")
        watermarks = self.watermarks
        if watermarks is None:
            T = self.timers[priority]
            relax = 1.0
        else:
            w_j = watermarks[priority]
            T = self.timers[priority] if self.timers is not None else w_j / self.rate.rate_at(t)
            rejected, provisional = drain(self.b, self.rate.rate_at(last), dt)
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
        c = self.capacity.rate_at(t)
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


class MixedGapper(RateGapper):
    """Rate gapping with bucket-type aggregate characteristics.

    The RateGapper core with the bucket relaxation on: the admission test is
    (b/W_j) * alpha_hat_k <= g_k, with b the provisional fill of a bucket
    that drains like TokenBucket's.  The fill used in the test and committed
    on admission is clamped to W_max = max_j W_j.  Timers default to
    T_j = W_j / r(t); pass explicit timers to decouple them from the
    watermarks.
    """

    kind = "mixed"

    def __init__(self, num_classes: int, shares, watermarks,
                 capacity: CapacityProfile, rate: CapacityProfile | None = None,
                 timers=None, variant: str = "G", normalize: bool = False):
        super().__init__(num_classes, shares, timers, capacity, variant, normalize)
        self.watermarks = tuple(float(w) for w in watermarks)
        self.num_priorities = len(self.watermarks)
        self.w_max = max(self.watermarks)
        self.rate = rate if rate is not None else capacity
        self.b = 0.0


def probe_recovery_times(throttle, t0: float, step: float, horizon: float,
                         class_id: int = 0) -> dict[int, float | None]:
    """Earliest admit time per priority after a rejection at t0.

    Each probe clones the throttle and offers a single event at
    t0 + k*step, k = 1, 2, ...; the first admitted probe time is recorded,
    or None if nothing is admitted within the horizon.  The original state
    is never mutated.
    """
    if step <= 0.0:
        raise NonPositiveStep(f"probe step must be positive, got {step}")
    times: dict[int, float | None] = {}
    n_steps = int(horizon / step + 1e-9)
    for j in range(throttle.num_priorities):
        times[j] = None
        for k in range(1, n_steps + 1):
            t = t0 + k * step
            if throttle.clone().admit(t, class_id, j):
                times[j] = t
                break
    return times

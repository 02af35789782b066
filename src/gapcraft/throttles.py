"""The three queue-free admission strategies.

* TokenBucket -- inverted-fill bucket with per-priority watermarks
* RateGapper  -- rate-estimation gapping with class fairness
* MixedGapper -- the RateGapper core plus the bucket relaxation: the gapper
                 test scaled by the relative fill of a bucket that drains
                 like TokenBucket's

Each constructor is where its parameters are checked: watermarks and timers
as PriorityParams, shares as a ShareVector with one share per class, and the
bound-rate variant.  A refused parameter raises the ConfigError subclass
whose ``param`` names it.  The throttle keeps them as plain float tuples.

All throttles expose the same stateful surface: ``decide(offer)`` returns a
DecisionRecord and commits the state change; ``admit(t, class_id, priority)``
is the record-free fast path; ``clone()`` copies the state for what-if
probing.  The gappers' ``admit`` makes one pass over the classes and computes
the bound rate g_k of the offered class only; ``decide`` adds the full g
vector and u for the record.  Every throttle reads the capacity through a
cursor, the segment it last used, and looks a segment up again only when a
time falls outside it.

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
    DomainError,
    NonPositiveStep,
    TimeRegression,
    TimerError,
    UnknownClass,
    UnknownPriority,
    UnknownVariant,
    WatermarkError,
)
from .estimator import forgetting
from .types import CapacityProfile, Decision, Offer, PriorityParams, class_shares

_DENOM_EPS = 1e-12
_VERDICT = (Decision.REJECT, Decision.ADMIT)  # indexed by the admit bool
VARIANTS = ("G", "GPrime")
MAX_PROBES = 10**6


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
    guaranteed to equal c).  ``normalize`` makes the total c by computing
    variant G, whatever ``variant`` says; off by default.  This is the
    vector form that ``decide`` reports; ``RateGapper.admit`` computes the
    same g_k for the offered class alone, bit for bit.
    """
    if variant not in VARIANTS:
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
    u_eff = u1 if variant == "GPrime" and not normalize else u1 + u2
    denom = rho - u_eff
    frac = (c - u_eff) / denom if denom > _DENOM_EPS else 0.0
    g = [0.0] * n
    for i in range(n):
        if over[i]:
            g[i] = shares[i] * c + (rho_hats[i] - shares[i] * c) * frac
        else:
            g[i] = rho_hats[i]
    return g


class _CapacityCursor:
    """The capacity segment a throttle last read, cached with its rate.

    ``_capacity(x)`` returns c(x) of the throttle's ``capacity`` and looks
    the segment up again only when x falls outside the cached [start, end),
    which starts empty; any time, earlier or later, reads the right rate.
    ``clone`` copies the cursor with the rest of the state.
    """

    _c_start = _c_end = 0.0

    def _capacity(self, x: float) -> float:
        if not self._c_start <= x < self._c_end:
            self._c, self._c_start, self._c_end = self.capacity.segment_at(x)
        return self._c

    def clone(self):
        other = self.__class__.__new__(self.__class__)
        other.__dict__.update(self.__dict__)
        return other


class TokenBucket(_CapacityCursor):
    """Inverted-fill token bucket with per-priority watermarks.

    The fill b rises by 1 per admitted offer and drains at the token rate
    r(t); an offer of priority j is admitted while the provisional fill
    stays at or under W_j.  The drain uses the rate c(last) at the previous
    event, read through the capacity cursor (r is piecewise-constant, so
    this only matters across breakpoints).
    """

    kind = "token_bucket"

    def __init__(self, watermarks, rate: CapacityProfile):
        if watermarks is None:
            raise WatermarkError("token_bucket needs watermarks")
        self.watermarks = PriorityParams(watermarks).watermarks
        self.capacity = rate
        self.b = 0.0
        self.last_time = 0.0

    @property
    def num_priorities(self) -> int:
        return len(self.watermarks)

    def admit(self, t: float, class_id: int = 0, priority: int = 0) -> bool:
        last = self.last_time
        dt = t - last
        if not 0.0 <= dt < inf:
            raise _time_error(t, last)
        if not 0 <= priority < len(self.watermarks):
            raise UnknownPriority(f"priority {priority} not configured")
        rejected, provisional = drain(self.b, self._capacity(last), dt)
        admitted = provisional <= self.watermarks[priority]
        self.b = provisional if admitted else rejected
        self.last_time = t
        return admitted

    def decide(self, offer: Offer) -> DecisionRecord:
        admitted = self.admit(offer.arrival, offer.class_id, offer.priority)
        return DecisionRecord(offer, _VERDICT[admitted], b=self.b)


class RateGapper(_CapacityCursor):
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

    ``admit`` makes one pass over the classes: it decays the estimators and
    sums the terms of ``compute_bound_rates`` in that function's order, then
    computes g_k of the offered class alone, equal to
    ``compute_bound_rates(...)[k]`` bit for bit.  The variant is fixed at
    construction.
    """

    kind = "rate_gapper"

    def __init__(self, num_classes: int, shares, timers,
                 capacity: CapacityProfile, variant: str = "G"):
        if timers is None:
            raise TimerError("rate_gapper needs timers")
        self._configure(num_classes, shares, PriorityParams(timers=timers),
                        capacity, variant)
        self.b = None

    def _configure(self, num_classes: int, shares, params: PriorityParams,
                   capacity: CapacityProfile, variant: str):
        """Check the parameters both gappers share and set the zero state."""
        shares = class_shares(shares, num_classes)
        if variant not in VARIANTS:
            raise UnknownVariant(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.num_classes = int(num_classes)
        self.shares = shares
        self.timers = params.timers
        self.watermarks = params.watermarks
        self.capacity = capacity
        self.variant = variant
        self._gprime = variant == "GPrime"
        self.num_priorities = len(params)
        self.rho = [0.0] * self.num_classes
        self.a_hat = [0.0] * self.num_classes
        self.last_time = 0.0
        # alpha_hat_k and c of the last admit, for decide() to report;
        # admit() leaves them here so it stays a single call.
        self._terms = None

    def clone(self) -> "RateGapper":
        other = super().clone()
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
            c = self._capacity(t)
            T = self.timers[priority]
            relax = 1.0
        else:
            rejected, provisional = drain(self.b, self._capacity(last), dt)
            c = self._capacity(t)
            w_j = watermarks[priority]
            T = self.timers[priority] if self.timers is not None else w_j / c
            if provisional > self.w_max:
                provisional = self.w_max
            relax = provisional / w_j
        decay = forgetting(dt, T)
        impulse = 1.0 / T
        rho = self.rho
        a_hat = self.a_hat
        shares = self.shares
        # compute_bound_rates' sums, in its order, over the updated rho
        total = 0.0
        u1 = 0.0
        u2 = 0.0
        for i in range(self.num_classes):
            rho_i = rho[i] * decay
            if i == class_id:
                rho_i += impulse
            rho[i] = rho_i
            a_hat[i] *= decay
            total += rho_i
            sc = shares[i] * c
            if rho_i <= sc:
                u1 += rho_i
            else:
                u2 += sc
        rho_k = rho[class_id]
        sc_k = shares[class_id] * c
        if rho_k <= sc_k:
            g_k = rho_k
        else:
            u_eff = u1 if self._gprime else u1 + u2
            denom = total - u_eff
            frac = (c - u_eff) / denom if denom > _DENOM_EPS else 0.0
            g_k = sc_k + (rho_k - sc_k) * frac
        alpha_k = a_hat[class_id] + impulse
        admitted = relax * alpha_k <= g_k
        if admitted:
            a_hat[class_id] = alpha_k
        if watermarks is not None:
            self.b = provisional if admitted else rejected
        self.last_time = t
        self._terms = alpha_k, c
        return admitted

    def decide(self, offer: Offer) -> DecisionRecord:
        k = offer.class_id
        admitted = self.admit(offer.arrival, k, offer.priority)
        alpha_k, c = self._terms
        a_hat = tuple(self.a_hat)
        return DecisionRecord(
            offer, _VERDICT[admitted], b=self.b,
            u=compute_used_capacity(self.rho, self.shares, c)[0],
            rho_hat=tuple(self.rho), alpha_hat=a_hat[:k] + (alpha_k,) + a_hat[k + 1:],
            a_hat=a_hat, g=tuple(compute_bound_rates(self.rho, self.shares, c,
                                                     self.variant)))


class MixedGapper(RateGapper):
    """Rate gapping with bucket-type aggregate characteristics.

    The RateGapper core with the bucket relaxation on: the admission test is
    (b/W_j) * alpha_hat_k <= g_k, with b the provisional fill of a bucket
    that drains like TokenBucket's.  The fill used in the test and committed
    on admission is clamped to W_max = max_j W_j.  The bucket drains at the
    capacity c(last) of the previous event.  Timers default to
    T_j = W_j / c(t); pass explicit timers to decouple them from the
    watermarks.
    """

    kind = "mixed"

    def __init__(self, num_classes: int, shares, watermarks,
                 capacity: CapacityProfile, timers=None, variant: str = "G"):
        if watermarks is None:
            raise WatermarkError("mixed needs watermarks")
        self._configure(num_classes, shares, PriorityParams(watermarks, timers),
                        capacity, variant)
        self.w_max = max(self.watermarks)
        self.b = 0.0


def probe_recovery_times(throttle, t0: float, step: float, horizon: float,
                         class_id: int = 0) -> dict[int, float | None]:
    """Earliest admit time per priority after a rejection at t0.

    Each probe clones the throttle and offers a single event at
    t0 + k*step, k = 1, 2, ...; the first admitted probe time is recorded,
    or None if nothing is admitted within the horizon.  The original state
    is never mutated.  More than MAX_PROBES steps raise DomainError.
    """
    if step <= 0.0:
        raise NonPositiveStep(f"probe step must be positive, got {step}")
    n_steps = horizon / step + 1e-9
    if n_steps > MAX_PROBES:
        raise DomainError(f"{n_steps:.3g} probes of step {step} s over a horizon "
                          f"of {horizon} s exceed the limit of {MAX_PROBES}")
    times: dict[int, float | None] = {}
    for j in range(throttle.num_priorities):
        times[j] = None
        for k in range(1, int(n_steps) + 1):
            t = t0 + k * step
            if throttle.clone().admit(t, class_id, j):
                times[j] = t
                break
    return times

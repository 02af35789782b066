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
probing.  The gappers' ``admit`` makes one pass over the classes and
computes the bound rate g_k of the offered class only; ``decide`` takes u
from that pass's sums and adds the full g vector for the record.  Every
throttle reads the capacity through a cursor, the segment it last used, and
looks a segment up again only when a time falls outside it.

``admit_lanes(throttles, lanes)`` decides independent replications of
several throttles in lockstep, one numpy lane per (throttle, replication),
and returns one decision vector per pair, equal bit for bit to
``throttle.clone().admit`` offer by offer; the throttles are left unchanged.
One body serves every kind, as the mixed test (see ``_lane_params``).  What
does not depend on the state (dt, c(t), the drain, T_j, the forgetting
factor, 1/T_j) is computed per block of rows; only the state updates run
row by row, and numpy's elementwise arithmetic rounds as Python's floats
do.  Invalid input raises admit's error before any lane is decided.

A DecisionRecord holds the ``offer``, the ``verdict`` and the state the
decision left behind: the bucket fill ``b``, the used capacity ``u``, and per
class the offered-rate estimates ``rho_hat``, the provisional admitted rates
``alpha_hat``, the admitted-rate estimates ``a_hat`` and the bound rates
``g``.  A field that does not apply to the strategy is None.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
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
# rows x lanes that admit_lanes precomputes at once: the state-free block
# arrays add to the peak memory, so wider lanes get fewer rows per block
LANE_CELLS = 6400


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


class _Lanes:
    """Lanes decided in lockstep: column s*R + r holds throttle s on lane r
    of R, and row i of a block holds offer i of every lane.

    The constructor checks every (throttle, lane) pair, in that order, with
    ``_refuse``.  ``blocks`` yields LANE_CELLS // width rows at a time (at
    least 1) as (rows, width) arrays: the times, the previous times, the
    classes, the priorities, and the rows of the decision matrix to fill.
    A lane past its last offer repeats its last time (dt = 0; an empty lane
    the latest ``last_time``) with class and priority 0; ``split`` discards
    those rows.
    """

    def __init__(self, throttles, lanes):
        self.columns = [(np.asarray(t, dtype=np.float64), np.asarray(k, dtype=np.intp),
                         np.asarray(j, dtype=np.intp)) for t, k, j in lanes]
        for throttle in throttles:
            for lane in self.columns:
                _refuse(throttle, *lane)
        self.copies = len(throttles)
        self.last = np.repeat([throttle.last_time for throttle in throttles], len(lanes))
        lengths = [len(t) for t, _, _ in self.columns]
        self.shortest = min(lengths, default=0)
        self.decisions = np.empty((len(self.last), max(lengths, default=0)), dtype=bool)

    def blocks(self):
        """(t, prev, k, j, out) per block of rows; see the class docstring."""
        prev_row = self.last
        width, rows = self.decisions.shape
        step = max(1, LANE_CELLS // max(1, width))
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            t, k, j = (np.tile(self._rows(c, start, stop), self.copies) for c in range(3))
            prev = np.vstack((prev_row, t[:-1]))
            prev_row = t[-1]
            yield t, prev, k, j, self.decisions[:, start:stop].T

    def _rows(self, c: int, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of column c of every lane, as (rows, lanes)."""
        parts = [col[c][start:stop] for col in self.columns]
        if stop > self.shortest:
            fills = [(t[-1] if len(t) else self.last.max(), 0, 0)[c] for t, _, _ in self.columns]
            parts = [np.concatenate((part, np.full(stop - start - len(part), fill, part.dtype)))
                     for part, fill in zip(parts, fills)]
        # np.array of the parts, transposed (a view), is faster than np.stack
        return np.array(parts).T

    def split(self) -> list[list[np.ndarray]]:
        R = len(self.columns)
        return [[self.decisions[s * R + r, :len(t)] for r, (t, _, _) in enumerate(self.columns)]
                for s in range(self.copies)]


def _refuse(throttle, t: np.ndarray, k: np.ndarray, j: np.ndarray) -> None:
    """Raise what ``admit`` raises on the first offer of the lane it refuses:
    a time that is not finite or precedes the one before (``last_time`` for
    the first), then a class outside the throttle's (a token bucket has
    none), then a priority outside its own; or, for a valid first offer, a
    capacity read before time 0: c(last_time) with a bucket, else c(t)."""
    last = throttle.last_time
    num_classes = getattr(throttle, "num_classes", None)
    dt = np.diff(t, prepend=last)
    bad_t = ~((dt >= 0.0) & (dt < inf))
    bad_k = (np.zeros(len(k), dtype=bool) if num_classes is None
             else (k < 0) | (k >= num_classes))
    bad_j = (j < 0) | (j >= throttle.num_priorities)
    bad = bad_t | bad_k | bad_j
    if len(t) and not bad[0]:
        throttle.capacity.segment_at(last if throttle.b is not None else float(t[0]))
    if bad.any():
        i = int(bad.argmax())
        if bad_t[i]:
            raise _time_error(float(t[i]), float(t[i - 1]) if i else last)
        if bad_k[i]:
            raise UnknownClass(f"class {int(k[i])} not configured")
        raise UnknownPriority(f"priority {int(j[i])} not configured")


def _class_sum(x: np.ndarray) -> np.ndarray:
    """Each lane's sum over the classes (axis 1), added in class order as
    admit's loop adds them: add.accumulate is sequential, add.reduce is not."""
    return x[:, 0] if x.shape[1] == 1 else np.add.accumulate(x, axis=1)[:, -1]


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
    construction.  ``decide`` reports the used capacity u = u1 + u2 of
    those sums (under-share estimates plus over-share allotments s_i*c).
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
        # alpha_hat_k, c, u1 and u2 of the last admit, for decide() to
        # report; admit() leaves them here so it stays a single call.
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
        self._terms = alpha_k, c, u1, u2
        return admitted

    def decide(self, offer: Offer) -> DecisionRecord:
        k = offer.class_id
        admitted = self.admit(offer.arrival, k, offer.priority)
        alpha_k, c, u1, u2 = self._terms
        a_hat = tuple(self.a_hat)
        return DecisionRecord(
            offer, _VERDICT[admitted], b=self.b, u=u1 + u2,
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


def _lane_params(throttle, n: int, m: int) -> tuple:
    """A throttle as a mixed lane, padded to n classes (share and estimates
    0.0) and m priorities (1.0): its shares, timers, watermarks, rho_hat,
    a_hat, W_max, u2 weight, whether T_j = W_j/c(t), whether it is a token
    bucket, and its fill b.  A rate gapper is the mixed test with W_j and
    W_max 1: its provisional fill is clamped to 1, so its relaxation is 1.0
    and 1.0*alpha_hat_k is exact.  GPrime weights u2 by 0.0 (u1 + 0.0 is
    u1), G by 1.0.  A token bucket is a one-class lane with W_max = inf,
    tested b' <= W_j; its estimates, on timers of 1.0, are never read."""
    def pad(values, size, fill=1.0):
        return (*values, *(fill,) * (size - len(values)))
    if isinstance(throttle, TokenBucket):
        return (pad((1.0,), n, 0.0), pad((), m), pad(throttle.watermarks, m),
                pad((), n, 0.0), pad((), n, 0.0), inf, 1.0, False, True, throttle.b)
    mixed = throttle.watermarks is not None
    return (pad(throttle.shares, n, 0.0), pad(throttle.timers or (), m),
            pad(throttle.watermarks or (), m), pad(throttle.rho, n, 0.0),
            pad(throttle.a_hat, n, 0.0), throttle.w_max if mixed else 1.0,
            0.0 if throttle._gprime else 1.0, mixed and throttle.timers is None,
            False, throttle.b if mixed else 0.0)


def admit_lanes(throttles, lanes) -> list[list[np.ndarray]]:
    """``admit`` of one or more throttles, which share one capacity profile,
    over independent lanes in lockstep: one decision vector per (throttle,
    lane); see the module docstring.  Per row run the estimators, their sums
    in admit's order and the fill, one (lanes, classes) array each."""
    if not throttles:
        raise ConfigError("admit_lanes needs at least one throttle, got an empty list")
    capacity = throttles[0].capacity
    if any(throttle.capacity != capacity for throttle in throttles):
        raise ConfigError("throttles decided in lanes must share one capacity profile")
    run = _Lanes(throttles, lanes)
    n = max(getattr(throttle, "num_classes", 1) for throttle in throttles)
    m = max(throttle.num_priorities for throttle in throttles)
    (shares, timers, watermarks, rho, a_hat, w_max, u2_weight, coupled, bucket, b) = (
        np.repeat(np.array(x), len(run.columns), axis=0)
        for x in zip(*(_lane_params(throttle, n, m) for throttle in throttles)))
    width = len(run.last)
    classes = np.arange(n)
    class_base = np.arange(width) * n  # lane offsets in rho.ravel() and shares.ravel()
    priority_base = np.arange(width) * m
    for t, prev, k, j, out in run.blocks():
        c = capacity.rates(t)
        dt = t - prev
        k = np.where(bucket, 0, k)  # admit ignores a bucket's class
        at_k = k + class_base
        at_j = j + priority_base
        w_j = watermarks.take(at_j)
        T = np.where(coupled, w_j / c, timers.take(at_j))
        decay = 1.0 - dt / T
        decay = np.where(decay > 0.0, decay, 0.0)[..., None]
        impulse = 1.0 / T
        kicks = np.where(k[..., None] == classes, impulse[..., None], 0.0)
        allot = shares * c[..., None]
        allot_k = shares.take(at_k) * c
        drains = capacity.rates(prev) * dt
        for i, admitted in enumerate(out):
            rho = rho * decay[i] + kicks[i]
            a_dec = a_hat * decay[i]
            allot_i = allot[i]
            # the sums of admit's loop: a term it skips is a 0.0 here
            total = _class_sum(rho)
            u_eff = (_class_sum(rho * (rho <= allot_i))
                     + _class_sum(allot_i * (rho > allot_i)) * u2_weight)
            denom = total - u_eff
            frac = np.divide(c[i] - u_eff, denom, out=np.zeros(width),
                             where=denom > _DENOM_EPS)
            rho_k = rho.take(at_k[i])
            sc_k = allot_k[i]
            g_k = np.where(rho_k <= sc_k, rho_k, sc_k + (rho_k - sc_k) * frac)
            alpha_k = a_dec.take(at_k[i]) + impulse[i]
            # drain() with maxima: a fill of -0.0 where drain gives 0.0 acts alike
            drained = b - drains[i]
            rejected = np.maximum(drained, 0.0)
            provisional = np.minimum(np.maximum(drained + 1.0, 1.0), w_max)
            np.less_equal(provisional / w_j[i] * alpha_k, g_k, out=admitted)
            np.less_equal(provisional, w_j[i], out=admitted, where=bucket)  # a bucket's test
            b = np.where(admitted, provisional, rejected)
            a_hat = a_dec + kicks[i] * admitted[:, None]
    return run.split()


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

"""Seedable marked-Poisson offer streams.

Arrivals follow a non-homogeneous Poisson process whose aggregate intensity
is the sum of per-class piecewise-linear profiles; events are generated by
Lewis-Shedler thinning with an exact per-segment majorant, then assigned a
class proportionally to the class intensities at the event time and an
independent priority drawn from the configured mix.

Randomness comes from numpy's counter-based Philox generator keyed with
(seed, replication_index), so replication substreams are disjoint by
construction and batches are order-independent.

``stream_columns`` is the generator: it returns one replication as three
arrays (arrival times, class ids, priorities), which is what the harness
decides on.  ``generate_stream`` builds validated ``Offer`` objects from
those columns for callers that want them one by one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroIntensity,
    ConfigError,
    DomainError,
    InvalidMix,
    NonMonotoneTimestamps,
    ParseError,
)
from .types import Offer

_CHUNK = 4096
_MIX_TOL = 1e-9


@dataclass(frozen=True)
class IntensityProfile:
    """Piecewise-linear intensity per class: ordered (time, rate) knots.

    The first knot's rate extends back to t=0 and the last one forward to
    +inf.  A single knot means a constant rate.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ks = tuple((float(t), float(r)) for t, r in self.knots)
        if not ks:
            raise ConfigError("intensity profile needs at least one knot")
        for (t0, _), (t1, _) in zip(ks, ks[1:]):
            if t1 <= t0:
                raise ConfigError("intensity knots must be strictly time-ordered")
        for _, r in ks:
            if not (math.isfinite(r) and r >= 0.0):
                raise ConfigError(f"intensity rate must be finite and >= 0, got {r}")
        object.__setattr__(self, "knots", ks)

    def rate_at(self, t):
        """Intensity at time t; accepts scalars or numpy arrays."""
        times = np.array([k[0] for k in self.knots])
        rates = np.array([k[1] for k in self.knots])
        return np.interp(t, times, rates)

    @classmethod
    def constant(cls, rate: float) -> "IntensityProfile":
        return cls(((0.0, rate),))


@dataclass(frozen=True)
class PriorityMix:
    """Independent priority probabilities p_j, summing to 1."""

    p: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(x) for x in self.p)
        if not probs:
            raise InvalidMix("priority mix is empty")
        for x in probs:
            if not (0.0 <= x <= 1.0):
                raise InvalidMix(f"mix probability {x} outside [0, 1]")
        if abs(sum(probs) - 1.0) > _MIX_TOL:
            raise InvalidMix(f"mix probabilities sum to {sum(probs)}, expected 1")
        object.__setattr__(self, "p", probs)

    def __len__(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class StreamSpec:
    """Declarative description of one offer stream.

    Exactly one of ``duration`` (seconds) or ``count`` (total offers) stops
    the stream.
    """

    profiles: tuple[IntensityProfile, ...]
    mix: PriorityMix
    seed: int = 0
    duration: float | None = None
    count: int | None = None

    def __post_init__(self):
        if not self.profiles:
            raise ConfigError("need at least one class intensity profile")
        if (self.duration is None) == (self.count is None):
            raise ConfigError("specify exactly one of duration or count")
        if self.duration is not None and self.duration <= 0.0:
            raise ConfigError("duration must be positive")
        if self.count is not None and self.count <= 0:
            raise ConfigError("offer count must be positive")
        object.__setattr__(self, "profiles", tuple(self.profiles))

    @property
    def num_classes(self) -> int:
        return len(self.profiles)

    @property
    def num_priorities(self) -> int:
        return len(self.mix)


def _rng_for(seed: int, replication: int) -> np.random.Generator:
    if not 0 <= replication < 2**64:
        raise DomainError(f"replication must be in [0, 2**64), got {replication}")
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), replication]))


def _segment_bounds(spec: StreamSpec) -> list[float]:
    """Merged knot times of all class profiles, starting at 0."""
    bounds = {0.0}
    for prof in spec.profiles:
        for t, _ in prof.knots:
            if t > 0.0:
                bounds.add(t)
    if spec.duration is not None:
        bounds.add(spec.duration)
    return sorted(b for b in bounds if spec.duration is None or b <= spec.duration)


def stream_columns(spec: StreamSpec, replication: int = 0
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate one strictly time-ordered offer stream as columns.

    Returns (arrival float64, class id intp, priority intp) arrays of equal
    length.  Identical (spec, replication) pairs yield identical columns.
    """
    rng = _rng_for(spec.seed, replication)
    profiles = spec.profiles
    if all(r == 0.0 for prof in profiles for _, r in prof.knots):
        raise AllZeroIntensity("aggregate intensity is identically zero")

    def total_rate(ts):
        acc = profiles[0].rate_at(ts)
        for prof in profiles[1:]:
            acc = acc + prof.rate_at(ts)
        return acc

    bounds = _segment_bounds(spec)
    # Segment list: (start, end) pairs, final segment open-ended.
    segments = list(zip(bounds, bounds[1:]))
    if spec.duration is None:
        segments.append((bounds[-1], math.inf))
    elif not segments:
        segments = [(0.0, spec.duration)]

    target = spec.count if spec.count is not None else None
    times: list[np.ndarray] = []
    classes: list[np.ndarray] = []
    n_have = 0

    for start, end in segments:
        if target is not None and n_have >= target:
            break
        hi = min(end, start + 1e9) if math.isinf(end) else end
        majorant = float(max(total_rate(start), total_rate(hi)))
        if majorant <= 0.0:
            if math.isinf(end):
                raise AllZeroIntensity(
                    "intensity is zero on the unbounded tail before the "
                    "requested offer count was reached")
            continue
        t = start
        while t < end:
            gaps = rng.exponential(1.0 / majorant, size=_CHUNK)
            cand = t + np.cumsum(gaps)
            inside = cand[cand < end]
            accept_u = rng.random(inside.size)
            lam = total_rate(inside)
            keep = inside[accept_u * majorant < lam]
            if keep.size:
                lam_keep = total_rate(keep)
                # class proportional to per-class intensity at the event time
                cum = np.cumsum(
                    np.stack([p.rate_at(keep) for p in profiles], axis=1), axis=1)
                u_cls = rng.random(keep.size) * lam_keep
                cls = (u_cls[:, None] >= cum).sum(axis=1)
                times.append(keep)
                classes.append(cls)
                n_have += keep.size
            if inside.size < cand.size:
                break  # crossed the segment end
            t = float(cand[-1])
            if target is not None and n_have >= target:
                break

    t_all = np.concatenate(times) if times else np.empty(0)
    c_all = np.concatenate(classes) if classes else np.empty(0, dtype=np.intp)
    if target is not None:
        t_all = t_all[:target]
        c_all = c_all[:target]
    # drop the measure-zero duplicate timestamps so streams are strictly ordered
    if t_all.size:
        keep = np.concatenate(([True], np.diff(t_all) > 0.0))
        t_all = t_all[keep]
        c_all = c_all[keep]

    mix_cum = np.cumsum(spec.mix.p)
    prios = np.searchsorted(mix_cum, rng.random(t_all.size), side="right")
    prios = np.minimum(prios, len(spec.mix) - 1)
    return t_all, c_all.astype(np.intp, copy=False), prios.astype(np.intp, copy=False)


def generate_stream(spec: StreamSpec, replication: int = 0) -> list[Offer]:
    """The stream of ``stream_columns(spec, replication)`` as Offer objects."""
    return [Offer(t, k, j)
            for t, k, j in zip(*(col.tolist() for col in stream_columns(spec, replication)))]


def stream_to_file(offers, path) -> None:
    """Write offers as CSV (header t,class,priority; lossless timestamps)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "class", "priority"])
        writer.writerows((o.arrival, o.class_id, o.priority) for o in offers)


def stream_from_file(path) -> list[Offer]:
    """Read a stream CSV back; rejects non-increasing timestamps."""
    offers: list[Offer] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip() for h in header] != ["t", "class", "priority"]:
            raise ParseError(f"unexpected stream header {header!r} in {path}")
        last = -math.inf
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t, k, j = float(row[0]), int(row[1]), int(row[2])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: bad stream row {row!r}") from exc
            if t <= last:
                raise NonMonotoneTimestamps(
                    f"{path}:{lineno}: timestamp {t} does not increase past {last}")
            last = t
            offers.append(Offer(t, k, j))
    return offers

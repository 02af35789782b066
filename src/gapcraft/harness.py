"""Runs offer streams through throttles and aggregates replication batches.

Every strategy in a scenario consumes the identical offer stream for a given
replication; replication r always uses RNG substream r, so batches are
deterministic and schedule-independent.  ``run_replications`` is the one
replication loop: ``run_batch`` summarizes its list, and the CLI's
``simulate`` and ``check`` use the list itself.  Set GAPCRAFT_THREADS (or
pass ``workers``) to fan replications out over processes.

A replication is columnar from stream to result: ``run_once`` takes the
stream as arrays from ``traffic.stream_columns``, calls each throttle's
``admit`` over them into one boolean decision vector per strategy, and every
count in a ``StrategyResult`` is a bincount over that vector.  Offer objects
are built only for a traced run, whose records hold them; ``run_stream``
accepts an Offer list and feeds the same core.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError, DomainError, UnknownClass, UnknownKind, UnknownPriority
from .throttles import DecisionRecord, MixedGapper, RateGapper, TokenBucket
from .traffic import StreamSpec, stream_columns
from .types import CapacityProfile, Decision, Offer

DEFAULT_WINDOW = 10.0
MAX_WINDOWS = 10**6


@dataclass(frozen=True)
class StrategyConfig:
    """Named strategy block of a scenario.

    A field the kind does not use is ignored; the throttle constructor
    checks the ones it uses.
    """

    name: str
    kind: str  # token_bucket | rate_gapper | mixed
    watermarks: tuple[float, ...] | None = None
    timers: tuple[float, ...] | None = None
    shares: tuple[float, ...] | None = None
    variant: str = "G"
    normalize: bool = False


@dataclass(frozen=True)
class Scenario:
    stream_spec: StreamSpec
    capacity: CapacityProfile
    strategies: tuple[StrategyConfig, ...]
    replications: int = 1
    trace: bool = False
    window: float = DEFAULT_WINDOW

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("scenario needs at least one strategy")
        if self.replications < 1:
            raise ConfigError("replication count must be >= 1")
        names = [s.name for s in self.strategies]
        if len(set(names)) != len(names):
            raise ConfigError("strategy names must be unique")


def build_throttle(cfg: StrategyConfig, scenario: Scenario):
    """Construct a fresh throttle instance for one replication."""
    capacity = scenario.capacity
    num_classes = scenario.stream_spec.num_classes
    variant = "G" if cfg.normalize else cfg.variant
    if cfg.kind == "token_bucket":
        return TokenBucket(cfg.watermarks, capacity)
    if cfg.kind == "rate_gapper":
        return RateGapper(num_classes, cfg.shares, cfg.timers, capacity,
                          variant=variant)
    if cfg.kind == "mixed":
        return MixedGapper(num_classes, cfg.shares, cfg.watermarks, capacity,
                           timers=cfg.timers, variant=variant)
    raise UnknownKind(f"{cfg.name}: unknown strategy kind {cfg.kind!r}")


@dataclass(eq=False)
class StrategyResult:
    """Per-strategy outcome of one replication.

    Holds the replication's stream as columns -- ``arrival``, ``class_id``
    and ``priority`` arrays, shared by every strategy of the replication --
    and the strategy's decision vector ``decisions`` (True = admitted).  The
    counts are computed from them at construction, as Python ints;
    ``admit_times_by_class`` and ``reject_events`` are built from them on
    request.
    """

    name: str
    num_classes: int
    num_priorities: int
    arrival: np.ndarray
    class_id: np.ndarray
    priority: np.ndarray
    decisions: np.ndarray
    trace: list[DecisionRecord] | None = None
    admitted: int = field(init=False)
    rejected: int = field(init=False)
    admit_by_class: list[int] = field(init=False)
    reject_by_class: list[int] = field(init=False)
    admit_by_priority: list[int] = field(init=False)
    reject_by_priority: list[int] = field(init=False)
    end_time: float = field(init=False)

    def __post_init__(self):
        admit = self.decisions
        reject = ~admit
        self.admitted = int(np.count_nonzero(admit))
        self.rejected = len(admit) - self.admitted
        self.admit_by_class, self.reject_by_class = (
            _bincount(self.class_id[m], self.num_classes, UnknownClass, "class")
            for m in (admit, reject))
        self.admit_by_priority, self.reject_by_priority = (
            _bincount(self.priority[m], self.num_priorities, UnknownPriority, "priority")
            for m in (admit, reject))
        self.end_time = float(self.arrival[-1]) if len(self.arrival) else 0.0

    @property
    def total(self) -> int:
        return self.admitted + self.rejected

    @property
    def admit_times_by_class(self) -> list[list[float]]:
        """Arrival times of the admitted offers, one list per class."""
        times = self.arrival[self.decisions]
        classes = self.class_id[self.decisions]
        return [times[classes == k].tolist() for k in range(self.num_classes)]

    @property
    def reject_events(self) -> list[tuple[float, int, int]]:
        """(arrival, class id, priority) of every rejected offer, in order."""
        reject = ~self.decisions
        return list(zip(self.arrival[reject].tolist(), self.class_id[reject].tolist(),
                        self.priority[reject].tolist()))

    def reject_shares_by_priority(self) -> list[float]:
        """Fraction of all rejections per priority; NaN when none occurred."""
        if self.rejected == 0:
            return [math.nan] * self.num_priorities
        return [n / self.rejected for n in self.reject_by_priority]

    def window_grid(self, window: float) -> tuple[int, np.ndarray]:
        """(n_win, index): the count of windows up to ``end_time`` (at least 1)
        and each offer's window, ``int(t / window)`` capped at ``n_win - 1``.
        A window <= 0 or more than MAX_WINDOWS windows raise DomainError
        before anything is allocated.
        """
        if not window > 0.0:
            raise DomainError(f"window must be positive, got {window}")
        n = self.end_time / window
        if n > MAX_WINDOWS:
            raise DomainError(f"{n:.3g} windows of length {window} s up to end time "
                              f"{self.end_time:.6g} s exceed the limit of {MAX_WINDOWS}")
        n_win = max(1, int(math.ceil(n)))
        return n_win, np.minimum((self.arrival / window).astype(np.intp), n_win - 1)

    def windowed_rates(self, window: float | None = None):
        """Admission-rate series (events/sec) per window.

        Returns (window_starts, aggregate_rates, per_class_rates).
        """
        w = window if window is not None else DEFAULT_WINDOW
        n_win, index = self.window_grid(w)
        nc = self.num_classes
        cell = self.class_id * n_win + index
        counts = np.bincount(cell[self.decisions], minlength=nc * n_win)
        per_class = counts.reshape(nc, n_win)
        starts = [i * w for i in range(n_win)]
        return (starts, (per_class.sum(axis=0) / w).tolist(),
                [(row / w).tolist() for row in per_class])


def _bincount(values: np.ndarray, n: int, error, what: str) -> list[int]:
    counts = np.bincount(values, minlength=n)
    if len(counts) > n:
        raise error(f"{what} {len(counts) - 1} not configured")
    return counts.tolist()


@dataclass
class RunResult:
    """All strategies' outcomes for one replication of one scenario."""

    replication: int
    offers: int
    end_time: float
    strategies: dict[str, StrategyResult]


def _decide(throttle, columns: tuple[list, list, list], offers: list[Offer] | None):
    """One throttle's decision vector over a stream given as column lists.

    With ``offers`` (the same stream as Offer objects) every decision goes
    through ``decide`` and its records are returned as the trace.
    """
    n = len(columns[0])
    if offers is None:
        return np.fromiter(map(throttle.admit, *columns), dtype=bool, count=n), None
    trace = list(map(throttle.decide, offers))
    return np.fromiter((rec.verdict is Decision.ADMIT for rec in trace),
                       dtype=bool, count=n), trace


def run_stream(offers: list[Offer], throttle, name: str, num_classes: int,
               trace: bool = False) -> StrategyResult:
    """Feed one offer stream through one throttle."""
    columns = ([o.arrival for o in offers], [o.class_id for o in offers],
               [o.priority for o in offers])
    decisions, records = _decide(throttle, columns, offers if trace else None)
    arrival, class_id, priority = columns
    return StrategyResult(
        name, num_classes, throttle.num_priorities,
        np.array(arrival, dtype=np.float64), np.array(class_id, dtype=np.intp),
        np.array(priority, dtype=np.intp), decisions, records)


def run_once(scenario: Scenario, replication: int = 0) -> RunResult:
    """Run every strategy over the identical stream of one replication."""
    arrays = stream_columns(scenario.stream_spec, replication)
    columns = tuple(col.tolist() for col in arrays)
    offers = [Offer(*o) for o in zip(*columns)] if scenario.trace else None
    num_classes = scenario.stream_spec.num_classes
    results = {}
    for cfg in scenario.strategies:
        throttle = build_throttle(cfg, scenario)
        decisions, records = _decide(throttle, columns, offers)
        results[cfg.name] = StrategyResult(
            cfg.name, num_classes, throttle.num_priorities, *arrays, decisions, records)
    end = columns[0][-1] if columns[0] else 0.0
    return RunResult(replication, len(columns[0]), end, results)


@dataclass
class BatchReport:
    """Replication means and sample standard deviations per strategy."""

    replications: int
    strategies: dict[str, dict]

    def to_json(self) -> str:
        return json.dumps(
            {"replications": self.replications, "strategies": self.strategies},
            indent=2, sort_keys=True)


def _mean_std(values) -> dict:
    vals = [v for v in values if not (isinstance(v, float) and math.isnan(v))]
    if not vals:
        return {"mean": math.nan, "std": math.nan, "n": 0}
    # fsum is exactly rounded, so aggregates don't depend on replication order
    mean = math.fsum(vals) / len(vals)
    if len(vals) < 2:
        return {"mean": mean, "std": 0.0, "n": len(vals)}
    var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return {"mean": mean, "std": math.sqrt(var), "n": len(vals)}


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("GAPCRAFT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"GAPCRAFT_THREADS={env!r} is not an integer") from exc
    return 1


def run_replications(scenario: Scenario, workers: int | None = None) -> list[RunResult]:
    """Every replication of the scenario, in order, serially or on a process
    pool of ``workers`` (default GAPCRAFT_THREADS, else 1).

    Replication 0 runs as the scenario says; the others run untraced, so a
    traced batch records replication 0 only.
    """
    n = scenario.replications
    scenarios = chain((scenario,), repeat(replace(scenario, trace=False)))
    n_workers = _resolve_workers(workers)
    if n_workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(run_once, scenarios, range(n)))
    return list(map(run_once, scenarios, range(n)))


def run_batch(scenario: Scenario, workers: int | None = None) -> BatchReport:
    """Run all replications and aggregate; deterministic given the scenario."""
    return summarize(run_replications(scenario, workers))


def summarize(results: list[RunResult]) -> BatchReport:
    """Aggregate a list of per-replication results into a BatchReport."""
    if not results:
        raise ConfigError("no results to summarize")
    strategies = {}
    names = results[0].strategies.keys()
    for name in names:
        per_rep = [r.strategies[name] for r in results]
        nc = per_rep[0].num_classes
        nj = per_rep[0].num_priorities
        shares = [r.reject_shares_by_priority() for r in per_rep]
        strategies[name] = {
            "admitted": _mean_std([r.admitted for r in per_rep]),
            "rejected": _mean_std([r.rejected for r in per_rep]),
            "admitted_fraction": _mean_std(
                [r.admitted / r.total for r in per_rep if r.total]),
            "reject_share_by_priority": [
                _mean_std([s[j] for s in shares]) for j in range(nj)],
            "admit_by_class": [
                _mean_std([r.admit_by_class[k] for r in per_rep]) for k in range(nc)],
            "reject_by_class": [
                _mean_std([r.reject_by_class[k] for r in per_rep]) for k in range(nc)],
            "reject_by_priority": [
                _mean_std([r.reject_by_priority[j] for r in per_rep]) for j in range(nj)],
        }
    return BatchReport(replications=len(results), strategies=strategies)


def export_trace_csv(result: RunResult, path) -> None:
    """Write per-event traces of all strategies to one CSV.

    Columns inapplicable to a strategy stay empty.  The strategies of a run
    share its stream, and with it the class count.
    """
    num_classes = max(r.num_classes for r in result.strategies.values())
    cols = (["idx", "t", "class", "priority", "strategy", "decision", "b", "u"]
            + [f"rho_hat_{i}" for i in range(num_classes)]
            + [f"a_hat_{i}" for i in range(num_classes)]
            + [f"g_{i}" for i in range(num_classes)])
    blank = (None,) * num_classes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for name, res in result.strategies.items():
            writer.writerows(
                (idx, rec.offer.arrival, rec.offer.class_id, rec.offer.priority, name,
                 rec.verdict.value, rec.b, rec.u, *(rec.rho_hat or blank),
                 *(rec.a_hat or blank), *(rec.g or blank))
                for idx, rec in enumerate(res.trace or ()))


def export_report(report: BatchReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def export_windowed_rates_csv(result: RunResult, path, window: float) -> None:
    """Per-window admission rates, one column per (strategy, class); the
    strategies of a run share its stream, so they share one window grid."""
    header, columns = ["t"], []
    for name, res in result.strategies.items():
        starts, agg, per_class = res.windowed_rates(window)
        header += [f"{name}_aggregate"] + [f"{name}_class_{k}"
                                           for k in range(res.num_classes)]
        columns += [agg, *per_class]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(starts, *columns))

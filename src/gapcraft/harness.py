"""Runs offer streams through throttles and aggregates replication batches.

Every strategy in a scenario consumes the identical offer stream for a given
replication; replication r always uses RNG substream r, so batches are
deterministic and schedule-independent.  Set GAPCRAFT_THREADS (or pass
``workers``) to fan replications out over processes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import ConfigError
from .throttles import (
    DecisionRecord,
    MixedGapper,
    RateGapper,
    TokenBucket,
    TokenBucketRateModel,
)
from .traffic import StreamSpec, generate_stream
from .types import CapacityProfile, Decision, Offer

DEFAULT_WINDOW = 10.0


@dataclass(frozen=True)
class StrategyConfig:
    """Named strategy block of a scenario."""

    name: str
    kind: str  # token_bucket | rate_model | rate_gapper | mixed
    watermarks: tuple[float, ...] | None = None
    timers: tuple[float, ...] | None = None
    shares: tuple[float, ...] | None = None
    variant: str = "G"
    normalize: bool = False
    rate_segments: tuple[tuple[float, float], ...] | None = None  # r(t) override


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
    rate = (CapacityProfile(cfg.rate_segments)
            if cfg.rate_segments is not None else capacity)
    num_classes = scenario.stream_spec.num_classes
    if cfg.kind == "token_bucket":
        if cfg.watermarks is None:
            raise ConfigError(f"{cfg.name}: token_bucket needs watermarks")
        return TokenBucket(cfg.watermarks, rate)
    if cfg.kind == "rate_model":
        if cfg.watermarks is None or len(cfg.watermarks) != 1:
            raise ConfigError(f"{cfg.name}: rate_model needs exactly one watermark")
        return TokenBucketRateModel(rate.rate_at(0.0), cfg.watermarks[0])
    if cfg.kind == "rate_gapper":
        if cfg.timers is None:
            raise ConfigError(f"{cfg.name}: rate_gapper needs timers")
        if cfg.shares is None:
            raise ConfigError(f"{cfg.name}: rate_gapper needs shares")
        return RateGapper(num_classes, cfg.shares, cfg.timers, capacity,
                          variant=cfg.variant, normalize=cfg.normalize)
    if cfg.kind == "mixed":
        if cfg.watermarks is None:
            raise ConfigError(f"{cfg.name}: mixed needs watermarks")
        if cfg.shares is None:
            raise ConfigError(f"{cfg.name}: mixed needs shares")
        return MixedGapper(num_classes, cfg.shares, cfg.watermarks, capacity,
                           rate=rate, timers=cfg.timers, variant=cfg.variant,
                           normalize=cfg.normalize)
    raise ConfigError(f"{cfg.name}: unknown strategy kind {cfg.kind!r}")


@dataclass
class StrategyResult:
    """Per-strategy outcome of one replication."""

    name: str
    num_classes: int
    num_priorities: int
    admitted: int = 0
    rejected: int = 0
    admit_by_class: list[int] = field(default_factory=list)
    reject_by_class: list[int] = field(default_factory=list)
    admit_by_priority: list[int] = field(default_factory=list)
    reject_by_priority: list[int] = field(default_factory=list)
    admit_times_by_class: list[list[float]] = field(default_factory=list)
    reject_events: list[tuple[float, int, int]] = field(default_factory=list)
    end_time: float = 0.0
    trace: list[DecisionRecord] | None = None

    @property
    def total(self) -> int:
        return self.admitted + self.rejected

    def reject_shares_by_priority(self) -> list[float]:
        """Fraction of all rejections per priority; NaN when none occurred."""
        if self.rejected == 0:
            return [math.nan] * self.num_priorities
        return [n / self.rejected for n in self.reject_by_priority]

    def windowed_rates(self, window: float | None = None):
        """Admission-rate series (events/sec) per window.

        Returns (window_starts, aggregate_rates, per_class_rates).
        """
        w = window if window is not None else DEFAULT_WINDOW
        n_win = max(1, int(math.ceil(self.end_time / w)))
        agg = [0.0] * n_win
        per_class = [[0.0] * n_win for _ in range(self.num_classes)]
        for k, ts in enumerate(self.admit_times_by_class):
            for t in ts:
                idx = min(n_win - 1, int(t / w))
                agg[idx] += 1.0
                per_class[k][idx] += 1.0
        starts = [i * w for i in range(n_win)]
        return starts, [x / w for x in agg], [[x / w for x in row] for row in per_class]


@dataclass
class RunResult:
    """All strategies' outcomes for one replication of one scenario."""

    replication: int
    offers: int
    end_time: float
    strategies: dict[str, StrategyResult]


def run_stream(offers: list[Offer], throttle, name: str, num_classes: int,
               trace: bool = False) -> StrategyResult:
    """Feed one offer stream through one throttle."""
    num_priorities = throttle.num_priorities
    res = StrategyResult(
        name=name,
        num_classes=num_classes,
        num_priorities=num_priorities,
        admit_by_class=[0] * num_classes,
        reject_by_class=[0] * num_classes,
        admit_by_priority=[0] * num_priorities,
        reject_by_priority=[0] * num_priorities,
        admit_times_by_class=[[] for _ in range(num_classes)],
        trace=[] if trace else None,
    )
    admit = throttle.admit
    if trace:
        for offer in offers:
            rec = throttle.decide(offer)
            res.trace.append(rec)
            _tally(res, offer, rec.verdict is Decision.ADMIT)
    else:
        for offer in offers:
            _tally(res, offer, admit(offer.arrival, offer.class_id, offer.priority))
    if offers:
        res.end_time = offers[-1].arrival
    return res


def _tally(res: StrategyResult, offer: Offer, admitted: bool) -> None:
    if admitted:
        res.admitted += 1
        res.admit_by_class[offer.class_id] += 1
        res.admit_by_priority[offer.priority] += 1
        res.admit_times_by_class[offer.class_id].append(offer.arrival)
    else:
        res.rejected += 1
        res.reject_by_class[offer.class_id] += 1
        res.reject_by_priority[offer.priority] += 1
        res.reject_events.append((offer.arrival, offer.class_id, offer.priority))


def run_once(scenario: Scenario, replication: int = 0) -> RunResult:
    """Run every strategy over the identical stream of one replication."""
    offers = generate_stream(scenario.stream_spec, replication)
    num_classes = scenario.stream_spec.num_classes
    results = {}
    for cfg in scenario.strategies:
        throttle = build_throttle(cfg, scenario)
        results[cfg.name] = run_stream(offers, throttle, cfg.name, num_classes,
                                       trace=scenario.trace)
    end = offers[-1].arrival if offers else 0.0
    return RunResult(replication, len(offers), end, results)


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


def run_batch(scenario: Scenario, workers: int | None = None) -> BatchReport:
    """Run all replications and aggregate; deterministic given the scenario."""
    n = scenario.replications
    n_workers = _resolve_workers(workers)
    if n_workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_once, [scenario] * n, range(n)))
    else:
        results = [run_once(scenario, r) for r in range(n)]
    return summarize(results)


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

    Columns inapplicable to a strategy stay empty.
    """
    num_classes = max(r.num_classes for r in result.strategies.values())
    cols = (["idx", "t", "class", "priority", "strategy", "decision", "b", "u"]
            + [f"rho_hat_{i}" for i in range(num_classes)]
            + [f"a_hat_{i}" for i in range(num_classes)]
            + [f"g_{i}" for i in range(num_classes)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for name, res in result.strategies.items():
            if res.trace is None:
                continue
            for idx, rec in enumerate(res.trace):
                row = [idx, repr(rec.offer.arrival), rec.offer.class_id,
                       rec.offer.priority, name, rec.verdict.value,
                       _fmt(rec.b), _fmt(rec.u)]
                for values in (rec.rho_hat, rec.a_hat, rec.g):
                    cells = [repr(v) for v in values or ()]
                    row += cells + [""] * (num_classes - len(cells))
                writer.writerow(row)


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def export_report(report: BatchReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def export_windowed_rates_csv(result: RunResult, path, window: float) -> None:
    """Per-window admission rates, one column per (strategy, class)."""
    names = list(result.strategies)
    series = {}
    n_win = 0
    for name in names:
        starts, agg, per_class = result.strategies[name].windowed_rates(window)
        series[name] = (starts, agg, per_class)
        n_win = max(n_win, len(starts))
    cols = ["t"]
    for name in names:
        cols.append(f"{name}_aggregate")
        cols += [f"{name}_class_{k}"
                 for k in range(result.strategies[name].num_classes)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(n_win):
            row = [repr(i * window)]
            for name in names:
                starts, agg, per_class = series[name]
                row.append(repr(agg[i]) if i < len(agg) else "")
                for kser in per_class:
                    row.append(repr(kser[i]) if i < len(kser) else "")
            writer.writerow(row)

"""Scenario files: JSON in, validated Scenario objects out.

The schema mirrors the harness Scenario; unknown keys are rejected so typos
fail loudly.  ``_source`` fields are free-text provenance notes and ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError, SchemaError
from .harness import Scenario, StrategyConfig, build_throttle
from .traffic import IntensityProfile, PriorityMix, StreamSpec
from .types import CapacityProfile, ShareVector

_TOP_KEYS = {"_source", "seed", "replications", "trace", "window_seconds",
             "traffic", "capacity", "strategies", "requirements", "output"}
_TRAFFIC_KEYS = {"_source", "classes", "priority_mix", "stop"}
_CLASS_KEYS = {"_source", "knots"}
_STOP_KEYS = {"offers", "duration"}
_CAPACITY_KEYS = {"_source", "segments"}
_STRATEGY_KEYS = {"_source", "name", "kind", "watermarks", "timers", "shares",
                  "variant", "normalize", "rate_segments"}
_REQ_KEYS = {"A", "B", "C", "_source"}
_REQ_A_KEYS = {"window", "tolerance", "strategies", "_source"}
_REQ_B_KEYS = {"step", "horizon", "sample_every", "class_id",
               "min_pass_fraction", "strategies", "_source"}
_REQ_C_KEYS = {"window", "strategies", "_source"}
_OUTPUT_KEYS = {"report", "trace", "rates", "stream", "verdicts", "_source"}


@dataclass
class ScenarioFile:
    """A parsed scenario plus its optional requirements and output blocks."""

    scenario: Scenario
    seed: int
    requirements: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def _reject_unknown(block, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return block[key]


def _numbers(raw, where: str) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise SchemaError(f"{where} must be a list of numbers, got {raw!r}")
    try:
        return tuple(float(x) for x in raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _pairs(raw, where: str) -> tuple[tuple[float, float], ...]:
    """A list of [time, rate] pairs, such as knots or capacity segments."""
    try:
        if isinstance(raw, list):
            return tuple((float(t), float(r)) for t, r in raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where} must be a list of [time, rate] pairs "
                          f"of numbers ({exc})") from exc
    raise SchemaError(f"{where} must be a list of [time, rate] pairs, got {raw!r}")


def _integer(raw, where: str, minimum: int | None = None) -> int:
    if not (isinstance(raw, int) and not isinstance(raw, bool)
            or isinstance(raw, float) and raw.is_integer()):
        raise SchemaError(f"{where} must be an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise SchemaError(f"{where} must be >= {minimum}, got {raw!r}")
    return int(raw)


def _positive(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not (
            math.isfinite(raw) and raw > 0):
        raise SchemaError(f"{where} must be finite and > 0, got {raw!r}")
    return float(raw)


def _priority_params(raw, where: str, valid, rule: str) -> tuple[float, ...]:
    """Per-priority timers or watermarks: finite values that pass ``valid``."""
    values = _numbers(raw, where)
    if not all(math.isfinite(x) and valid(x) for x in values):
        raise SchemaError(f"{where}: every value must be finite and {rule}, "
                          f"got {list(values)}")
    return values


def _shares(raw, num_classes: int, where: str) -> tuple[float, ...]:
    """One strategy's shares, checked as a ShareVector over the traffic classes."""
    try:
        shares = ShareVector(_numbers(raw, f"{where}.shares"))
    except ConfigError as exc:
        raise SchemaError(f"{where}.shares: {exc}") from exc
    if len(shares) != num_classes:
        raise SchemaError(f"{where}.shares: {len(shares)} shares for "
                          f"{num_classes} traffic classes")
    return shares.s


def _strategy(blk, where: str, num_classes: int) -> StrategyConfig:
    _reject_unknown(blk, _STRATEGY_KEYS, where)
    watermarks = (_priority_params(blk["watermarks"], f"{where}.watermarks",
                                   lambda w: w >= 1.0, ">= 1")
                  if "watermarks" in blk else None)
    timers = (_priority_params(blk["timers"], f"{where}.timers",
                               lambda t: t > 0.0, "> 0")
              if "timers" in blk else None)
    kind = str(_require(blk, "kind", where))
    if kind == "mixed" and None not in (watermarks, timers) and len(timers) != len(watermarks):
        raise SchemaError(f"{where}.timers: {len(timers)} timers for "
                          f"{len(watermarks)} watermarks")
    variant = str(blk.get("variant", "G"))
    if variant not in ("G", "GPrime"):
        raise SchemaError(f"{where}.variant must be 'G' or 'GPrime', got {variant!r}")
    return StrategyConfig(
        name=str(_require(blk, "name", where)),
        kind=kind,
        watermarks=watermarks,
        timers=timers,
        shares=_shares(blk["shares"], num_classes, where) if "shares" in blk else None,
        variant=variant,
        normalize=bool(blk.get("normalize", False)),
        rate_segments=_pairs(blk["rate_segments"], f"{where}.rate_segments")
        if "rate_segments" in blk else None,
    )


def _check_priorities(scenario: Scenario) -> None:
    """Every strategy must build and cover every priority the stream draws."""
    n_mix = scenario.stream_spec.num_priorities
    for i, cfg in enumerate(scenario.strategies):
        try:
            have = build_throttle(cfg, scenario).num_priorities
        except ConfigError as exc:
            raise SchemaError(f"strategies[{i}]: {exc}") from exc
        if have < n_mix:
            raise SchemaError(f"traffic.priority_mix: {n_mix} priorities, but "
                              f"strategies[{i}] ({cfg.name}) configures {have}")


def parse_scenario_dict(doc: dict) -> ScenarioFile:
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    seed = _integer(doc.get("seed", 0), "seed")
    replications = _integer(doc.get("replications", 1), "replications", 1)
    trace = bool(doc.get("trace", False))
    window = _positive(doc.get("window_seconds", 10.0), "window_seconds")

    traffic = _require(doc, "traffic", "scenario")
    _reject_unknown(traffic, _TRAFFIC_KEYS, "traffic")
    class_blocks = _require(traffic, "classes", "traffic")
    if not isinstance(class_blocks, list) or not class_blocks:
        raise SchemaError("traffic.classes must be a non-empty list")
    profiles = []
    for i, blk in enumerate(class_blocks):
        where = f"traffic.classes[{i}]"
        _reject_unknown(blk, _CLASS_KEYS, where)
        knots = _pairs(_require(blk, "knots", where), f"{where}.knots")
        try:
            profiles.append(IntensityProfile(knots))
        except ConfigError as exc:
            raise SchemaError(f"{where}.knots: {exc}") from exc
    mix_p = _numbers(_require(traffic, "priority_mix", "traffic"), "traffic.priority_mix")
    try:
        mix = PriorityMix(mix_p)
    except ConfigError as exc:
        raise SchemaError(f"traffic.priority_mix: {exc}") from exc
    stop = _require(traffic, "stop", "traffic")
    _reject_unknown(stop, _STOP_KEYS, "traffic.stop")
    if ("offers" in stop) == ("duration" in stop):
        raise SchemaError("traffic.stop needs exactly one of 'offers' or 'duration'")
    spec = StreamSpec(
        profiles=tuple(profiles), mix=mix, seed=seed,
        duration=_positive(stop["duration"], "traffic.stop.duration")
        if "duration" in stop else None,
        count=_integer(stop["offers"], "traffic.stop.offers", 1)
        if "offers" in stop else None)

    cap_block = _require(doc, "capacity", "scenario")
    _reject_unknown(cap_block, _CAPACITY_KEYS, "capacity")
    segments = _pairs(_require(cap_block, "segments", "capacity"), "capacity.segments")
    try:
        capacity = CapacityProfile(segments)
    except ConfigError as exc:
        raise SchemaError(f"capacity.segments: {exc}") from exc

    strat_blocks = _require(doc, "strategies", "scenario")
    if not isinstance(strat_blocks, list) or not strat_blocks:
        raise SchemaError("strategies must be a non-empty list")
    strategies = [_strategy(blk, f"strategies[{i}]", len(profiles))
                  for i, blk in enumerate(strat_blocks)]

    requirements = doc.get("requirements", {})
    _reject_unknown(requirements, _REQ_KEYS, "requirements")
    for key, allowed in (("A", _REQ_A_KEYS), ("B", _REQ_B_KEYS), ("C", _REQ_C_KEYS)):
        if key in requirements:
            _reject_unknown(requirements[key], allowed, f"requirements.{key}")

    output = doc.get("output", {})
    _reject_unknown(output, _OUTPUT_KEYS, "output")

    scenario = Scenario(
        stream_spec=spec, capacity=capacity, strategies=tuple(strategies),
        replications=replications, trace=trace, window=window)
    _check_priorities(scenario)
    return ScenarioFile(scenario=scenario, seed=seed,
                        requirements={k: v for k, v in requirements.items()
                                      if k != "_source"},
                        output={k: v for k, v in output.items() if k != "_source"})


def load_scenario(path) -> ScenarioFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario_dict(doc)


def scenario_to_dict(sf: ScenarioFile) -> dict:
    """Canonical dict form; parse(serialize(parse(x))) == parse(x)."""
    spec = sf.scenario.stream_spec
    stop = ({"duration": spec.duration} if spec.duration is not None
            else {"offers": spec.count})
    strategies = []
    for cfg in sf.scenario.strategies:
        blk = {"name": cfg.name, "kind": cfg.kind, "variant": cfg.variant,
               "normalize": cfg.normalize}
        if cfg.watermarks is not None:
            blk["watermarks"] = list(cfg.watermarks)
        if cfg.timers is not None:
            blk["timers"] = list(cfg.timers)
        if cfg.shares is not None:
            blk["shares"] = list(cfg.shares)
        if cfg.rate_segments is not None:
            blk["rate_segments"] = [list(seg) for seg in cfg.rate_segments]
        strategies.append(blk)
    doc = {
        "seed": sf.seed,
        "replications": sf.scenario.replications,
        "trace": sf.scenario.trace,
        "window_seconds": sf.scenario.window,
        "traffic": {
            "classes": [{"knots": [list(k) for k in p.knots]}
                        for p in spec.profiles],
            "priority_mix": list(spec.mix.p),
            "stop": stop,
        },
        "capacity": {"segments": [list(seg) for seg in sf.scenario.capacity.segments]},
        "strategies": strategies,
    }
    if sf.requirements:
        doc["requirements"] = sf.requirements
    if sf.output:
        doc["output"] = sf.output
    return doc

"""Scenario files: JSON in, validated Scenario objects out.

The schema mirrors the harness Scenario; unknown keys are rejected so typos
fail loudly.  ``_source`` fields are free-text provenance notes and ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError, SchemaError
from .harness import Scenario, StrategyConfig
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


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return block[key]


def _shares(raw, num_classes: int, where: str) -> tuple[float, ...]:
    """One strategy's shares, checked as a ShareVector over the traffic classes."""
    try:
        shares = ShareVector(tuple(float(x) for x in raw))
    except ConfigError as exc:
        raise SchemaError(f"{where}.shares: {exc}") from exc
    if len(shares) != num_classes:
        raise SchemaError(f"{where}.shares: {len(shares)} shares for "
                          f"{num_classes} traffic classes")
    return shares.s


def parse_scenario_dict(doc: dict) -> ScenarioFile:
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    seed = int(doc.get("seed", 0))
    replications = int(doc.get("replications", 1))
    trace = bool(doc.get("trace", False))
    window = float(doc.get("window_seconds", 10.0))

    traffic = _require(doc, "traffic", "scenario")
    _reject_unknown(traffic, _TRAFFIC_KEYS, "traffic")
    class_blocks = _require(traffic, "classes", "traffic")
    if not isinstance(class_blocks, list) or not class_blocks:
        raise SchemaError("traffic.classes must be a non-empty list")
    profiles = []
    for i, blk in enumerate(class_blocks):
        _reject_unknown(blk, _CLASS_KEYS, f"traffic.classes[{i}]")
        knots = _require(blk, "knots", f"traffic.classes[{i}]")
        profiles.append(IntensityProfile(tuple((float(t), float(r)) for t, r in knots)))
    mix = PriorityMix(tuple(float(p) for p in _require(traffic, "priority_mix", "traffic")))
    stop = _require(traffic, "stop", "traffic")
    _reject_unknown(stop, _STOP_KEYS, "traffic.stop")
    if ("offers" in stop) == ("duration" in stop):
        raise SchemaError("traffic.stop needs exactly one of 'offers' or 'duration'")
    spec = StreamSpec(
        profiles=tuple(profiles), mix=mix, seed=seed,
        duration=float(stop["duration"]) if "duration" in stop else None,
        count=int(stop["offers"]) if "offers" in stop else None)

    cap_block = _require(doc, "capacity", "scenario")
    _reject_unknown(cap_block, _CAPACITY_KEYS, "capacity")
    capacity = CapacityProfile(tuple(
        (float(t), float(r)) for t, r in _require(cap_block, "segments", "capacity")))

    strat_blocks = _require(doc, "strategies", "scenario")
    if not isinstance(strat_blocks, list) or not strat_blocks:
        raise SchemaError("strategies must be a non-empty list")
    strategies = []
    for i, blk in enumerate(strat_blocks):
        where = f"strategies[{i}]"
        _reject_unknown(blk, _STRATEGY_KEYS, where)
        strategies.append(StrategyConfig(
            name=str(_require(blk, "name", where)),
            kind=str(_require(blk, "kind", where)),
            watermarks=tuple(float(x) for x in blk["watermarks"]) if "watermarks" in blk else None,
            timers=tuple(float(x) for x in blk["timers"]) if "timers" in blk else None,
            shares=_shares(blk["shares"], len(profiles), where) if "shares" in blk else None,
            variant=str(blk.get("variant", "G")),
            normalize=bool(blk.get("normalize", False)),
            rate_segments=tuple((float(t), float(r)) for t, r in blk["rate_segments"])
            if "rate_segments" in blk else None,
        ))

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

"""Scenario files: JSON in, validated Scenario objects out.

The schema mirrors the harness Scenario; unknown keys are rejected so typos
fail loudly.  ``_source`` fields are free-text provenance notes and ignored.
This module checks JSON types and shapes; the values of a strategy's
parameters are checked by its throttle's constructor, which every strategy
goes through at load, and given shares by ``types.class_shares`` for every
kind.  Any refusal is a SchemaError naming the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

from .errors import ConfigError, ParseError, SchemaError
from .harness import Scenario, StrategyConfig, build_throttle
from .traffic import IntensityProfile, PriorityMix, StreamSpec
from .types import CapacityProfile, class_shares

_TOP_KEYS = {"_source", "seed", "replications", "window_seconds", "traffic",
             "capacity", "strategies", "requirements", "output"}
_TRAFFIC_KEYS = {"_source", "classes", "priority_mix", "stop"}
_CLASS_KEYS = {"_source", "knots"}
_STOP_KEYS = {"offers", "duration"}
_CAPACITY_KEYS = {"_source", "segments"}
_STRATEGY_KEYS = {"_source", "name", "kind", "watermarks", "timers", "shares",
                  "variant", "normalize"}
_REQ_KEYS = {"A", "B", "C", "_source"}
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


def _boolean(raw, where: str) -> bool:
    if not isinstance(raw, bool):
        raise SchemaError(f"{where} must be true or false, got {raw!r}")
    return raw


def _finite(raw, where: str, valid, rule: str) -> float:
    """A JSON number that is finite and passes ``valid``."""
    try:
        ok = not isinstance(raw, bool) and math.isfinite(raw) and valid(raw)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        ok = False
    if not ok:
        raise SchemaError(f"{where} must be finite and {rule}, got {raw!r}")
    return float(raw)


def _positive(raw, where: str) -> float:
    return _finite(raw, where, lambda x: x > 0, "> 0")


def _names(raw, where: str) -> list:
    if not (isinstance(raw, list) and raw and all(isinstance(x, str) for x in raw)):
        raise SchemaError(f"{where} must be a non-empty list of names, got {raw!r}")
    return raw


# The checks of each requirement's fields; every block may also list the
# strategies it judges.
_REQ_FIELDS = {
    "A": {"window": _positive,
          "tolerance": partial(_finite, valid=lambda x: x >= 0, rule=">= 0")},
    "B": {"step": _positive, "horizon": _positive,
          "sample_every": partial(_integer, minimum=1),
          "class_id": partial(_integer, minimum=0),
          "min_pass_fraction": partial(_finite, valid=lambda x: 0 <= x <= 1,
                                       rule="in [0, 1]")},
    "C": {"window": _positive},
}


def _strategy(blk, where: str) -> StrategyConfig:
    _reject_unknown(blk, _STRATEGY_KEYS, where)
    lists = {key: _numbers(blk[key], f"{where}.{key}")
             for key in ("watermarks", "timers", "shares") if key in blk}
    return StrategyConfig(
        name=str(_require(blk, "name", where)),
        kind=str(_require(blk, "kind", where)),
        **lists,
        variant=str(blk.get("variant", "G")),
        normalize=_boolean(blk.get("normalize", False), f"{where}.normalize"),
    )


def _check_priorities(scenario: Scenario) -> None:
    """Every strategy must build and cover every priority the stream draws.

    Building runs the throttle constructor's parameter checks; a refusal
    names the parameter it found at fault.  Given shares are checked for
    every kind, since Req-C judges a strategy by them even where its
    throttle ignores them.
    """
    n_mix = scenario.stream_spec.num_priorities
    num_classes = scenario.stream_spec.num_classes
    for i, cfg in enumerate(scenario.strategies):
        try:
            have = build_throttle(cfg, scenario).num_priorities
            if cfg.shares is not None:
                class_shares(cfg.shares, num_classes)
        except ConfigError as exc:
            key = f"strategies[{i}].{exc.param}" if exc.param else f"strategies[{i}]"
            raise SchemaError(f"{key}: {exc}") from exc
        if have < n_mix:
            raise SchemaError(f"traffic.priority_mix: {n_mix} priorities, but "
                              f"strategies[{i}] ({cfg.name}) configures {have}")


def _requirements(raw, scenario: Scenario) -> dict:
    """The requirements block with every value checked; keys as written."""
    _reject_unknown(raw, _REQ_KEYS, "requirements")
    by_name = {cfg.name: cfg for cfg in scenario.strategies}
    num_classes = scenario.stream_spec.num_classes
    checked = {}
    for req, fields in _REQ_FIELDS.items():
        if req not in raw:
            continue
        where = f"requirements.{req}"
        fields = {**fields, "strategies": _names}
        _reject_unknown(raw[req], {*fields, "_source"}, where)
        blk = {key: fields[key](value, f"{where}.{key}")
               for key, value in raw[req].items() if key != "_source"}
        if blk.get("class_id", 0) >= num_classes:
            raise SchemaError(f"{where}.class_id: class {blk['class_id']} not "
                              f"configured ({num_classes} traffic classes)")
        names = blk.get("strategies", list(by_name))
        unknown = [name for name in names if name not in by_name]
        if unknown:
            raise SchemaError(f"{where}.strategies: no strategy named {unknown}")
        if req == "C" and num_classes > 1:
            bare = [name for name in names if by_name[name].shares is None]
            if bare:
                raise SchemaError(f"{where}.strategies: {bare} carry no shares "
                                  f"for the {num_classes} traffic classes")
        checked[req] = blk
    return checked


def parse_scenario_dict(doc: dict) -> ScenarioFile:
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    seed = _integer(doc.get("seed", 0), "seed")
    replications = _integer(doc.get("replications", 1), "replications", 1)
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
    strategies = [_strategy(blk, f"strategies[{i}]")
                  for i, blk in enumerate(strat_blocks)]

    output = doc.get("output", {})
    _reject_unknown(output, _OUTPUT_KEYS, "output")

    scenario = Scenario(
        stream_spec=spec, capacity=capacity, strategies=tuple(strategies),
        replications=replications, window=window)
    _check_priorities(scenario)
    return ScenarioFile(scenario=scenario, seed=seed,
                        requirements=_requirements(doc.get("requirements", {}), scenario),
                        output={k: v for k, v in output.items() if k != "_source"})


def load_scenario(path) -> ScenarioFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario_dict(doc)

"""The three benchmark workloads: the scenario files each one generates from
its seed, and the ``gapcraft`` commands one iteration runs.

* ``replicate``      -- ``simulate`` on the bundled Table-1 rows 2 and 3 at their
  bundled 100 replications x 10^4 offers x 3 strategies.  Stream synthesis,
  bare ``admit`` and the harness tally do the work; the checkers do none.
* ``fairness_check`` -- ``check`` with Req-A and Req-C on a generated scenario
  with 8 unequal-share classes and a capacity signal of thousands of steps.
  The checkers do most of the work; it is the only workload with capacity
  steps, many classes and a large scenario file.
* ``diagnose``       -- ``simulate --replications 1 --trace-out`` and then
  ``check`` with Req-B on a generated 3-priority overload ramp.  The throttles
  run through traced ``decide``, per-probe ``clone()`` and the trace CSV
  export instead of bare ``admit``.

The program sees only the scenario files written here, or the ``--seed``
override for the bundled files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "gapcraft" / "scenarios"

NAMES = ("replicate", "fairness_check", "diagnose")


@dataclass
class Unit:
    """One scenario as the program runs it: the replications whose decisions
    a workload iteration makes, fingerprinted per (label, replication,
    strategy)."""

    label: str
    path: Path
    seed_override: int | None
    replications: int

    def scenario(self):
        """The Scenario the CLI builds from ``path`` and its overrides."""
        from gapcraft.scenario_io import load_scenario

        sf = load_scenario(self.path)
        scenario = sf.scenario
        if self.seed_override is not None:
            scenario = dataclasses.replace(
                scenario, stream_spec=dataclasses.replace(
                    scenario.stream_spec, seed=self.seed_override))
        return sf, scenario


@dataclass
class Workload:
    name: str
    seed: int
    tiny: bool
    units: list[Unit]
    commands: list[list[str]]   # argv lists for gapcraft.cli.main
    passes: int                 # times an iteration runs each unit's decisions
    reports: dict[str, Path]    # unit label -> report JSON the commands write
    trace_csv: Path | None = None

    @property
    def outputs(self) -> list[Path]:
        """Files the commands write."""
        return [*self.reports.values(), *([self.trace_csv] if self.trace_csv else [])]

    @property
    def scenario_paths(self) -> list[Path]:
        return [u.path for u in self.units]

    def scenario_hashes(self) -> dict[str, str]:
        return {u.label: hashlib.sha256(u.path.read_bytes()).hexdigest()
                for u in self.units}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    if name == "replicate":
        return _replicate(seed, work, tiny)
    if name == "fairness_check":
        return _fairness_check(seed, work, tiny)
    if name == "diagnose":
        return _diagnose(seed, work, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _replicate(seed: int, work: Path, tiny: bool) -> Workload:
    units, commands, reports = [], [], {}
    for label in ("table1_row2", "table1_row3"):
        path = BUNDLED / f"{label}.json"
        reps = json.loads(path.read_text())["replications"]
        report = work / f"{label}.report.json"
        argv = ["simulate", str(path), "--seed", str(seed), "--report", str(report)]
        if tiny:
            reps = 2
            argv += ["--replications", str(reps)]
        units.append(Unit(label, path, seed, reps))
        commands.append(argv)
        reports[label] = report
    return Workload("replicate", seed, tiny, units, commands,
                    passes=1, reports=reports)


def _fairness_check(seed: int, work: Path, tiny: bool) -> Workload:
    path = work / "fairness.json"
    doc = fairness_doc(seed, tiny)
    _write_json(path, doc)
    unit = Unit("fairness", path, None, doc["replications"])
    return Workload("fairness_check", seed, tiny, [unit], [["check", str(path)]],
                    passes=1, reports={})


def _diagnose(seed: int, work: Path, tiny: bool) -> Workload:
    path = work / "diagnose.json"
    _write_json(path, diagnose_doc(seed, tiny))
    report = work / "diagnose.report.json"
    trace = work / "diagnose.trace.csv"
    commands = [
        ["simulate", str(path), "--replications", "1",
         "--trace-out", str(trace), "--report", str(report)],
        ["check", str(path)],
    ]
    # Replication 0 is decided three times per iteration: the batch, the
    # traced single run behind --trace-out, and the Req-B survey.
    return Workload("diagnose", seed, tiny, [Unit("diagnose", path, None, 1)],
                    commands, passes=3, reports={"diagnose": report},
                    trace_csv=trace)


def fairness_doc(seed: int, tiny: bool = False) -> dict:
    """8 classes with unequal shares, class 0 (share 0.2) ramping from half
    to 2.5x its share, the rest at 0.6x theirs; capacity steps of +-20 %
    around 10/s.

    Req-A and Req-C cost grows with windows x capacity segments, which is
    why the capacity signal has thousands of segments.
    """
    rng = random.Random(seed)
    # Class 0 keeps a fixed share so the offered load, and with it the
    # work per iteration, does not depend on the seed.
    weights = [rng.uniform(1.0, 4.0) for _ in range(7)]
    shares = [0.2] + [0.8 * w / sum(weights) for w in weights]
    c = 10.0
    duration = 60.0 if tiny else 800.0
    n_segments = 200 if tiny else 5000
    dt = duration / n_segments
    segments = [[round(i * dt, 9), round(c * rng.uniform(0.8, 1.2), 6)]
                for i in range(n_segments)]
    classes = [{"knots": [[0.0, 0.5 * shares[0] * c],
                          [duration, 2.5 * shares[0] * c]]}]
    classes += [{"knots": [[0.0, 0.6 * s * c]]} for s in shares[1:]]
    return {
        "_source": "perfbench fairness_check workload",
        "seed": seed,
        "replications": 2 if tiny else 6,
        "window_seconds": 10.0,
        "traffic": {"classes": classes, "priority_mix": [0.4, 0.6],
                    "stop": {"duration": duration}},
        "capacity": {"segments": segments},
        "strategies": [
            {"name": "rate_gapping", "kind": "rate_gapper",
             "timers": [2.0, 1.0], "shares": shares},
            {"name": "mixed", "kind": "mixed", "watermarks": [20.0, 10.0],
             "timers": [2.0, 1.0], "shares": shares},
        ],
        "requirements": {
            "A": {"window": 10.0, "tolerance": 0.05},
            "C": {"window": 10.0},
        },
    }


def diagnose_doc(seed: int, tiny: bool = False) -> dict:
    """One class ramping from 80 to 200 offers/s against capacity 100, three
    priorities, all three strategies; Req-B surveys every 20th rejection."""
    return {
        "_source": "perfbench diagnose workload",
        "seed": seed,
        "replications": 4,
        "window_seconds": 10.0,
        "traffic": {"classes": [{"knots": [[0.0, 80.0], [250.0, 200.0]]}],
                    "priority_mix": [0.2, 0.3, 0.5],
                    "stop": {"offers": 2000 if tiny else 40000}},
        "capacity": {"segments": [[0.0, 100.0]]},
        "strategies": [
            {"name": "token_bucket", "kind": "token_bucket",
             "watermarks": [30.0, 20.0, 10.0]},
            {"name": "rate_gapping", "kind": "rate_gapper",
             "timers": [0.3, 0.2, 0.1], "shares": [1.0]},
            {"name": "mixed", "kind": "mixed", "watermarks": [30.0, 20.0, 10.0],
             "timers": [0.3, 0.2, 0.1], "shares": [1.0]},
        ],
        "requirements": {
            "B": {"step": 0.05, "horizon": 5.0, "sample_every": 20,
                  "class_id": 0, "min_pass_fraction": 0.95},
        },
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")

"""Command-line front end.

Commands: simulate, check, erlang, bias, gen-stream.  Exit codes: 0 success
(all requested checks passed), 1 check failure, 2 validation error, 3
runtime error.  ``simulate`` and ``check`` decide each replication once,
serially, through ``harness.run_replications``; ``simulate`` writes its
report and replication 0's trace and rates CSVs from that one list.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .analysis import (
    check_req_a,
    check_req_c,
    erlang_b,
    estimator_bias,
    survey_recovery,
)
from .errors import ConfigError, DomainError, GapcraftError, ParseError
from .harness import (
    build_throttle,
    export_report,
    export_trace_csv,
    export_windowed_rates_csv,
    run_replications,
    summarize,
)
from .scenario_io import ScenarioFile, load_scenario
from .traffic import generate_stream, stream_to_file

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _apply_overrides(sf: ScenarioFile, args) -> ScenarioFile:
    scenario = sf.scenario
    if getattr(args, "seed", None) is not None:
        scenario = dataclasses.replace(
            scenario,
            stream_spec=dataclasses.replace(scenario.stream_spec, seed=args.seed))
    if getattr(args, "replications", None) is not None:
        scenario = dataclasses.replace(scenario, replications=args.replications)
    return dataclasses.replace(sf, scenario=scenario)


def cmd_simulate(args) -> int:
    sf = _apply_overrides(load_scenario(args.scenario), args)
    trace_path = args.trace_out or sf.output.get("trace")
    rates_path = sf.output.get("rates")
    scenario = dataclasses.replace(sf.scenario, trace=bool(trace_path))
    runs = run_replications(scenario)
    report = summarize(runs)
    report_path = args.report or sf.output.get("report")
    if report_path:
        export_report(report, report_path)
    else:
        print(report.to_json())
    if trace_path:
        export_trace_csv(runs[0], trace_path)
    if rates_path:
        export_windowed_rates_csv(runs[0], rates_path, scenario.window)
    return EXIT_OK


def cmd_check(args) -> int:
    sf = _apply_overrides(load_scenario(args.scenario), args)
    if not sf.requirements:
        raise ConfigError(f"{args.scenario}: no 'requirements' block to check")
    scenario = sf.scenario
    spec = scenario.stream_spec
    verdicts = []

    runs = run_replications(scenario) if {"A", "C"} & sf.requirements.keys() else None

    def wanted(req_cfg, name):
        names = req_cfg.get("strategies")
        return names is None or name in names

    if "A" in sf.requirements:
        cfg = sf.requirements["A"]
        window = cfg.get("window", scenario.window)
        tol = cfg.get("tolerance", 0.05)
        for strat in scenario.strategies:
            if not wanted(cfg, strat.name):
                continue
            per_rep = [check_req_a(run.strategies[strat.name], scenario.capacity,
                                   window, tol) for run in runs]
            verdicts.append({
                "requirement": "A", "strategy": strat.name,
                "passed": all(v.passed for v in per_rep),
                "evidence": {
                    "replications": len(per_rep),
                    "failed_replications": sum(not v.passed for v in per_rep),
                    "max_windowed_rate": max(
                        v.evidence["max_windowed_rate"] for v in per_rep),
                    "mean_steady_rate": sum(
                        v.evidence["steady_mean_rate"] for v in per_rep) / len(per_rep),
                },
            })

    if "B" in sf.requirements:
        cfg = sf.requirements["B"]
        step = cfg.get("step", 0.25)
        horizon = cfg.get("horizon", 30.0)
        sample_every = cfg.get("sample_every", 1)
        class_id = cfg.get("class_id", 0)
        min_pass = cfg.get("min_pass_fraction", 0.95)
        offers = generate_stream(spec, 0)
        for strat in scenario.strategies:
            if not wanted(cfg, strat.name):
                continue
            throttle = build_throttle(strat, scenario)
            vs = survey_recovery(offers, throttle, step, horizon,
                                 sample_every, class_id)
            frac = (sum(v.passed for v in vs) / len(vs)) if vs else 1.0
            verdicts.append({
                "requirement": "B", "strategy": strat.name,
                "passed": frac >= min_pass,
                "evidence": {"sampled_rejections": len(vs),
                             "ordered_fraction": frac,
                             "min_pass_fraction": min_pass,
                             "basis": vs[0].evidence["basis"] if vs else "vacuous"},
            })

    if "C" in sf.requirements:
        cfg = sf.requirements["C"]
        window = cfg.get("window", scenario.window)
        for strat in scenario.strategies:
            if not wanted(cfg, strat.name):
                continue
            # the loader ensures shares here, unless the stream has one class
            shares = strat.shares or (1.0,)
            per_rep = [check_req_c(run.strategies[strat.name], shares,
                                   scenario.capacity, spec.profiles, window)
                       for run in runs]
            verdicts.append({
                "requirement": "C", "strategy": strat.name,
                "passed": all(v.passed for v in per_rep),
                "evidence": {
                    "replications": len(per_rep),
                    "total_violations": sum(
                        sum(v.evidence["violations_by_class"]) for v in per_rep),
                },
            })

    doc = json.dumps({"verdicts": verdicts}, indent=2, sort_keys=True)
    out_path = sf.output.get("verdicts")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc + "\n")
    print(doc)
    return EXIT_OK if all(v["passed"] for v in verdicts) else EXIT_CHECK_FAILED


def cmd_erlang(args) -> int:
    print(f"{erlang_b(args.watermark, args.load):.12g}")
    return EXIT_OK


def cmd_bias(args) -> int:
    print(f"{estimator_bias(args.timer, args.alpha):.12g}")
    return EXIT_OK


def cmd_gen_stream(args) -> int:
    sf = _apply_overrides(load_scenario(args.scenario), args)
    out = args.out or sf.output.get("stream")
    if not out:
        raise ConfigError("no output path: pass --out or set output.stream")
    offers = generate_stream(sf.scenario.stream_spec, args.replication)
    stream_to_file(offers, out)
    print(f"wrote {len(offers)} offers to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcraft",
        description="Queue-free admission control strategies and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file, write report/trace")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--report", help="report JSON path (overrides scenario)")
    p.add_argument("--trace-out", help="trace CSV path (overrides scenario)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="evaluate the scenario's requirements block")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("erlang", help="Erlang-B blocking probability")
    p.add_argument("watermark", type=int)
    p.add_argument("load", type=float)
    p.set_defaults(func=cmd_erlang)

    p = sub.add_parser("bias", help="arrival-sampling bias of the rate estimator")
    p.add_argument("timer", type=float)
    p.add_argument("alpha", type=float)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("gen-stream", help="generate a scenario's offer stream CSV")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int)
    p.add_argument("--replication", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GapcraftError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""The traced run: spans around the calls into each gapcraft module, and the
per-layer numbers measured on the workload's own inputs.

Spans are recorded by wrapping, for the duration of a traced iteration, the
module-level bindings through which gapcraft's modules call one another
(``cli.run_batch``, ``harness.run_once``, ``analysis.check_req_b``, ...).
Only call-level functions are wrapped, never per-decision ones such as
``admit`` or ``rate_at``, so the spans cost microseconds per replication.
The program's own code is not changed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import pickle
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "harness", "analysis", "scenario_io", "traffic", "throttles")
SPANNED = ("load_scenario", "run_batch", "run_once", "summarize", "run_stream",
           "build_throttle", "generate_stream", "export_report",
           "export_trace_csv", "export_windowed_rates_csv", "check_req_a",
           "check_req_b", "check_req_c", "survey_recovery",
           "probe_recovery_times")
KINDS = ("token_bucket", "rate_gapper", "mixed")


class Tracer:
    """Spans (name, start, end, parent index) kept in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter() - self._t0, None,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter() - self._t0
            self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Route the inter-module calls of gapcraft through span wrappers."""
        saved = []
        for mod_name in MODULES:
            mod = importlib.import_module(f"gapcraft.{mod_name}")
            for attr in SPANNED:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn):
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_time_by_module(self) -> dict[str, float]:
        """Span duration minus its children's, summed per module."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start - c)
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced_run(wl, seconds: float, session, work: Path):
    """Alternate untraced and traced iterations for half the run, then take
    the per-layer numbers.  Returns (metric values, context, errors, tracer)."""
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds / 2:
        untraced.append(session.iterate())
        with tracer.patched():
            traced.append(session.iterate(tracer))
    n_iter = len(traced)
    by_module = {m: s / n_iter for m, s in tracer.self_time_by_module().items()}
    run_once = [1e3 * d for d in tracer.durations("harness.run_once")]
    values = {
        "cli.self_s": by_module.get("cli", 0.0),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "harness.run_once_ms.p50": statistics.median(run_once),
        "harness.run_once_ms.p90": percentile(run_once, 0.9),
        "harness.run_once_ms.n": len(run_once),
    }
    layer_values, layer_errors = layer_metrics(wl, work)
    values.update(layer_values)
    context = {
        "traced_iterations": n_iter,
        "untraced_run_s": untraced,
        "traced_run_s": traced,
        "self_s_by_module": by_module,
    }
    return values, context, layer_errors, tracer


def _median_s(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kind_configs(scenario) -> dict:
    """One strategy config per throttle kind; a kind the scenario lacks is
    derived from its mixed strategy, which carries watermarks, timers and
    shares."""
    by_kind = {}
    for cfg in scenario.strategies:
        by_kind.setdefault(cfg.kind, cfg)
    mixed = by_kind["mixed"]
    return {kind: by_kind.get(kind) or dataclasses.replace(mixed, name=kind, kind=kind)
            for kind in KINDS}


def layer_metrics(wl, work: Path):
    """Per-layer numbers on the first scenario of the workload."""
    from gapcraft.analysis import check_req_a, check_req_c, survey_recovery
    from gapcraft.estimator import EstimatorState, estimator_update
    from gapcraft.harness import (build_throttle, export_report,
                                  export_trace_csv, run_batch, run_once,
                                  run_stream, summarize)
    from gapcraft.scenario_io import load_scenario
    from gapcraft.throttles import compute_bound_rates
    from gapcraft.traffic import generate_stream

    errors = []
    v = {}
    sf, scenario = wl.units[0].scenario()
    if wl.tiny:
        scenario = dataclasses.replace(scenario, replications=2)
    spec = scenario.stream_spec
    nc = spec.num_classes

    v["scenario_io.load_ms"] = 1e3 * sum(
        _median_s(lambda p=p: load_scenario(p), 5) for p in wl.scenario_paths)

    per_offer = []
    for rep in range(min(scenario.replications, 5)):
        t0 = perf_counter()
        n = len(generate_stream(spec, rep))
        per_offer.append((perf_counter() - t0) / n)
    v["traffic.us_per_offer"] = 1e6 * statistics.median(per_offer)

    offers = generate_stream(spec, 0)
    n_offers = len(offers)
    triples = [(o.arrival, o.class_id, o.priority) for o in offers]
    times = [o.arrival for o in offers]

    rate_at = scenario.capacity.rate_at

    def rate_pass():
        for t in times:
            rate_at(t)
    v["types.rate_at_ns"] = 1e9 * _median_s(rate_pass) / n_offers

    overhead = 0.0
    for kind, cfg in kind_configs(scenario).items():
        def admit_pass(cfg=cfg):
            admit = build_throttle(cfg, scenario).admit
            for t, k, j in triples:
                admit(t, k, j)

        def decide_pass(cfg=cfg):
            decide = build_throttle(cfg, scenario).decide
            for o in offers:
                decide(o)

        def stream_pass(cfg=cfg):
            run_stream(offers, build_throttle(cfg, scenario), cfg.name, nc)

        admit_s = _median_s(admit_pass)
        v[f"throttles.{kind}.admit_us"] = 1e6 * admit_s / n_offers
        v[f"throttles.{kind}.decide_us"] = 1e6 * _median_s(decide_pass) / n_offers
        overhead += _median_s(stream_pass) - admit_s

        throttle = build_throttle(cfg, scenario)
        admitted = sum(throttle.admit(t, k, j) for t, k, j in triples)
        v[f"throttles.{kind}.admit_frac"] = admitted / n_offers
        clone = throttle.clone
        n_clones = 20000

        def clone_pass():
            for _ in range(n_clones):
                clone()
        v[f"throttles.{kind}.clone_us"] = 1e6 * _median_s(clone_pass) / n_clones

        if kind == "rate_gapper":
            args = (throttle.rho, throttle.shares, rate_at(times[-1]),
                    cfg.variant, cfg.normalize)
            n_calls = 20000

            def bound_pass():
                for _ in range(n_calls):
                    compute_bound_rates(*args)
            v["throttles.bound_rates_us"] = 1e6 * _median_s(bound_pass) / n_calls
            timer = cfg.timers[0]

            def estimator_pass():
                state = EstimatorState()
                for t in times:
                    state = estimator_update(state, t, 1, timer)
            v["estimator.update_us"] = 1e6 * _median_s(estimator_pass) / n_offers
    v["harness.run_stream_overhead_us"] = 1e6 * overhead / (n_offers * len(KINDS))

    results = [run_once(scenario, rep) for rep in range(scenario.replications)]
    v["harness.result_pickle_kb"] = len(pickle.dumps(results[0])) / 1024
    report = summarize(results)
    v["harness.summarize_ms"] = 1e3 * _median_s(lambda: summarize(results))
    v["harness.export_report_ms"] = 1e3 * _median_s(
        lambda: export_report(report, work / "layer.report.json"))

    a_cfg = sf.requirements.get("A", {})
    a_window = float(a_cfg.get("window", scenario.window))
    a_tol = float(a_cfg.get("tolerance", 0.05))
    c_window = float(sf.requirements.get("C", {}).get("window", scenario.window))
    req_a, req_c = [], []
    for res in results[:6]:
        for cfg in scenario.strategies:
            sr = res.strategies[cfg.name]
            t0 = perf_counter()
            check_req_a(sr, scenario.capacity, a_window, a_tol)
            req_a.append(perf_counter() - t0)
            shares = cfg.shares if cfg.shares is not None else (1.0,) * nc
            if len(shares) != nc:
                continue
            t0 = perf_counter()
            check_req_c(sr, shares, scenario.capacity, spec.profiles, c_window)
            req_c.append(perf_counter() - t0)
    v["analysis.req_a_ms"] = 1e3 * statistics.median(req_a)
    v["analysis.req_c_ms"] = 1e3 * statistics.median(req_c)
    v["analysis.windows"] = max(1, math.ceil(results[0].end_time / a_window))
    v["analysis.capacity_segments"] = len(scenario.capacity.segments)
    del results, report

    traced_result = run_once(dataclasses.replace(scenario, trace=True), 0)
    v["harness.export_trace_ms"] = 1e3 * _median_s(
        lambda: export_trace_csv(traced_result, work / "layer.trace.csv"))
    del traced_result

    b_cfg = sf.requirements.get("B", {})
    step = float(b_cfg.get("step", 0.25))
    horizon = float(b_cfg.get("horizon", 30.0))
    sample_every = int(b_cfg.get("sample_every", 1))
    class_id = int(b_cfg.get("class_id", 0))
    n_steps = int(horizon / step + 1e-9)
    wanted = b_cfg.get("strategies")
    survey_s, probes, hits = 0.0, 0, 0
    for cfg in scenario.strategies:
        if wanted is not None and cfg.name not in wanted:
            continue
        throttle = build_throttle(cfg, scenario)
        t0 = perf_counter()
        verdicts = survey_recovery(offers, throttle, step, horizon,
                                   sample_every, class_id)
        survey_s += perf_counter() - t0
        for verdict in verdicts:
            t_rej = verdict.evidence["rejected_at"]
            for t in verdict.evidence["recovery_times"].values():
                if t is None:
                    probes += n_steps
                else:
                    probes += round((t - t_rej) / step)
                    hits += 1
    v["analysis.req_b_survey_ms"] = 1e3 * survey_s
    v["analysis.req_b_probes"] = probes
    v["analysis.req_b_hit_ratio"] = hits / probes if probes else 0.0

    t0 = perf_counter()
    serial = run_batch(scenario, workers=1)
    t1 = perf_counter()
    parallel = run_batch(scenario, workers=2)
    t2 = perf_counter()
    v["harness.fanout_speedup"] = (t1 - t0) / (t2 - t1)
    if serial.to_json() != parallel.to_json():
        errors.append("run_batch(workers=2) report differs from the serial one")
    return v, errors

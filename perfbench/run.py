"""gapcraft benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through the public CLI,
``gapcraft.cli.main``, in this process, for at least S seconds, checks the
outputs, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.  A
``context`` line before it records what ran and the sample counts.
All times are host wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = workloads.ROOT / "BENCHMARK.json"
WORK = HERE / "work"

# What a fresh process pays before its first decision: interpreter start,
# ``import gapcraft``, and loading and validating the scenario files.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import gapcraft
from gapcraft.scenario_io import load_scenario
for path in sys.argv[2:]:
    load_scenario(path)
"""


class Session:
    """Runs a workload's commands through ``gapcraft.cli.main`` and keeps a
    digest of every iteration's outputs."""

    def __init__(self, wl):
        from gapcraft import cli

        self.cli = cli
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.snapshots: list[dict] = []
        self.stdout: list[str] = []

    def iterate(self, tracer=None) -> float:
        """One pass over the workload's commands; returns their wall time."""
        elapsed = 0.0
        stdout = []
        codes = []
        # Each iteration writes fresh files, as a user's run would: on ext4,
        # rewriting a file truncated in place forces its writeback on close.
        for path in self.wl.outputs:
            path.unlink(missing_ok=True)
        for argv in self.wl.commands:
            buf = io.StringIO()
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            self.attempted += 1
            t0 = perf_counter()
            try:
                with span, contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            except Exception as exc:  # a raising command is a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed += perf_counter() - t0
            if code not in (0, 1):  # exit 1 from check is a verdict
                self.failed += 1
                self.errors.append(f"{argv[0]}: {code}")
            stdout.append(buf.getvalue())
            codes.append(code)
        snap = {f"cmd{i}": [str(code), _sha(out.encode())]
                for i, (code, out) in enumerate(zip(codes, stdout))}
        for path in self.wl.outputs:
            snap[path.name] = _sha(path.read_bytes()) if path.exists() else "missing"
        self.snapshots.append(snap)
        self.stdout = stdout
        return elapsed

    def output_sha(self) -> str:
        return _sha(json.dumps(self.snapshots[-1], sort_keys=True).encode())

    def check(self, vectors) -> list[str]:
        """Errors in the outputs; empty when every check passes."""
        import fingerprint

        errors = list(self.errors)
        if any(s != self.snapshots[0] for s in self.snapshots):
            errors.append("outputs differ between iterations of the run")
        for label, path in self.wl.reports.items():
            if path.exists():
                errors += fingerprint.check_report(
                    json.loads(path.read_text()), vectors, label)
        if self.wl.trace_csv is not None and self.wl.trace_csv.exists():
            errors += fingerprint.check_trace_csv(
                self.wl.trace_csv, vectors, self.wl.units[0].label)
        units = {str(u.path): u for u in self.wl.units}
        for argv, out in zip(self.wl.commands, self.stdout):
            if argv[0] != "check":
                continue
            unit = units[argv[1]]
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                errors.append(f"check on {unit.label} printed no verdict JSON")
                continue
            sf, _ = unit.scenario()
            errors += fingerprint.check_verdicts(doc, sf, unit.replications)
        return errors


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def setup_s(wl, env) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(workloads.SRC),
                    *map(str, wl.scenario_paths)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return perf_counter() - t0


def context_of(wl, seed: int) -> dict:
    import numpy

    import gapcraft

    return {
        "workload": wl.name,
        "seed": seed,
        "tiny": wl.tiny,
        "gapcraft": gapcraft.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "scenario_sha256": wl.scenario_hashes(),
    }


def run(args) -> tuple[dict, dict]:
    import fingerprint

    wl_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.build(args.workload, args.seed, wl_dir, args.tiny)
        context = context_of(wl, args.seed)
        session = Session(wl)
        values = {}
        errors = []
        if args.trace:
            import tracing

            layer, trace_ctx, errors, tracer = tracing.traced_run(
                wl, args.seconds, session, wl_dir)
            values.update(layer)
            context.update(trace_ctx)
            context["samples"] = {"harness.run_once_ms": layer["harness.run_once_ms.n"]}
        else:
            env = {k: v for k, v in os.environ.items() if k != "GAPCRAFT_THREADS"}
            # Setup samples are spread over the run, so that a short burst of
            # load on the machine skews few of them.
            setups = [setup_s(wl, env) for _ in range(3)]
            runs = []
            start = perf_counter()
            while not runs or perf_counter() - start < args.seconds:
                setups += [setup_s(wl, env) for _ in range(2)]
                runs.append(session.iterate())
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            values["setup_s"] = statistics.median(setups)
            values["run_s"] = statistics.median(runs)
            context["samples"] = {"setup_s": len(setups), "run_s": len(runs)}
            context["run_s_samples"] = runs

        vectors = fingerprint.decision_vectors(wl.units)
        decisions = wl.passes * sum(len(bits) for bits in vectors.values())
        if args.trace:
            values["traffic.offers"] = wl.passes * fingerprint.distinct_offers(vectors)
        else:
            values["decisions_per_s"] = decisions / values["run_s"]
        fp = fingerprint.fingerprint(vectors)
        # The reference holds full-size workloads only.
        match = None if wl.tiny else fingerprint.reference_match(
            fingerprint.load_reference(), wl.name, args.seed, fp)
        errors += session.check(vectors)
        if match is False:
            errors.append("decision fingerprint differs from reference.json")
        context.update({
            "decisions_per_iteration": decisions,
            "fingerprint": fp,
            "fingerprint_match": match,
            "output_sha": session.output_sha(),
            "failed_frac": session.failed / session.attempted,
            "errors": errors,
        })
        if args.trace:
            spans = WORK / f"spans-{wl.name}-seed{args.seed}.json"
            spans.write_text(json.dumps({
                "workload": wl.name, "seed": args.seed,
                "self_s_by_module": context["self_s_by_module"],
                "spans": tracer.dump()}))
            context["spans_file"] = str(spans.relative_to(workloads.ROOT))
        result = {
            "correct": not errors,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": values,
        }
        return result, context
    finally:
        shutil.rmtree(wl_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the self-tests)")
    args = parser.parse_args(argv)
    if not (workloads.SRC / "gapcraft").is_dir():
        print(f"perfbench: no gapcraft sources at {workloads.SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GAPCRAFT_THREADS", None)
    sys.path.insert(0, str(workloads.SRC))
    WORK.mkdir(exist_ok=True)

    result, context = run(args)
    declared = json.loads(BENCHMARK.read_text())
    names = declared["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in names}
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

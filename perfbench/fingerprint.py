"""Decision fingerprints and the output checks that fail a benchmark run.

The decision vectors come from the online scalar API -- ``generate_stream``,
``build_throttle`` and ``throttle.admit`` -- which is the oracle every faster
path must agree with.  The fingerprint hashes the admit/reject vector of
every (scenario, replication, strategy) a workload decides.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def decision_vectors(units) -> dict[tuple[str, int, str], bytes]:
    """Admit (1) / reject (0) bytes per (unit label, replication, strategy)."""
    from gapcraft.harness import build_throttle
    from gapcraft.traffic import generate_stream

    vectors = {}
    for unit in units:
        _, scenario = unit.scenario()
        for rep in range(unit.replications):
            offers = generate_stream(scenario.stream_spec, rep)
            for cfg in scenario.strategies:
                admit = build_throttle(cfg, scenario).admit
                vectors[(unit.label, rep, cfg.name)] = bytes(
                    admit(o.arrival, o.class_id, o.priority) for o in offers)
    return vectors


def fingerprint(vectors) -> str:
    h = hashlib.sha256()
    for (label, rep, name), bits in sorted(vectors.items()):
        h.update(f"{label}/{rep}/{name}:{len(bits)}\n".encode())
        h.update(bits)
    return h.hexdigest()[:32]


def distinct_offers(vectors) -> int:
    """Offers the vectors cover, counting each (label, replication) once."""
    seen = {}
    for (label, rep, _), bits in vectors.items():
        seen[(label, rep)] = len(bits)
    return sum(seen.values())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def reference_match(reference: dict, workload: str, seed: int, fp: str):
    """True/False against the recorded fingerprint; None without a record."""
    want = reference.get("fingerprints", {}).get(workload, {}).get(str(seed))
    return None if want is None else want == fp


def check_report(report: dict, vectors, label: str) -> list[str]:
    """The report's admitted/rejected means must equal the vectors' counts."""
    errors = []
    per_strategy = {}
    for (lab, rep, name), bits in vectors.items():
        if lab == label:
            per_strategy.setdefault(name, {})[rep] = bits
    if set(report.get("strategies", {})) != set(per_strategy):
        return [f"{label}: report strategies {sorted(report.get('strategies', {}))}"
                f" != decided {sorted(per_strategy)}"]
    for name, reps in per_strategy.items():
        n = len(reps)
        if report["replications"] != n:
            errors.append(f"{label}: report has {report['replications']} "
                          f"replications, decided {n}")
        admitted = [sum(bits) for bits in reps.values()]
        rejected = [len(bits) - a for bits, a in zip(reps.values(), admitted)]
        for key, counts in (("admitted", admitted), ("rejected", rejected)):
            got = report["strategies"][name][key]["mean"]
            want = math.fsum(counts) / n
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9):
                errors.append(f"{label}/{name}: report {key} mean {got} != {want}")
    return errors


def check_trace_csv(path: Path, vectors, label: str) -> list[str]:
    """The trace CSV's decision column must equal replication 0's vectors."""
    decided = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            decided.setdefault(row["strategy"], bytearray()).append(
                row["decision"] == "admit")
    want = {name: bits for (lab, rep, name), bits in vectors.items()
            if lab == label and rep == 0}
    if set(decided) != set(want):
        return [f"trace strategies {sorted(decided)} != decided {sorted(want)}"]
    return [f"trace decisions of {name} differ from the scalar API"
            for name, bits in want.items() if bytes(decided[name]) != bits]


def check_verdicts(doc: dict, scenario_file, replications: int) -> list[str]:
    """One verdict per (requirement, strategy) the requirements block asks for."""
    want = set()
    for req, cfg in scenario_file.requirements.items():
        names = cfg.get("strategies")
        want.update((req, s.name) for s in scenario_file.scenario.strategies
                    if names is None or s.name in names)
    got = {(v["requirement"], v["strategy"]) for v in doc.get("verdicts", [])}
    errors = [] if got == want else [f"verdicts {sorted(got)} != {sorted(want)}"]
    for v in doc.get("verdicts", []):
        n = v["evidence"].get("replications")
        if n is not None and n != replications:
            errors.append(f"verdict {v['requirement']}/{v['strategy']} judged "
                          f"{n} replications, expected {replications}")
    return errors

"""Fast self-tests of the benchmark, on shrunken workloads.

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

import fingerprint  # noqa: E402

DECLARED = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = workloads.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, context, result = proc.stdout.strip().splitlines()
    return json.loads(context)["context"], json.loads(result)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = _parse(_run(workload, trace))
        return cache[workload, trace]
    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_prints_every_metric_with_its_unit(runs, workload, trace):
    context, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], context["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_same_seed_gives_same_fingerprint_and_outputs(runs):
    first, _ = runs("diagnose", 0)
    again, _ = _parse(_run("diagnose", 0))
    assert first["fingerprint"] == again["fingerprint"]
    assert first["output_sha"] == again["output_sha"]


def test_perturbed_decision_vector_fails_the_checks(tmp_path):
    from gapcraft.harness import run_batch

    wl = workloads.build("replicate", 3, tmp_path, tiny=True)
    vectors = fingerprint.decision_vectors(wl.units)
    unit = wl.units[0]
    _, scenario = unit.scenario()
    report = json.loads(run_batch(
        dataclasses.replace(scenario, replications=unit.replications)).to_json())
    assert fingerprint.check_report(report, vectors, unit.label) == []

    key = (unit.label, 0, scenario.strategies[0].name)
    bits = bytearray(vectors[key])
    bits[len(bits) // 2] ^= 1
    perturbed = {**vectors, key: bytes(bits)}
    reference = {"fingerprints": {"replicate": {"3": fingerprint.fingerprint(vectors)}}}
    assert fingerprint.reference_match(
        reference, "replicate", 3, fingerprint.fingerprint(vectors)) is True
    assert fingerprint.reference_match(
        reference, "replicate", 3, fingerprint.fingerprint(perturbed)) is False
    assert fingerprint.check_report(report, perturbed, unit.label)


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run("replicate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

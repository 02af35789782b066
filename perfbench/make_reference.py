"""Record the decision fingerprints that run.py compares every run against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for each workload and each seed in SEEDS,
the fingerprint of the full-size workload's admit/reject vectors.  Rerun it
only in a change that means to alter decisions, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

import fingerprint  # noqa: E402

SEEDS = range(100)


def main() -> int:
    import gapcraft

    work = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE))
    try:
        table = {}
        for name in workloads.NAMES:
            table[name] = {}
            for seed in SEEDS:
                wl = workloads.build(name, seed, work)
                fp = fingerprint.fingerprint(fingerprint.decision_vectors(wl.units))
                table[name][str(seed)] = fp
                print(name, seed, fp, flush=True)
    finally:
        shutil.rmtree(work)
    doc = {"gapcraft": gapcraft.__version__, "fingerprints": table}
    fingerprint.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

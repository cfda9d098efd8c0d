"""Regenerate the committed reference outputs for the reference seed.

Run from the repository root: ``PYTHONPATH=src python3 bench/reference.py``.
Every workload runs serially (workers=1), so the parallel workload is checked
against the serial result.  Nothing is written if an invariant fails.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
from workloads import REFERENCE_SEED, WORKLOADS, operations


def main() -> int:
    check.ignore_known_warnings()
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir="."))
    try:
        for name, workload in WORKLOADS.items():
            ops = operations(name, REFERENCE_SEED, tmp, serial=True)
            outputs = {op_name: op() for op_name, op in ops}
            problems = [p for out in outputs.values() for p in check.invariants(out)]
            if problems:
                print(f"{name}: invariants fail, reference not written", *problems, sep="\n  ")
                return 1
            doc = {"seed": REFERENCE_SEED, "trials": workload.trials, "outputs": outputs}
            check.REFERENCE_DIR.mkdir(exist_ok=True)
            path = check.reference_path(name)
            path.write_text(json.dumps(doc, allow_nan=True) + "\n", encoding="utf-8")
            print(f"{name}: wrote {path}")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the benchmark on several seeds and record the numbers as a baseline.

Run from the repository root:

    python3 bench/baseline.py                      # writes bench/baseline.json

Each workload runs untraced once per seed in ``SEEDS`` and traced once per
seed in ``TRACED_SEEDS``, for ``run_seconds`` of BENCHMARK.json.  For every
metric it prints and records the median over runs, the quartiles, and the
spread: (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "values": values}
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        plain = summarize([_run(workload, s, 0, seconds) for s in SEEDS])
        for name, m in plain.items():
            print(f"{workload:<14} {name:<12} median {m['median']:10.4f} {m['unit']:<3} "
                  f"spread {m['spread']:.4f} (bound {bounds[name]}, "
                  f"target < {bounds[name] / 3:.4f})", flush=True)
        traced = summarize([_run(workload, s, 1, seconds) for s in TRACED_SEEDS])
        doc["workloads"][workload] = {
            "end_to_end": plain,
            "per_layer": {k: {"unit": m["unit"], "median": m["median"]}
                          for k, m in traced.items()},
        }
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter; prints its record as one JSON line.

Run by ``run.py``; a CLI user pays the import on every run, so each pass
starts from a new interpreter and times the import as its set-up.
"""

import time

_T0 = time.perf_counter()
import isacsim  # noqa: E402
import isacsim.cli  # noqa: E402,F401
import isacsim.experiments  # noqa: E402,F401

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import REFERENCE_SEED, operations  # noqa: E402


def _cpu_s() -> float:
    """CPU time of this process and of its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload: str, seed: int, out_dir: Path, tracer: Tracer | None) -> dict:
    ops = operations(workload, seed, out_dir)
    reference = check.load_reference(workload) if seed == REFERENCE_SEED else None
    if tracer is not None:
        tracer.wrap()
    record = {"seed": seed, "setup_s": SETUP_S, "ops": {}, "errors": []}
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        for name, op in ops:
            digest = None
            try:
                outputs = op()
                problems = check.invariants(outputs)
                if reference is not None:
                    problems += check.compare(outputs, reference[name])
                if not problems:
                    digest = check.digest(outputs)
            except Exception:  # an operation that raises is counted as failed
                problems = [traceback.format_exc()]
            record["ops"][name] = digest
            record["errors"] += [f"{name}: {p}" for p in problems]
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.unwrap()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["spans"] = tracer.spans
        record["layers"] = {**layer_metrics(tracer.spans), **tracer.counts}
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check.ignore_known_warnings()
    tracer = Tracer(args.pass_id) if args.trace else None
    record = run_pass(args.workload, args.seed, args.out_dir, tracer)
    print(json.dumps(record, allow_nan=True))


if __name__ == "__main__":
    main()

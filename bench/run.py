"""Scenario benchmark for isacsim.

Run from the repository root:

    python3 bench/run.py --workload af-cuts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, reference seed

A run is a closed loop: one caller starts one pass at a time, each in a fresh
interpreter (``child.py``), until the next pass would end after ``--seconds``
(at least three passes; a traced run alternates untraced and traced passes,
at least two of each).  The first pass uses the reference seed and the others
``--seed``.  Every pass checks its outputs.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json, or with ``--trace 1``
its per-layer metrics.  Each run also writes its record, spans included, to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import LAYERS  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, nproc  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
RUN_LIMIT_S = 160.0  # no pass starts later than this; a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    """Commit of the checkout, or "unknown" when it is not a git repository."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _meta(seed: int) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
        "trials": {name: w.trials for name, w in WORKLOADS.items()},
        "workers": {name: w.workers for name, w in WORKLOADS.items()},
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _child(args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run ``child.py`` with ``args``; its record, or None and the reason."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    # own session, so a timeout also stops the pool workers it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exited with code {proc.returncode}"
    return json.loads(stdout.strip().splitlines()[-1]), ""


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop of passes; returns ``(traced, record)`` pairs and errors.

    The first pass uses the reference seed, so that every run compares its
    outputs with the committed reference; the others use ``seed``.
    """
    run_dir = OUT / f"run-{os.getpid()}"
    start = time.monotonic()
    passes, errors = [], []
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        began = time.monotonic()
        limit = RUN_LIMIT_S + 10.0 - (began - start)
        pass_seed = REFERENCE_SEED if k == 0 else seed
        record, why = _child(["--workload", workload, "--seed", str(pass_seed),
                              "--out-dir", str(run_dir / f"pass{k}"), "--pass-id", str(k),
                              "--trace", str(int(traced))], limit)
        shutil.rmtree(run_dir / f"pass{k}", ignore_errors=True)
        passes.append((traced, record))
        if record is None:
            errors.append(f"pass {k} {why}")
            break
        errors += [f"pass {k}: {e}" for e in record["errors"]]
        now = time.monotonic()
        n_traced = sum(t for t, _ in passes)
        n_plain = len(passes) - n_traced
        enough = (n_plain >= 2 and n_traced >= 2) if trace else n_plain >= MIN_PASSES
        if now - start + (now - began) > (seconds if enough else RUN_LIMIT_S):
            break
    shutil.rmtree(run_dir, ignore_errors=True)
    return passes, errors


def tally(workload: str, passes) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all passes.

    An operation fails when it raised, failed a check, or gave outputs that
    differ from an earlier pass with the same seed.
    """
    n_ops = len(WORKLOADS[workload].op_names)
    attempted = failed = 0
    first: dict[tuple[int, str], str] = {}
    errors = []
    for k, (_, record) in enumerate(passes):
        attempted += n_ops
        if record is None:
            failed += n_ops
            continue
        for op, digest in record["ops"].items():
            if digest is None:
                failed += 1
            elif first.setdefault((record["seed"], op), digest) != digest:
                failed += 1
                errors.append(f"pass {k}: {op}: outputs differ from an earlier pass")
    return attempted, failed, errors


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(passes, attempted: int, failed: int) -> dict[str, float]:
    plain = [r for t, r in passes if r is not None and not t]
    # every pass, traced or not, starts a fresh interpreter and times its import
    setups = [r["setup_s"] for _, r in passes if r is not None]
    return {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "failed_frac": failed / attempted,
    }


def per_layer(passes, names) -> dict[str, float]:
    traced = [r for t, r in passes if r is not None and t]
    plain = [r for t, r in passes if r is not None and not t]
    columns = {name: [] for name in names}
    for r in traced:
        layers = r["layers"]
        values = {
            **layers,
            "pass.cpu_s": r["cpu_s"],
            "trace.unattributed_s": r["wall_s"] - sum(layers[f"{l}.self_s"] for l in LAYERS),
        }
        for name in names:
            columns[name].append(values.get(name, 0))
    out = {name: _median(v) for name, v in columns.items()}
    out["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                               - _median([r["wall_s"] for r in plain]))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    passes, errors = run_passes(workload, seed, seconds, trace)
    attempted, failed, mismatches = tally(workload, passes)
    errors += mismatches
    e2e = end_to_end(passes, attempted, failed)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(passes, [m["name"] for m in wanted]) if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    meta = {**_meta(seed), "workload": workload, "trace": int(trace), "passes": len(passes)}
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "end_to_end": e2e, "errors": errors,
              "passes": [{k: v for k, v in (r or {}).items() if k != "spans"} | {"traced": t}
                         for t, r in passes],
              "spans": [s for t, r in passes if t and r for s in r["spans"]]}
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, allow_nan=True) + "\n", encoding="utf-8")

    for e in errors:
        print(f"error: {workload}: {e}", file=sys.stderr)
    print(f"# {workload}: seed={seed} passes={len(passes)} traced={trace} "
          f"commit={meta['commit'][:12]} nproc={meta['nproc']} python={meta['python']} "
          f"numpy={meta['numpy']} scipy={meta['scipy']} trials={WORKLOADS[workload].trials} "
          f"workers={WORKLOADS[workload].workers} record={path.relative_to(ROOT)}")
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
    for name, value in e2e.items():
        print(f"  {name:<14} {value:>12.6g} {units[name]}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return result


def main() -> int:
    if not (ROOT / "src" / "isacsim" / "__init__.py").is_file():
        print("bench/run.py: run from the repository root; src/isacsim not found",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
               for w in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

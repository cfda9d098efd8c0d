"""Spans and counters recorded around the public functions of each isacsim layer.

The tracer patches functions from outside the package.  A name bound with
``from .pa import sel_amplify`` is copied into the importing module at import
time, so each function is replaced in every loaded ``isacsim`` module whose
namespace holds the original object, and restored in all of them by
:meth:`Tracer.unwrap`.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Layer (module) -> public functions wrapped in the traced run.
LAYERS: dict[str, tuple[str, ...]] = {
    "signaling": ("draw_symbols", "synthesize", "add_cp"),
    "pa": ("sel_amplify", "estimate_bussgang"),
    "ambiguity": ("cross_af", "average_af", "aaf", "paf", "sidelobe_metrics"),
    "analytic": (
        "lag_correlation",
        "sel_zero_doppler_cut",
        "sel_eisl",
        "sel_zero_delay_cut",
        "bussgang_af_decompose",
    ),
    "channel": ("apply_channel", "apply_channel_batch", "add_noise"),
    "radar": ("division_filter", "periodogram"),
    "detect": ("pd_experiment", "calibrate_cfar", "so_cfar"),
    "seeding": ("spawn_rngs", "derive_rng"),
    "experiments": ("run_scenario",),
}


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _count_cross_af(args, result, seconds, counts):
    u = args["u"]
    rows = math.prod(u.shape[:-1])
    n = u.shape[-1]
    n_lags = n if args["mode"].value == "periodic" else 2 * n - 1
    counts["ambiguity.realizations"] += rows
    # the lag-product tensor cross_af materializes, from argument shapes
    counts["ambiguity.lag_product_bytes"] += rows * n_lags * n * result.itemsize


def _count_pd_experiment(args, result, seconds, counts):
    n_per, _ = args["pipeline"].grids()
    counts["detect.cells"] += args["trials"] * result.snr_db.size * n_per


def _count_calibrate(args, result, seconds, counts):
    cut_len = args["cut_len"]
    counts["detect.calibrate_cells"] += math.ceil(args["trials"] / cut_len) * cut_len


def _count_scenario(args, manifest, seconds, counts):
    scenario = args["config"].scenario
    counts[f"experiments.{scenario}_s"] += seconds
    out_dir = Path(args["config"].out_dir) / scenario
    for name in [*manifest.files, "manifest.json"]:
        counts["experiments.bytes_written"] += (out_dir / name).stat().st_size


def _add(key: str, value):
    def count(args, result, seconds, counts):
        counts[key] += value(args)

    return count


# Work counted at the layer boundary, from arguments and results.
COUNTERS = {
    "signaling.synthesize": _add("signaling.samples", lambda a: _size(a["symbols"])),
    "pa.sel_amplify": _add("pa.samples", lambda a: _size(a["signal"])),
    "pa.estimate_bussgang": _add("pa.bussgang_trials", lambda a: a["trials"]),
    "ambiguity.cross_af": _count_cross_af,
    "analytic.sel_zero_doppler_cut": _add("analytic.cut_evals", lambda a: 1),
    "channel.add_noise": _add("channel.samples", lambda a: _size(a["signal"])),
    "detect.so_cfar": _add("detect.cells", lambda a: _size(a["cut"])),
    "detect.pd_experiment": _count_pd_experiment,
    "detect.calibrate_cfar": _count_calibrate,
    "experiments.run_scenario": _count_scenario,
}


class Tracer:
    """In-memory spans ``[id, name, start, end, parent_id, pass_id]`` plus counts.

    Single-threaded: the span stack assumes calls nest, which holds for the
    closed-loop benchmark (pool workers run in other processes and record
    nothing here).
    """

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [span_id, name, time.perf_counter(), None, parent, self.pass_id]
            self.spans.append(record)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, result, record[3] - record[2], self.counts)
            return result

        return traced

    def _pool_factory(self, pool_cls):
        @functools.wraps(pool_cls)
        def make_pool(*args, **kwargs):
            self.counts["detect.pool_starts"] += 1
            return pool_cls(*args, **kwargs)

        return make_pool

    def wrap(self) -> None:
        """Patch every listed function in every namespace that holds it."""
        if self._patched:
            raise RuntimeError("tracer is already wrapped")
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "isacsim" or key.startswith("isacsim.")
        ]
        for layer, names in LAYERS.items():
            module = sys.modules[f"isacsim.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._replace(namespaces, name, original,
                              self._wrapper(f"{layer}.{name}", original))
        detect = sys.modules["isacsim.detect"]
        pool_cls = detect.ProcessPoolExecutor
        self._replace([detect], "ProcessPoolExecutor", pool_cls, self._pool_factory(pool_cls))

    def _replace(self, namespaces, name, original, replacement) -> None:
        for ns in namespaces:
            if getattr(ns, name, None) is original:
                setattr(ns, name, replacement)
                self._patched.append((ns, name, original))

    def unwrap(self) -> None:
        """Restore every patched name to the original object."""
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _sid, _name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _name, start, end, *_ in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Self times per layer, and the span-derived call counts, of one pass."""
    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({"ambiguity.calls": 0, "radar.calls": 0,
                "pa.bussgang_s": 0.0, "detect.calibrate_s": 0.0})
    for sid, name, start, end, *_ in spans:
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own[sid]
        if layer in ("ambiguity", "radar"):
            out[f"{layer}.calls"] += 1
        if name == "pa.estimate_bussgang":
            out["pa.bussgang_s"] += own[sid]
        elif name == "detect.calibrate_cfar":
            out["detect.calibrate_s"] += own[sid]
    return out

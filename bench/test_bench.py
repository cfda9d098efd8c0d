"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repository root."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import isacsim  # noqa: E402
import isacsim.cli  # noqa: E402,F401
import isacsim.experiments  # noqa: E402,F401
from isacsim import detect  # noqa: E402
from isacsim.channel import Target  # noqa: E402
from isacsim.pa import PaConfig, limiter_compression_power  # noqa: E402
from isacsim.seeding import derive_rng  # noqa: E402
from isacsim.signaling import FrameConfig, parse_basis, parse_constellation  # noqa: E402

import check  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_times_of_a_nested_span_tree():
    # [id, name, start, end, parent, pass]
    spans = [
        [0, "experiments.run_scenario", 0.0, 10.0, None, 0],
        [1, "ambiguity.average_af", 1.0, 7.0, 0, 0],
        [2, "signaling.synthesize", 1.5, 2.5, 1, 0],
        [3, "ambiguity.cross_af", 3.0, 6.0, 1, 0],
        [4, "pa.sel_amplify", 8.0, 9.5, 0, 0],
    ]
    assert self_times(spans) == {0: 2.5, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.5}
    layers = layer_metrics(spans)
    assert layers["experiments.self_s"] == 2.5
    assert layers["ambiguity.self_s"] == 5.0  # nested same-layer spans both count
    assert layers["signaling.self_s"] == 1.0
    assert layers["pa.self_s"] == 1.5
    assert layers["ambiguity.calls"] == 2
    assert sum(layers[f"{layer}.self_s"] for layer in LAYERS) == 10.0


def _bindings():
    """Every (module, name) -> object for the names the tracer may patch."""
    names = {n for group in LAYERS.values() for n in group} | {"ProcessPoolExecutor"}
    return {
        (key, name): getattr(mod, name)
        for key, mod in sys.modules.items()
        if key == "isacsim" or key.startswith("isacsim.")
        for name in names
        if hasattr(mod, name)
    }


def test_unwrap_restores_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    tracer.wrap()
    during = _bindings()
    # a name bound by ``from .x import f`` is patched where it was copied to
    for key in [("isacsim.experiments", "draw_symbols"), ("isacsim.analytic", "cross_af"),
                ("isacsim.detect", "sel_amplify"), ("isacsim", "aaf"),
                ("isacsim.detect", "ProcessPoolExecutor")]:
        assert during[key] is not before[key]
    assert all(during[k] is not v for k, v in before.items())
    tracer.unwrap()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_compare_flags_a_1e9_perturbation_of_one_reference_column():
    reference = check.load_reference("af-cuts")["fig-zero-doppler-cp"]
    assert check.compare(copy.deepcopy(reference), reference) == []
    key = "zero_doppler_cp.csv/nonlinear_qam_ibo1"
    outputs = copy.deepcopy(reference)
    scale = max(abs(v) for v in outputs[key])
    outputs[key][5] += 1e-9 * scale
    problems = check.compare(outputs, reference)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_invariants_flag_a_cut_not_normalized_at_lag_zero():
    outputs = copy.deepcopy(check.load_reference("af-cuts")["fig-zero-doppler-cp"])
    assert check.invariants(outputs) == []
    outputs["zero_doppler_cp.csv/linear_psk"][0] = 0.5
    assert check.invariants(outputs) == [
        "zero_doppler_cp.csv/linear_psk: 0.5 dB at lag 0, expected 0"
    ]


def _pool_starts(workers: int) -> int:
    pipeline = detect.PdPipeline(
        constellation=parse_constellation("16-QAM"),
        basis=parse_basis("ofdm", 64),
        frame=FrameConfig(n=64, m=3, cp_len=16),
        pa=PaConfig(v_sat=1.0, ibo=10 ** 0.1, p1db=limiter_compression_power(1.0)),
        cfar=detect.CfarConfig(factor=13.0),
        targets=(Target(b=1.0, delay=4), Target(b=0.1, delay=8)),
    )
    tracer = Tracer()
    tracer.wrap()
    try:
        isacsim.detect.pd_experiment(pipeline, [10.0, 20.0], 10, derive_rng(1, "bench-test"),
                                     workers=workers)
    finally:
        tracer.unwrap()
    assert tracer.counts["detect.cells"] == 10 * 2 * 64
    return tracer.counts["detect.pool_starts"]


def test_pool_starts_is_zero_at_one_worker():
    assert _pool_starts(1) == 0


def test_pool_starts_counts_pools_at_two_workers():
    assert _pool_starts(2) >= 1

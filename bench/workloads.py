"""Benchmark workloads: the isacsim operations one pass runs.

An operation is one scenario run through ``experiments.run_scenario`` or one
batch of library calls.  It returns its outputs as named columns, which
``check.py`` verifies.  isacsim is imported only inside :func:`operations`, so
`run.py` never loads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

#: ``ExperimentConfig``'s default seed; the committed reference outputs are
#: for this seed.
REFERENCE_SEED = 20260815


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[str, ...]
    trials: int
    parallel: bool  # workers = nproc when set, else 1
    library: bool  # also run the full-surface library calls

    @property
    def workers(self) -> int:
        return nproc() if self.parallel else 1

    @property
    def op_names(self) -> list[str]:
        libraries = [f"library-n{n}" for n in LIBRARY_REALIZATIONS] if self.library else []
        return [*self.scenarios, *libraries]


# Why each workload exists is recorded in BENCHMARK.json and README.md.  Trial
# counts make one pass take roughly 4 to 7 s on a 2-CPU machine.
WORKLOADS: dict[str, Workload] = {
    "af-cuts": Workload(
        ("fig-zero-doppler-cp", "fig-basis-comparison-qam", "fig-eislr-vs-n", "fig-pslr-vs-n"),
        trials=600, parallel=False, library=False,
    ),
    "clip-analytic": Workload(
        ("fig-zero-doppler-nocp", "fig-distortion-power", "fig-eisl-vs-n"),
        trials=150, parallel=False, library=True,
    ),
    "detect-chain": Workload(
        ("fig-pd-curves", "fig-pd-ceilings", "fig-cfar-example"),
        trials=700, parallel=False, library=False,
    ),
    "pd-parallel": Workload(
        ("fig-pd-ceilings",),
        trials=700, parallel=True, library=False,
    ),
}

# Full-surface library calls: signal length -> realizations per pass.
LIBRARY_REALIZATIONS = {64: 24, 256: 6}


def _scenario_op(name: str, seed: int, trials: int, workers: int, out_dir: Path):
    from isacsim import experiments

    from check import read_scenario

    def run():
        config = experiments.ExperimentConfig(
            scenario=name, seed=seed, trials=trials, workers=workers, out_dir=str(out_dir),
        )
        experiments.run_scenario(config)
        return read_scenario(out_dir / name)

    return run


def _library_op(n: int, seed: int, trials: int):
    # Module-attribute lookups, so that traced passes see the wrapped functions.
    from isacsim import ambiguity, analytic, pa, seeding, signaling

    def run():
        rng = seeding.derive_rng(seed, "bench/library", n)
        const = signaling.parse_constellation("16-QAM")
        basis = signaling.parse_basis("ofdm", n)
        amp = pa.PaConfig(v_sat=1.0, ibo=10 ** 0.1, p1db=pa.limiter_compression_power(1.0))
        stats = pa.estimate_bussgang(amp, basis, const, trials, rng)
        out = {"bussgang": [stats.kappa.real, stats.kappa.imag, stats.sigma_d2,
                            stats.sdr, stats.d4]}
        sums = {}
        for r in range(LIBRARY_REALIZATIONS[n]):
            x = signaling.synthesize(basis, signaling.draw_symbols(const, n, rng))
            s = pa.sel_amplify(x, amp)
            terms = analytic.bussgang_af_decompose(x, s - stats.kappa * x, stats.kappa)
            surfaces = {"recombined": terms.recombined}
            for label, surface_fn in (("aaf", ambiguity.aaf), ("paf", ambiguity.paf)):
                surf = surface_fn(s)
                met = ambiguity.sidelobe_metrics(surf)
                out[f"{label}/{r}/metrics"] = [met.isl, met.eislr, met.pslr, met.mainlobe]
                surfaces[label] = surf.values
            # surfaces are reduced to their lag and Doppler marginals, summed
            # over realizations
            for label, values in surfaces.items():
                for axis, marginal in ((1, "lag_sum"), (0, "doppler_sum")):
                    key = f"{label}/{marginal}"
                    sums[key] = sums.get(key, 0.0) + values.sum(axis=axis)
        out.update({k: v.tolist() for k, v in sums.items()})
        return out

    return run


def operations(name: str, seed: int, out_dir: Path,
               serial: bool = False) -> list[tuple[str, object]]:
    """``(operation name, zero-argument callable)`` pairs of one pass.

    ``serial`` forces workers=1; the reference outputs come from that path.
    """
    workload = WORKLOADS[name]
    workers = 1 if serial else workload.workers
    ops = [(s, _scenario_op(s, seed, workload.trials, workers, out_dir))
           for s in workload.scenarios]
    if workload.library:
        ops += [(f"library-n{n}", _library_op(n, seed, workload.trials))
                for n in LIBRARY_REALIZATIONS]
    assert [name for name, _ in ops] == workload.op_names
    return ops

"""Named experiment scenarios with CSV output and run manifests.

Each scenario reproduces one figure-sized study (averaged ambiguity cuts,
distortion power sweeps, detection curves, ...) from a single base seed, so
re-running with the same config and seed gives byte-identical CSVs no matter
how many workers are used.  Component streams are derived by stable hashing
of (seed, scenario, tag); all parallelism stays at the trial level and only
the coordinator writes files.

Plots are optional quick-looks rendered from the CSVs after the fact, so a
headless run never needs a plotting backend.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .ambiguity import AfMode, aaf, average_af, sidelobe_metrics, to_db, zero_doppler_cut
from .analytic import lag_correlation, sel_eisl, sel_zero_delay_cut, sel_zero_doppler_cut
from .channel import Target
from .detect import (
    CfarConfig,
    PdPipeline,
    calibrate_cfar,
    pd_experiment,
    sense,
    so_cfar,
    wilson_halfwidth,
)
from .errors import ConfigError, IsacError
from .pa import (
    PaConfig,
    estimate_bussgang,
    kappa_gaussian,
    limiter_compression_power,
    output_power_gaussian,
    sel_amplify,
)
from .radar import periodogram, range_cut
from .seeding import chunk_counts, derive_rng, spawn_rngs
from .signaling import (
    BasisKind,
    ConstellationSpec,
    FrameConfig,
    SignalingBasis,
    draw_symbols,
    parse_basis,
    parse_constellation,
    synthesize,
)


@dataclass
class ExperimentConfig:
    """Run parameters; unset fields fall back to scenario defaults.

    dB-valued keys carry an explicit ``_db`` suffix; everything else is
    linear.  ``targets`` entries are mappings with keys ``b`` (real
    amplitude), ``delay`` (samples) and optional ``doppler``.
    """

    scenario: str = ""
    seed: int = 20260815
    trials: int | None = None
    out_dir: str = "results"
    workers: int = 1
    plots: bool = False
    constellation: str | None = None
    basis: str | None = None
    n: int | None = None
    m: int | None = None
    cp_len: int | None = None
    ibo_db: float | None = None
    v_sat: float | None = None
    p1db: float | None = None
    g: float | None = None
    snr_db_grid: tuple[float, ...] | None = None
    targets: tuple[Target, ...] | None = None
    n_per: int | None = None
    m_per: int | None = None

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "targets" in data and data["targets"] is not None:
            data["targets"] = tuple(
                Target(b=t["b"], delay=int(t["delay"]), doppler=t.get("doppler", 0.0))
                for t in data["targets"]
            )
        if "snr_db_grid" in data and data["snr_db_grid"] is not None:
            data["snr_db_grid"] = tuple(float(v) for v in data["snr_db_grid"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_mapping(data)

    def snapshot(self) -> dict:
        out = asdict(self)
        if out.get("targets") is not None:
            out["targets"] = [
                {"b": t.b, "delay": t.delay, "doppler": t.doppler} for t in self.targets
            ]
        return out


@dataclass
class RunManifest:
    scenario: str
    seed: int
    version: str
    wallclock_s: float
    config: dict
    files: dict[str, str] = field(default_factory=dict)

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


Columns = list[tuple[str, np.ndarray]]


def _write_csv(path: Path, columns: Columns) -> None:
    arrays = [np.asarray(col) for _, col in columns]
    length = arrays[0].shape[0]
    if any(a.shape[0] != length for a in arrays):
        raise ValueError("CSV columns must share a length")

    def fmt(v) -> str:
        if isinstance(v, (np.floating, float)):
            return repr(float(v))
        if isinstance(v, (np.integer, int)):
            return str(int(v))
        return str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for i in range(length):
            writer.writerow([fmt(a[i]) for a in arrays])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


class RunContext:
    """Per-run parameter resolution and seed derivation for scenario code."""

    def __init__(self, config: ExperimentConfig, scenario: str):
        self.config = config
        self.scenario = scenario

    def rng(self, tag: str) -> np.random.Generator:
        return derive_rng(self.config.seed, f"{self.scenario}/{tag}")

    def trials(self, default: int) -> int:
        t = self.config.trials if self.config.trials is not None else default
        if t < 1:
            raise ConfigError("trials must be positive")
        return t

    def frame(self, n: int = 64, m: int = 64, cp_len: int = 16) -> FrameConfig:
        c = self.config
        return FrameConfig(
            n=c.n if c.n is not None else n,
            m=c.m if c.m is not None else m,
            cp_len=c.cp_len if c.cp_len is not None else cp_len,
        )

    def pa(self, ibo_db: float, compression: bool = True) -> PaConfig:
        """Amplifier at the given back-off.

        ``compression`` references the back-off to the 1 dB compression
        point of the limiter; otherwise to the saturation power itself.
        """
        c = self.config
        v_sat = c.v_sat if c.v_sat is not None else 1.0
        if c.p1db is not None:
            p1db = c.p1db
        else:
            p1db = limiter_compression_power(v_sat) if compression else None
        ibo = 10.0 ** ((c.ibo_db if c.ibo_db is not None else ibo_db) / 10.0)
        return PaConfig(
            v_sat=v_sat, ibo=ibo, g=c.g if c.g is not None else 1.0, p1db=p1db
        )

    def constellation(self, default: str) -> ConstellationSpec:
        return parse_constellation(self.config.constellation or default)

    def basis(self, n: int, default: str = "ofdm") -> SignalingBasis:
        return parse_basis(self.config.basis or default, n)


def _tx_generator(constellation: ConstellationSpec, basis: SignalingBasis,
                  pa: PaConfig | None) -> Callable:
    def gen(rng: np.random.Generator, count: int) -> np.ndarray:
        sym = draw_symbols(constellation, (count, basis.n), rng)
        x = synthesize(basis, sym)
        return x if pa is None else sel_amplify(x, pa)

    return gen


def _distortion_generator(constellation: ConstellationSpec, basis: SignalingBasis,
                          pa: PaConfig, kappa: float) -> Callable:
    def gen(rng: np.random.Generator, count: int) -> np.ndarray:
        sym = draw_symbols(constellation, (count, basis.n), rng)
        x = synthesize(basis, sym)
        return sel_amplify(x, pa) - kappa * x

    return gen


def _normalized_cut_db(gen, trials: int, rng, mode: AfMode) -> np.ndarray:
    surf = average_af(gen, trials, k_grid=1, mode=mode, rng=rng)
    return to_db(surf.values[:, 0]).real


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------


def _scn_zero_doppler_cp(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(10_000)
    fc = ctx.frame()
    basis = ctx.basis(fc.n)
    lags = np.arange(fc.n)
    columns: Columns = [("lag", lags)]
    for cname, label in (("16-PSK", "psk"), ("16-QAM", "qam")):
        const = parse_constellation(cname)
        gen_lin = _tx_generator(const, basis, None)
        columns.append(
            (f"linear_{label}",
             _normalized_cut_db(gen_lin, trials, ctx.rng(f"lin/{label}"), AfMode.PERIODIC))
        )
        for ibo_db in (1.0, 4.0):
            pa = ctx.pa(ibo_db)
            gen = _tx_generator(const, basis, pa)
            cut = _normalized_cut_db(gen, trials, ctx.rng(f"ibo{ibo_db:g}/{label}"),
                                     AfMode.PERIODIC)
            columns.append((f"nonlinear_{label}_ibo{ibo_db:g}", cut))
            stats = estimate_bussgang(pa, basis, const, 4000, ctx.rng(f"buss/{label}/{ibo_db:g}"))
            per_lag = abs(stats.kappa) ** 4 + stats.sigma_d2**2
            main = (
                2 * abs(stats.kappa) ** 4
                + stats.d4
                + 2 * abs(stats.kappa) ** 2 * fc.n * stats.sigma_d2
            )
            level = 10.0 * math.log10(per_lag / main)
            overlay = np.full(fc.n, level)
            overlay[0] = 0.0
            columns.append((f"analytic_{label}_ibo{ibo_db:g}", overlay))
    return {"zero_doppler_cp.csv": columns}


def _scn_zero_doppler_nocp(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(10_000)
    fc = ctx.frame(cp_len=0)
    basis = ctx.basis(fc.n)
    const = ctx.constellation("16-PSK")
    pa = ctx.pa(1.0)
    lags = np.arange(1 - fc.n, fc.n)

    gen = _tx_generator(const, basis, pa)
    measured = average_af(gen, trials, k_grid=1, mode=AfMode.APERIODIC,
                          rng=ctx.rng("measured"), normalize=False)
    rho = lag_correlation(const, basis, fc.n, 4000, ctx.rng("rho"))

    cond_trials = min(trials, 200)
    acc = np.zeros(2 * fc.n - 1)
    last_x = None
    for r in spawn_rngs(ctx.rng("conditioned"), cond_trials):
        sym = draw_symbols(const, fc.n, r)
        x = synthesize(basis, sym)
        acc += np.abs(sel_zero_doppler_cut(x, pa, rho)) ** 2
        last_x = x
    cond_avg = acc / cond_trials

    peak = measured.values[fc.n - 1, 0]
    single = zero_doppler_cut(aaf(sel_amplify(last_x, pa), k_grid=1))
    single_cond = np.abs(sel_zero_doppler_cut(last_x, pa, rho)) ** 2
    columns: Columns = [
        ("lag", lags),
        ("measured_avg_db", to_db(measured.values[:, 0] / peak)),
        ("conditioned_avg_db", to_db(cond_avg / cond_avg[fc.n - 1])),
        ("single_measured_db", to_db(single / single[fc.n - 1])),
        ("single_conditioned_db", to_db(single_cond / single_cond[fc.n - 1])),
    ]
    return {"zero_doppler_nocp.csv": columns}


def _scn_distortion_power(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(1000)
    n = ctx.config.n if ctx.config.n is not None else 1024
    basis = ctx.basis(n)
    ibo_grid = np.arange(0.0, 10.5, 1.0)
    columns: Columns = [("ibo_db", ibo_grid)]
    gaussian = np.empty(ibo_grid.size)
    for i, ibo_db in enumerate(ibo_grid):
        pa = ctx.pa(ibo_db, compression=False)
        y = pa.y
        gaussian[i] = output_power_gaussian(y) - kappa_gaussian(y) ** 2
    columns.append(("analytic_gaussian_db", 10.0 * np.log10(gaussian)))
    for cname, label in (("16-PSK", "psk16"), ("16-QAM", "qam16"), ("64-QAM", "qam64")):
        const = parse_constellation(cname)
        vals = np.empty(ibo_grid.size)
        for i, ibo_db in enumerate(ibo_grid):
            pa = ctx.pa(ibo_db, compression=False)
            stats = estimate_bussgang(pa, basis, const, trials,
                                      ctx.rng(f"{label}/ibo{ibo_db:g}"))
            vals[i] = stats.sigma_d2 / (abs(pa.g) * pa.alpha) ** 2
        columns.append((f"mc_{label}_db", 10.0 * np.log10(vals)))
    return {"distortion_power_vs_ibo.csv": columns}


def _scn_distortion_term_cut(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(10_000)
    fc = ctx.frame()
    basis = ctx.basis(fc.n)
    pa = ctx.pa(1.0)
    lags = np.arange(fc.n)
    columns: Columns = [("lag", lags)]
    for cname, label in (("16-PSK", "psk"), ("16-QAM", "qam")):
        const = parse_constellation(cname)
        stats = estimate_bussgang(pa, basis, const, 4000, ctx.rng(f"buss/{label}"))
        gen = _distortion_generator(const, basis, pa, stats.kappa)
        surf = average_af(gen, trials, k_grid=1, mode=AfMode.PERIODIC,
                          rng=ctx.rng(f"mc/{label}"), normalize=False)
        columns.append((f"mc_{label}_db", to_db(surf.values[:, 0].real, floor=-200.0)))
        level = 10.0 * math.log10(stats.sigma_d2**2)
        columns.append((f"analytic_{label}_db", np.full(fc.n, level)))
    return {"distortion_term_cut.csv": columns}


def _scn_basis_comparison(ctx: RunContext, cname: str, tag: str) -> dict[str, Columns]:
    trials = ctx.trials(10_000)
    fc = ctx.frame()
    const = ctx.constellation(cname)
    pa = ctx.pa(1.0)
    lags = np.arange(fc.n)
    columns: Columns = [("lag", lags)]
    for kind, label in ((BasisKind.OFDM_DFT, "ofdm"), (BasisKind.SC_IDENTITY, "sc"),
                        (BasisKind.CDMA_HADAMARD, "cdma")):
        basis = SignalingBasis(kind, fc.n)
        gen = _tx_generator(const, basis, pa)
        cut = _normalized_cut_db(gen, trials, ctx.rng(label), AfMode.PERIODIC)
        columns.append((f"{label}_db", cut))
    return {f"basis_comparison_{tag}.csv": columns}


def _scn_eisl_vs_n(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(4000)
    sizes = np.array([16, 32, 64, 128])
    cols: dict[str, list[float]] = {
        "mc_psk_db": [], "analytic_psk_db": [], "mc_qam_db": [], "analytic_qam_db": []
    }
    for n in sizes:
        basis = ctx.basis(int(n))
        pa = ctx.pa(1.0)
        for cname, label in (("16-PSK", "psk"), ("16-QAM", "qam")):
            const = parse_constellation(cname)
            gen = _tx_generator(const, basis, pa)
            surf = average_af(gen, trials, k_grid=1, mode=AfMode.PERIODIC,
                              rng=ctx.rng(f"mc/{label}/{n}"), normalize=False)
            met = sidelobe_metrics(surf)
            cols[f"mc_{label}_db"].append(10.0 * math.log10(met.eisl))
            est = sel_eisl(pa, const, basis, int(n), min(trials, 2000),
                           ctx.rng(f"analytic/{label}/{n}"), mode=AfMode.PERIODIC)
            cols[f"analytic_{label}_db"].append(10.0 * math.log10(est.eisl))
    columns: Columns = [("n", sizes)]
    columns.extend((k, np.array(v)) for k, v in cols.items())
    return {"eisl_vs_n.csv": columns}


def _scn_eislr_vs_n(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(4000)
    sizes = np.array([16, 32, 64, 128])
    names = []
    data: dict[str, list[float]] = {}
    for cname, clabel in (("16-PSK", "psk"), ("16-QAM", "qam")):
        for mode, mlabel in ((AfMode.PERIODIC, "cp"), (AfMode.APERIODIC, "nocp")):
            names.append((cname, clabel, mode, mlabel))
            data[f"{clabel}_{mlabel}_db"] = []
    for n in sizes:
        basis = ctx.basis(int(n))
        pa = ctx.pa(1.0)
        for cname, clabel, mode, mlabel in names:
            const = parse_constellation(cname)
            gen = _tx_generator(const, basis, pa)
            surf = average_af(gen, trials, k_grid=1, mode=mode,
                              rng=ctx.rng(f"{clabel}/{mlabel}/{n}"), normalize=False)
            met = sidelobe_metrics(surf)
            data[f"{clabel}_{mlabel}_db"].append(10.0 * math.log10(met.eislr))
    columns: Columns = [("n", sizes)]
    columns.extend((k, np.array(v)) for k, v in data.items())
    return {"eislr_vs_n.csv": columns}


def _scn_pslr_vs_n(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(10_000)
    sizes = np.array([64, 128, 256])
    pslr_psk, pslr_qam = [], []
    for n in sizes:
        basis = ctx.basis(int(n))
        pa = ctx.pa(1.0)
        for cname, store in (("16-PSK", pslr_psk), ("16-QAM", pslr_qam)):
            const = parse_constellation(cname)
            gen = _tx_generator(const, basis, pa)
            surf = average_af(gen, trials, k_grid=1, mode=AfMode.PERIODIC,
                              rng=ctx.rng(f"{cname}/{n}"), normalize=False)
            met = sidelobe_metrics(surf)
            store.append(10.0 * math.log10(met.pslr))
    return {
        "pslr_vs_n.csv": [
            ("n", sizes),
            ("psk_pslr_db", np.array(pslr_psk)),
            ("qam_pslr_db", np.array(pslr_qam)),
        ]
    }


def _scn_zero_delay(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(10_000)
    fc = ctx.frame()
    basis = ctx.basis(fc.n)
    bins = np.arange(fc.n)
    columns: Columns = [("doppler_bin", bins)]
    chunk = 256
    for cname, clabel in (("16-PSK", "psk"), ("16-QAM", "qam")):
        const = parse_constellation(cname)
        for ibo_db in (0.0, 8.0):
            pa = ctx.pa(ibo_db, compression=False)
            acc = np.zeros(fc.n)
            acc_cond = np.zeros(fc.n)
            sizes = chunk_counts(trials, chunk)
            for sz, r in zip(sizes, spawn_rngs(ctx.rng(f"{clabel}/ibo{ibo_db:g}"), len(sizes))):
                sym = draw_symbols(const, (sz, fc.n), r)
                x = synthesize(basis, sym)
                s = sel_amplify(x, pa)
                cut = np.fft.fft(np.abs(s) ** 2, axis=-1) / math.sqrt(fc.n)
                acc += (np.abs(cut) ** 2).sum(axis=0)
                cond = sel_zero_delay_cut(x, pa)
                acc_cond += (np.abs(cond) ** 2).sum(axis=0)
            acc /= trials
            acc_cond /= trials
            columns.append((f"{clabel}_ibo{ibo_db:g}_db", to_db(acc / acc[0])))
            columns.append(
                (f"conditioned_{clabel}_ibo{ibo_db:g}_db", to_db(acc_cond / acc_cond[0]))
            )
    return {"zero_delay_cuts.csv": columns}


def _default_targets(ctx: RunContext, fc: FrameConfig, with_doppler: bool) -> tuple[Target, ...]:
    if ctx.config.targets is not None:
        return ctx.config.targets
    if with_doppler:
        block = fc.block_len
        unit = fc.n / (block * fc.m)  # one Doppler bin in channel units
        return (
            Target(b=1.0, delay=4, doppler=5 * unit),
            Target(b=10.0 ** -0.5, delay=8, doppler=-8 * unit),
        )
    return (Target(b=1.0, delay=4), Target(b=10.0 ** -0.5, delay=8))


def periodogram_table(pipeline: PdPipeline, snr_db: float,
                      rng: np.random.Generator) -> Columns:
    """Range-Doppler map of one frame sensed at ``snr_db``, in long format,
    normalized to its peak."""
    fc = pipeline.frame
    sym = draw_symbols(pipeline.constellation, (fc.m, fc.n), rng)
    hhat = sense(pipeline, sym, 10.0 ** (snr_db / 10.0), rng, pipeline.targets)
    per = periodogram(hhat, pipeline.n_per, pipeline.m_per)
    dgrid, kgrid = np.meshgrid(per.delay_bins, per.doppler_bins, indexing="ij")
    return [
        ("delay_bin", dgrid.ravel()),
        ("doppler_bin", kgrid.ravel()),
        ("power_db", to_db(per.values / per.values.max()).ravel()),
    ]


def _scn_periodogram_pair(ctx: RunContext) -> dict[str, Columns]:
    fc = ctx.frame()
    const = ctx.constellation("16-QAM")
    targets = _default_targets(ctx, fc, with_doppler=True)
    snr_db = ctx.config.snr_db_grid[0] if ctx.config.snr_db_grid else 20.0
    out: dict[str, Columns] = {}
    for label, linear in (("linear", True), ("nonlinear", False)):
        pipe = _pipeline(ctx, const, fc, targets, CfarConfig(), linear, limited=False)
        out[f"periodogram_{label}.csv"] = periodogram_table(pipe, snr_db, ctx.rng(label))
    return out


def _cfar_factor(ctx: RunContext, cfar: CfarConfig) -> float:
    return calibrate_cfar(cfar, 4_000_000, ctx.rng("cfar-calibration"))


def _scn_cfar_example(ctx: RunContext) -> dict[str, Columns]:
    fc = ctx.frame()
    const = ctx.constellation("16-QAM")
    targets = _default_targets(ctx, fc, with_doppler=False)
    cfar = CfarConfig(factor=_cfar_factor(ctx, CfarConfig()))
    snr_db = ctx.config.snr_db_grid[0] if ctx.config.snr_db_grid else 15.0
    out: dict[str, Columns] = {}
    for label, linear, limited in (("linear", True, False), ("nonlinear", False, True)):
        pipe = _pipeline(ctx, const, fc, targets, cfar, linear, limited)
        rng = ctx.rng(label)
        sym = draw_symbols(const, (fc.m, fc.n), rng)
        hhat = sense(pipe, sym, 10.0 ** (snr_db / 10.0), rng, targets)
        cut = range_cut(hhat, pipe.grids()[0])
        report = so_cfar(cut, cfar)
        out[f"cfar_{label}.csv"] = [
            ("bin", np.arange(cut.size)),
            ("power_db", to_db(cut / cut.max())),
            ("threshold_db", to_db(report.thresholds / cut.max())),
            ("detected", report.decisions.astype(int)),
        ]
    return out


def _pd_targets(ctx: RunContext) -> tuple[Target, ...]:
    # Weak reflector 20 dB below the strong one.  Together with the short
    # detection frame this keeps the distortion-limited ceilings of the QAM
    # constellations measurably below 1 so the upper detection limits are
    # visible in the curves; at the full frame every plateau saturates.
    if ctx.config.targets is not None:
        return ctx.config.targets
    return (Target(b=1.0, delay=4), Target(b=0.1, delay=8))


def _pd_frame(ctx: RunContext) -> FrameConfig:
    return ctx.frame(m=3)


def _pipeline(ctx: RunContext, const: ConstellationSpec, fc: FrameConfig,
              targets: tuple[Target, ...], cfar: CfarConfig, linear: bool,
              limited: bool) -> PdPipeline:
    return PdPipeline(
        constellation=const,
        basis=ctx.basis(fc.n),
        frame=fc,
        pa=ctx.pa(1.0),
        cfar=cfar,
        targets=targets,
        linear=linear,
        distortion_limited=limited,
        n_per=ctx.config.n_per,
        m_per=ctx.config.m_per,
    )


def _pd_columns(curve) -> Columns:
    return [
        ("snr_db", curve.snr_db),
        ("pd", curve.pd),
        ("ci_halfwidth", curve.ci_halfwidth),
        ("trials", np.full(curve.snr_db.size, curve.trials, dtype=int)),
    ]


def _scn_pd_curves(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(1000)
    fc = _pd_frame(ctx)
    grid = np.asarray(ctx.config.snr_db_grid if ctx.config.snr_db_grid
                      else np.arange(2.0, 17.0, 1.0))
    cfar = CfarConfig(factor=_cfar_factor(ctx, CfarConfig()))
    out: dict[str, Columns] = {}
    for cname, clabel in (("16-PSK", "16psk"), ("16-QAM", "16qam")):
        const = parse_constellation(cname)
        for vlabel, linear, limited, vgrid in (
            ("linear", True, False, grid),
            ("ibo1", False, False, grid),
            ("distortion", False, True, grid[:1]),
        ):
            pipe = _pipeline(ctx, const, fc, _pd_targets(ctx), cfar, linear, limited)
            curve = pd_experiment(pipe, vgrid, trials, ctx.rng(f"{clabel}/{vlabel}"),
                                  workers=ctx.config.workers)
            if limited and vgrid.size != grid.size:
                # the floor does not depend on SNR; replicate the single point
                curve.snr_db = grid.copy()
                curve.pd = np.full(grid.size, curve.pd[0])
                curve.ci_halfwidth = np.full(grid.size, curve.ci_halfwidth[0])
            out[f"pd_{clabel}_{vlabel}.csv"] = _pd_columns(curve)
    return out


def _scn_pd_ceilings(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials(1000)
    fc = _pd_frame(ctx)
    plateau_grid = np.array([0.0, 10.0, 20.0])
    linear_grid = np.asarray(ctx.config.snr_db_grid if ctx.config.snr_db_grid
                             else np.arange(2.0, 19.0, 1.0))
    cfar = CfarConfig(factor=_cfar_factor(ctx, CfarConfig()))
    out: dict[str, Columns] = {}
    names, plateaus, projections = [], [], []
    for cname, clabel in (("16-PSK", "16psk"), ("16-QAM", "16qam"), ("64-QAM", "64qam")):
        const = parse_constellation(cname)
        pipe_lim = _pipeline(ctx, const, fc, _pd_targets(ctx), cfar, linear=False, limited=True)
        curve_lim = pd_experiment(pipe_lim, plateau_grid, trials,
                                  ctx.rng(f"{clabel}/limited"), workers=ctx.config.workers)
        out[f"pd_plateau_{clabel}.csv"] = _pd_columns(curve_lim)
        pipe_lin = _pipeline(ctx, const, fc, _pd_targets(ctx), cfar, linear=True, limited=False)
        curve_lin = pd_experiment(pipe_lin, linear_grid, trials,
                                  ctx.rng(f"{clabel}/linear"), workers=ctx.config.workers)
        out[f"pd_linear_{clabel}.csv"] = _pd_columns(curve_lin)
        plateau = float(np.mean(curve_lim.pd))
        names.append(clabel)
        plateaus.append(plateau)
        projections.append(project_snr(curve_lin.snr_db, curve_lin.pd, plateau))
    out["snr_projection.csv"] = [
        ("constellation", np.array(names)),
        ("plateau_pd", np.array(plateaus)),
        ("projected_snr_db", np.array(projections)),
    ]
    return out


def project_snr(snr_db: np.ndarray, pd: np.ndarray, level: float) -> float:
    """SNR at which an increasing Pd curve first reaches ``level``.

    Linear interpolation between grid points; NaN when the curve never gets
    there or starts above it.
    """
    pd = np.asarray(pd, dtype=float)
    snr_db = np.asarray(snr_db, dtype=float)
    if pd[0] >= level:
        return math.nan
    above = np.nonzero(pd >= level)[0]
    if above.size == 0:
        return math.nan
    j = above[0]
    p0, p1 = pd[j - 1], pd[j]
    if p1 == p0:
        return float(snr_db[j])
    return float(snr_db[j - 1] + (snr_db[j] - snr_db[j - 1]) * (level - p0) / (p1 - p0))


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    default_trials: int
    runtime_hint: str
    runner: Callable[[RunContext], dict[str, Columns]]


_REGISTRY: dict[str, Scenario] = {}


def _register(name, description, default_trials, runtime_hint, runner):
    _REGISTRY[name] = Scenario(name, description, default_trials, runtime_hint, runner)


_register(
    "fig-zero-doppler-cp",
    "Averaged zero-Doppler cuts, CP-OFDM N=64, 16-PSK/16-QAM, linear vs IBO 1/4 dB, "
    "with flat per-lag overlays from the measured clipping statistics",
    10_000, "~1 min", _scn_zero_doppler_cp,
)
_register(
    "fig-zero-doppler-nocp",
    "Aperiodic zero-Doppler cuts without CP, 16-PSK IBO 1 dB: measured average, "
    "conditioned-expectation average, and one single-frame pair",
    10_000, "~1 min", _scn_zero_doppler_nocp,
)
_register(
    "fig-distortion-power",
    "Residual clipping-noise power vs IBO at N=1024 for 16-PSK/16-QAM/64-QAM plus "
    "the Gaussian closed form",
    1000, "~1 min", _scn_distortion_power,
)
_register(
    "fig-distortion-term-cut",
    "Zero-Doppler cut of the isolated clipping-noise term, N=64, IBO 1 dB, "
    "16-PSK vs 16-QAM, with flat variance overlays",
    10_000, "~1 min", _scn_distortion_term_cut,
)
_register(
    "fig-basis-comparison-psk",
    "Averaged zero-Doppler cuts of OFDM vs single-carrier vs Hadamard spreading, "
    "16-PSK, IBO 1 dB",
    10_000, "~1 min", lambda ctx: _scn_basis_comparison(ctx, "16-PSK", "psk16"),
)
_register(
    "fig-basis-comparison-qam",
    "Averaged zero-Doppler cuts of OFDM vs single-carrier vs Hadamard spreading, "
    "16-QAM, IBO 1 dB",
    10_000, "~1 min", lambda ctx: _scn_basis_comparison(ctx, "16-QAM", "qam16"),
)
_register(
    "fig-eisl-vs-n",
    "Expected integrated sidelobe level vs N (periodic lags), measured vs the "
    "conditioned clipping analysis, 16-PSK and 16-QAM at IBO 1 dB",
    4000, "~2 min", _scn_eisl_vs_n,
)
_register(
    "fig-eislr-vs-n",
    "EISL normalized by mainlobe energy vs N, with and without CP, "
    "16-PSK and 16-QAM at IBO 1 dB",
    4000, "~2 min", _scn_eislr_vs_n,
)
_register(
    "fig-pslr-vs-n",
    "Peak-sidelobe-to-mainlobe ratio vs N in {64,128,256}, 16-PSK and 16-QAM, IBO 1 dB",
    10_000, "~2 min", _scn_pslr_vs_n,
)
_register(
    "fig-zero-delay",
    "Averaged zero-delay (Doppler) cuts at saturation back-offs 0 and 8 dB with "
    "conditioned-expectation overlays, 16-PSK and 16-QAM",
    10_000, "~1 min", _scn_zero_delay,
)
_register(
    "fig-periodogram-pair",
    "Single-frame range-Doppler periodograms, linear vs clipped, two targets at "
    "20 dB SNR (long-format CSV)",
    1, "<10 s", _scn_periodogram_pair,
)
_register(
    "fig-cfar-example",
    "Single-frame range cuts with the SO-CFAR threshold trace, linear vs "
    "distortion-limited",
    1, "~30 s", _scn_cfar_example,
)
_register(
    "fig-pd-curves",
    "Weak-target detection probability vs SNR for 16-PSK/16-QAM under linear, "
    "IBO 1 dB, and distortion-limited operation (short M=3 frame, -20 dB target)",
    1000, "~2 min", _scn_pd_curves,
)
_register(
    "fig-pd-ceilings",
    "Distortion-limited detection plateaus for 16-PSK/16-QAM/64-QAM plus linear "
    "reference curves and the SNR projection of each plateau (short M=3 frame)",
    1000, "~2 min", _scn_pd_ceilings,
)


def list_scenarios() -> tuple[Scenario, ...]:
    return tuple(_REGISTRY.values())


def run_scenario(config: ExperimentConfig) -> RunManifest:
    """Execute one registered scenario and write its artifacts."""
    if config.scenario not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown scenario {config.scenario!r}; available: {known}")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    scenario = _REGISTRY[config.scenario]
    ctx = RunContext(config, scenario.name)
    start = time.monotonic()
    try:
        tables = scenario.runner(ctx)
    except IsacError as exc:
        raise type(exc)(f"scenario {scenario.name}: {exc}") from exc
    wallclock = time.monotonic() - start

    out_dir = Path(config.out_dir) / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        scenario=scenario.name,
        seed=config.seed,
        version=__version__,
        wallclock_s=round(wallclock, 3),
        config=config.snapshot(),
    )
    for fname, columns in tables.items():
        path = out_dir / fname
        _write_csv(path, columns)
        manifest.files[fname] = _sha256(path)
    if config.plots:
        _render_plots(out_dir, list(tables))
    manifest.write(out_dir)
    return manifest


def _render_plots(out_dir: Path, csv_names: list[str]) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError(
            "plot output needs matplotlib; install the 'plots' extra"
        ) from exc
    for name in csv_names:
        path = out_dir / name
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        if not body:
            continue
        cols = list(zip(*body))
        try:
            x = np.array([float(v) for v in cols[0]])
        except ValueError:
            x = np.arange(len(body))
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for name_j, col in zip(header[1:], cols[1:]):
            try:
                y = np.array([float(v) for v in col])
            except ValueError:
                continue
            ax.plot(x, y, label=name_j, linewidth=1.0)
        ax.set_xlabel(header[0])
        ax.legend(fontsize=7)
        ax.grid(True, alpha=0.3)
        fig.tight_layout()
        fig.savefig(path.with_suffix(".svg"))
        plt.close(fig)

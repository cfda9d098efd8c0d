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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .ambiguity import AfMode, aaf, average_af, sidelobe_metrics, to_db, zero_doppler_cut
from .analytic import (expected_zero_doppler_bussgang, sel_eisl, sel_zero_delay_cut,
                       sel_zero_doppler_cut)
from .channel import Target
from .detect import (
    DEFAULT_CAL_CELLS,
    WEAK_BIN,
    CfarConfig,
    PdCurve,
    PdPipeline,
    calibrate_cfar,
    pd_curves,
    sense,
    so_cfar,
)
from .errors import ConfigError, IsacError
from .pa import (
    PaConfig,
    estimate_bussgang,
    kappa_gaussian,
    output_power_gaussian,
    sel_amplify,
)
from .radar import periodogram, range_cut
from .seeding import DEFAULT_SEED, chunk_rngs, derive_rng
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


#: ``key: (check, what the check asks for)`` of each scalar config field.
_SCALAR_KEYS = {
    **dict.fromkeys(("seed", "trials", "workers", "n", "m", "cp_len", "n_per", "m_per"),
                    (_is_int, "an integer")),
    "ibo_db": (_is_real, "a finite number"),
    **dict.fromkeys(("scenario", "out_dir", "constellation", "basis"),
                    (lambda v: isinstance(v, str) and v != "", "a non-empty string")),
    "plots": (lambda v: isinstance(v, bool), "true or false"),
}


def _parse_targets(entries) -> tuple[Target, ...]:
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"targets must be a list of mappings, got {entries!r}")
    targets = []
    for t in entries:
        valid = (isinstance(t, dict) and {"b", "delay"} <= t.keys() <= {"b", "delay", "doppler"}
                 and _is_real(t["b"]) and _is_int(t["delay"]) and _is_real(t.get("doppler", 0.0)))
        if not valid:
            raise ConfigError(f"each target needs a finite b, an integer delay and an "
                              f"optional finite doppler, got {t!r}")
        targets.append(Target(b=t["b"], delay=t["delay"], doppler=t.get("doppler", 0.0)))
    return tuple(targets)


@dataclass
class ExperimentConfig:
    """Run parameters; unset fields fall back to scenario defaults, and a set
    field outside ``RUN_CONTROL`` and the scenario's ``settings`` is an error.

    dB-valued keys carry an explicit ``_db`` suffix; everything else is
    linear.  ``targets`` entries are mappings with keys ``b`` (real
    amplitude), ``delay`` (samples) and optional ``doppler``.
    """

    scenario: str = ""
    seed: int = DEFAULT_SEED
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
        for key, value in data.items():
            if value is None and cls.__dataclass_fields__[key].default is None:
                continue
            check, wanted = _SCALAR_KEYS.get(key, (None, ""))
            if check is not None and not check(value):
                raise ConfigError(f"{key} must be {wanted}, got {value!r}")
        if data.get("targets") is not None:
            data["targets"] = _parse_targets(data["targets"])
        grid = data.get("snr_db_grid")
        if grid is not None:
            if (not isinstance(grid, (list, tuple)) or not grid
                    or not all(_is_real(v) for v in grid)):
                raise ConfigError(f"snr_db_grid must list one or more finite numbers, got {grid!r}")
            data["snr_db_grid"] = tuple(float(v) for v in grid)
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
        return asdict(self)


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


#: Config fields every scenario accepts: they pick the run, not its model.
RUN_CONTROL = ("scenario", "seed", "trials", "out_dir", "workers", "plots")


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    default_trials: int
    runtime_hint: str
    runner: Callable[[RunContext], dict[str, Columns]]
    #: The config fields besides ``RUN_CONTROL`` that change the outputs; one
    #: the scenario sweeps, fixes in a file or column name, or ignores is not.
    settings: tuple[str, ...]


_REGISTRY: dict[str, Scenario] = {}


def scenario(name: str, default_trials: int, runtime_hint: str, settings: tuple[str, ...],
             description: str):
    """Register the decorated runner under ``name``; registration order is
    the order ``list_scenarios`` reports."""
    def register(runner: Callable[[RunContext], dict[str, Columns]]):
        _REGISTRY[name] = Scenario(name, description, default_trials, runtime_hint, runner,
                                   settings)
        return runner

    return register


#: A unit reflector at delay 4 and one 10 dB weaker at the weak bin the
#: detection chain scores.
DEFAULT_TARGETS = (Target(b=1.0, delay=4), Target(b=10.0 ** -0.5, delay=WEAK_BIN))

_PSK_QAM = (("16-PSK", "psk"), ("16-QAM", "qam"))


class RunContext:
    """Per-run parameter resolution and seed derivation for scenario code."""

    def __init__(self, config: ExperimentConfig, scenario: Scenario):
        self.config = config
        self.scenario = scenario

    def rng(self, tag: str) -> np.random.Generator:
        return derive_rng(self.config.seed, f"{self.scenario.name}/{tag}")

    def setting(self, key: str, default):
        """The configured value of ``key``, else ``default``."""
        value = getattr(self.config, key)
        return default if value is None else value

    def trials(self) -> int:
        t = self.setting("trials", self.scenario.default_trials)
        if t < 1:
            raise ConfigError("trials must be positive")
        return t

    def frame(self, n: int = 64, m: int = 64, cp_len: int = 16) -> FrameConfig:
        return FrameConfig(
            n=self.setting("n", n), m=self.setting("m", m), cp_len=self.setting("cp_len", cp_len)
        )

    def pa(self, ibo_db: float, compression: bool = True) -> PaConfig:
        """Amplifier at the configured back-off, else at ``ibo_db``
        (:meth:`~isacsim.pa.PaConfig.at_backoff_db`)."""
        return PaConfig.at_backoff_db(self.setting("ibo_db", ibo_db), compression)

    def constellation(self, default: str) -> ConstellationSpec:
        return parse_constellation(self.config.constellation or default)

    def basis(self, n: int) -> SignalingBasis:
        return parse_basis(self.config.basis or "ofdm", n)

    def snr_db(self, default: float) -> float:
        """The one SNR of a single-frame run; a longer grid is an error."""
        grid = self.setting("snr_db_grid", (default,))
        if len(grid) > 1:
            raise ConfigError(f"snr_db_grid must hold one value for a single frame, got {grid}")
        return grid[0]

    def snr_grid(self, default: np.ndarray) -> np.ndarray:
        return np.asarray(self.setting("snr_db_grid", default))

    def cfar(self, frame: FrameConfig) -> CfarConfig:
        """:func:`calibrated_cfar` on this run's streams.

        Only the scenarios that detect on the zero-Doppler range cut use it,
        and the calibration cuts are as long as that cut: ``n_per`` bins when
        configured, else the frame's ``n``.  An ``n_per`` below ``n``, which
        the range cut would reject, is rejected before the calibration.
        """
        cut_len = self.setting("n_per", frame.n)
        if cut_len < frame.n:
            raise ConfigError(f"range grid of {cut_len} bins must cover the {frame.n} subcarriers")
        return calibrated_cfar(self.rng("cfar-calibration"), cut_len)


def calibrated_cfar(rng: np.random.Generator, cut_len: int) -> CfarConfig:
    """Default SO-CFAR with its factor calibrated on ``DEFAULT_CAL_CELLS``
    cells of ``rng``, drawn as cuts of ``cut_len`` cells."""
    return CfarConfig(factor=calibrate_cfar(CfarConfig(), DEFAULT_CAL_CELLS, rng,
                                            cut_len=cut_len))


def _tx_generator(constellation: ConstellationSpec, basis: SignalingBasis,
                  pa: PaConfig | None, kappa: complex | None = None) -> Callable:
    """Batches of transmitted frames, amplified by ``pa`` (linear when
    ``None``); with ``kappa``, only the distortion ``s - kappa x`` of each."""
    def gen(rng: np.random.Generator, count: int) -> np.ndarray:
        sym = draw_symbols(constellation, (count, basis.n), rng)
        x = synthesize(basis, sym)
        if pa is None:
            return x
        s = sel_amplify(x, pa)
        return s if kappa is None else s - kappa * x

    return gen


def _averaged_cut(ctx: RunContext, const: ConstellationSpec, basis: SignalingBasis,
                  pa: PaConfig | None, tag: str, mode: AfMode = AfMode.PERIODIC,
                  kappa: complex | None = None, normalize: bool = False):
    """Zero-Doppler AF cut of ``_tx_generator`` frames averaged over
    ``ctx.trials()`` trials on the ``tag`` stream."""
    gen = _tx_generator(const, basis, pa, kappa)
    return average_af(gen, ctx.trials(), k_grid=1, mode=mode, rng=ctx.rng(tag),
                      normalize=normalize)


def _n_sweep(ctx: RunContext, sizes: tuple[int, ...], cells: Callable) -> Columns:
    """One row per N at IBO 1 dB.

    ``cells(n, basis, pa, const, label)`` returns ``{column: dB value}`` for
    16-PSK (label ``psk``) and 16-QAM (``qam``); columns keep the order in
    which they first appear.
    """
    rows: dict[str, list[float]] = {}
    for n in sizes:
        basis = ctx.basis(n)
        pa = ctx.pa(1.0)
        for cname, label in _PSK_QAM:
            const = parse_constellation(cname)
            for column, value in cells(n, basis, pa, const, label).items():
                rows.setdefault(column, []).append(value)
    return [("n", np.array(sizes)), *((k, np.array(v)) for k, v in rows.items())]


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------


@scenario("fig-zero-doppler-cp", 10_000, "~1 min", ("basis", "n"),
          "Averaged zero-Doppler cuts, CP-OFDM N=64, 16-PSK/16-QAM, linear vs IBO 1/4 dB, "
          "with flat per-lag overlays from the measured clipping statistics")
def _scn_zero_doppler_cp(ctx: RunContext) -> dict[str, Columns]:
    n = ctx.setting("n", 64)
    basis = ctx.basis(n)
    lags = np.arange(n)
    columns: Columns = [("lag", lags)]
    for cname, label in _PSK_QAM:
        const = parse_constellation(cname)
        linear = _averaged_cut(ctx, const, basis, None, f"lin/{label}", normalize=True)
        columns.append((f"linear_{label}", to_db(linear.values[:, 0])))
        for ibo_db in (1.0, 4.0):
            pa = ctx.pa(ibo_db)
            cut = _averaged_cut(ctx, const, basis, pa, f"ibo{ibo_db:g}/{label}", normalize=True)
            columns.append((f"nonlinear_{label}_ibo{ibo_db:g}", to_db(cut.values[:, 0])))
            stats = estimate_bussgang(pa, basis, const, 4000, ctx.rng(f"buss/{label}/{ibo_db:g}"))
            pred = expected_zero_doppler_bussgang(stats.kappa, stats.sigma_d2, n, stats.d4)
            overlay = np.full(n, 10.0 * math.log10(pred.per_lag / pred.mainlobe))
            overlay[0] = 0.0
            columns.append((f"analytic_{label}_ibo{ibo_db:g}", overlay))
    return {"zero_doppler_cp.csv": columns}


@scenario("fig-zero-doppler-nocp", 10_000, "~1 min", ("constellation", "basis", "n", "ibo_db"),
          "Aperiodic zero-Doppler cuts without CP, 16-PSK IBO 1 dB: measured average, "
          "conditioned-expectation average, and one single-frame pair")
def _scn_zero_doppler_nocp(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials()
    n = ctx.setting("n", 64)
    basis = ctx.basis(n)
    const = ctx.constellation("16-PSK")
    pa = ctx.pa(1.0)
    lags = np.arange(1 - n, n)

    measured = _averaged_cut(ctx, const, basis, pa, "measured", AfMode.APERIODIC)

    cond_trials = min(trials, 200)
    xs = np.stack([
        synthesize(basis, draw_symbols(const, n, r))
        for _, r in chunk_rngs(ctx.rng("conditioned"), cond_trials, 1)
    ])
    # one batched call: the clip weights depend on (pa, n) only; rows are
    # summed one by one in trial order (np.sum would pair them differently)
    cond = np.abs(sel_zero_doppler_cut(xs, pa)) ** 2
    acc = np.zeros(2 * n - 1)
    for row in cond:
        acc += row
    cond_avg = acc / cond_trials

    peak = measured.values[n - 1, 0]
    single = zero_doppler_cut(aaf(sel_amplify(xs[-1], pa), k_grid=1))
    single_cond = cond[-1]
    columns: Columns = [
        ("lag", lags),
        ("measured_avg_db", to_db(measured.values[:, 0] / peak)),
        ("conditioned_avg_db", to_db(cond_avg / cond_avg[n - 1])),
        ("single_measured_db", to_db(single / single[n - 1])),
        ("single_conditioned_db", to_db(single_cond / single_cond[n - 1])),
    ]
    return {"zero_doppler_nocp.csv": columns}


@scenario("fig-distortion-power", 1000, "~1 min", ("basis", "n"),
          "Residual clipping-noise power vs IBO at N=1024 for 16-PSK/16-QAM/64-QAM plus "
          "the Gaussian closed form")
def _scn_distortion_power(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials()
    n = ctx.setting("n", 1024)
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
            vals[i] = stats.sigma_d2 / pa.alpha**2
        columns.append((f"mc_{label}_db", to_db(vals)))
    return {"distortion_power_vs_ibo.csv": columns}


@scenario("fig-distortion-term-cut", 10_000, "~1 min", ("basis", "n", "ibo_db"),
          "Zero-Doppler cut of the isolated clipping-noise term, N=64, IBO 1 dB, "
          "16-PSK vs 16-QAM, with flat variance overlays")
def _scn_distortion_term_cut(ctx: RunContext) -> dict[str, Columns]:
    n = ctx.setting("n", 64)
    basis = ctx.basis(n)
    pa = ctx.pa(1.0)
    lags = np.arange(n)
    columns: Columns = [("lag", lags)]
    for cname, label in _PSK_QAM:
        const = parse_constellation(cname)
        stats = estimate_bussgang(pa, basis, const, 4000, ctx.rng(f"buss/{label}"))
        surf = _averaged_cut(ctx, const, basis, pa, f"mc/{label}", kappa=stats.kappa)
        columns.append((f"mc_{label}_db", to_db(surf.values[:, 0], floor=-200.0)))
        level = 10.0 * math.log10(stats.sigma_d2**2)
        columns.append((f"analytic_{label}_db", np.full(n, level)))
    return {"distortion_term_cut.csv": columns}


def _scn_basis_comparison(ctx: RunContext, cname: str, tag: str) -> dict[str, Columns]:
    n = ctx.setting("n", 64)
    const = parse_constellation(cname)
    pa = ctx.pa(1.0)
    lags = np.arange(n)
    columns: Columns = [("lag", lags)]
    for kind, label in ((BasisKind.OFDM_DFT, "ofdm"), (BasisKind.SC_IDENTITY, "sc"),
                        (BasisKind.CDMA_HADAMARD, "cdma")):
        cut = _averaged_cut(ctx, const, SignalingBasis(kind, n), pa, label, normalize=True)
        columns.append((f"{label}_db", to_db(cut.values[:, 0])))
    return {f"basis_comparison_{tag}.csv": columns}


scenario("fig-basis-comparison-psk", 10_000, "~1 min", ("n", "ibo_db"),
         "Averaged zero-Doppler cuts of OFDM vs single-carrier vs Hadamard spreading, "
         "16-PSK, IBO 1 dB")(lambda ctx: _scn_basis_comparison(ctx, "16-PSK", "psk16"))
scenario("fig-basis-comparison-qam", 10_000, "~1 min", ("n", "ibo_db"),
         "Averaged zero-Doppler cuts of OFDM vs single-carrier vs Hadamard spreading, "
         "16-QAM, IBO 1 dB")(lambda ctx: _scn_basis_comparison(ctx, "16-QAM", "qam16"))


@scenario("fig-eisl-vs-n", 4000, "~2 min", ("basis", "ibo_db"),
          "Expected integrated sidelobe level vs N (periodic lags), measured vs the "
          "conditioned clipping analysis, 16-PSK and 16-QAM at IBO 1 dB")
def _scn_eisl_vs_n(ctx: RunContext) -> dict[str, Columns]:
    def cells(n, basis, pa, const, label):
        met = sidelobe_metrics(_averaged_cut(ctx, const, basis, pa, f"mc/{label}/{n}"))
        est = sel_eisl(pa, const, basis, min(ctx.trials(), 2000),
                       ctx.rng(f"analytic/{label}/{n}"), mode=AfMode.PERIODIC)
        return {f"mc_{label}_db": 10.0 * math.log10(met.isl),
                f"analytic_{label}_db": 10.0 * math.log10(est.eisl)}

    return {"eisl_vs_n.csv": _n_sweep(ctx, (16, 32, 64, 128), cells)}


@scenario("fig-eislr-vs-n", 4000, "~2 min", ("basis", "ibo_db"),
          "EISL normalized by mainlobe energy vs N, with and without CP, "
          "16-PSK and 16-QAM at IBO 1 dB")
def _scn_eislr_vs_n(ctx: RunContext) -> dict[str, Columns]:
    def cells(n, basis, pa, const, label):
        return {
            f"{label}_{mlabel}_db": 10.0 * math.log10(sidelobe_metrics(
                _averaged_cut(ctx, const, basis, pa, f"{label}/{mlabel}/{n}", mode)).eislr)
            for mode, mlabel in ((AfMode.PERIODIC, "cp"), (AfMode.APERIODIC, "nocp"))
        }

    return {"eislr_vs_n.csv": _n_sweep(ctx, (16, 32, 64, 128), cells)}


@scenario("fig-pslr-vs-n", 10_000, "~2 min", ("basis", "ibo_db"),
          "Peak-sidelobe-to-mainlobe ratio vs N in {64,128,256}, 16-PSK and 16-QAM, IBO 1 dB")
def _scn_pslr_vs_n(ctx: RunContext) -> dict[str, Columns]:
    def cells(n, basis, pa, const, label):
        met = sidelobe_metrics(_averaged_cut(ctx, const, basis, pa, f"{const}/{n}"))
        return {f"{label}_pslr_db": 10.0 * math.log10(met.pslr)}

    return {"pslr_vs_n.csv": _n_sweep(ctx, (64, 128, 256), cells)}


@scenario("fig-zero-delay", 10_000, "~1 min", ("basis", "n"),
          "Averaged zero-delay (Doppler) cuts at saturation back-offs 0 and 8 dB with "
          "conditioned-expectation overlays, 16-PSK and 16-QAM")
def _scn_zero_delay(ctx: RunContext) -> dict[str, Columns]:
    trials = ctx.trials()
    n = ctx.setting("n", 64)
    basis = ctx.basis(n)
    bins = np.arange(n)
    columns: Columns = [("doppler_bin", bins)]
    for cname, clabel in _PSK_QAM:
        const = parse_constellation(cname)
        for ibo_db in (0.0, 8.0):
            pa = ctx.pa(ibo_db, compression=False)
            acc = np.zeros(n)
            acc_cond = np.zeros(n)
            for sz, r in chunk_rngs(ctx.rng(f"{clabel}/ibo{ibo_db:g}"), trials, 256):
                x = synthesize(basis, draw_symbols(const, (sz, n), r))
                cut = np.fft.fft(np.abs(sel_amplify(x, pa)) ** 2, axis=-1) / math.sqrt(n)
                acc += (np.abs(cut) ** 2).sum(axis=0)
                acc_cond += (np.abs(sel_zero_delay_cut(x, pa)) ** 2).sum(axis=0)
            acc /= trials
            acc_cond /= trials
            columns.append((f"{clabel}_ibo{ibo_db:g}_db", to_db(acc / acc[0])))
            columns.append(
                (f"conditioned_{clabel}_ibo{ibo_db:g}_db", to_db(acc_cond / acc_cond[0]))
            )
    return {"zero_delay_cuts.csv": columns}


def periodogram_table(pipeline: PdPipeline, snr_db: float,
                      rng: np.random.Generator) -> Columns:
    """Range-Doppler map of one frame sensed at ``snr_db``, in long format,
    normalized to its peak."""
    fc = pipeline.frame
    sym = draw_symbols(pipeline.constellation, (fc.m, fc.n), rng)
    hhat = sense(pipeline, sym, 10.0 ** (snr_db / 10.0), rng)
    per = periodogram(hhat, pipeline.n_per, pipeline.m_per)
    dgrid, kgrid = np.meshgrid(per.delay_bins, per.doppler_bins, indexing="ij")
    return [
        ("delay_bin", dgrid.ravel()),
        ("doppler_bin", kgrid.ravel()),
        ("power_db", to_db(per.values / per.values.max()).ravel()),
    ]


@scenario("fig-periodogram-pair", 1, "<10 s",
          ("constellation", "n", "m", "cp_len", "ibo_db", "snr_db_grid", "targets", "n_per",
           "m_per"),
          "Single-frame range-Doppler periodograms, linear vs clipped, two targets at "
          "20 dB SNR (long-format CSV)")
def _scn_periodogram_pair(ctx: RunContext) -> dict[str, Columns]:
    fc = ctx.frame()
    const = ctx.constellation("16-QAM")
    unit = fc.n / (fc.block_len * fc.m)  # one Doppler bin in channel units
    targets = ctx.setting("targets", tuple(
        replace(t, doppler=bins * unit) for t, bins in zip(DEFAULT_TARGETS, (5, -8))
    ))
    snr_db = ctx.snr_db(20.0)
    out: dict[str, Columns] = {}
    for label, linear in (("linear", True), ("nonlinear", False)):
        pipe = _pipeline(ctx, const, fc, targets, CfarConfig(), linear, limited=False)
        out[f"periodogram_{label}.csv"] = periodogram_table(pipe, snr_db, ctx.rng(label))
    return out


@scenario("fig-cfar-example", 1, "~30 s",
          ("constellation", "n", "m", "cp_len", "ibo_db", "snr_db_grid", "targets", "n_per"),
          "Single-frame range cuts with the SO-CFAR threshold trace, linear vs "
          "distortion-limited")
def _scn_cfar_example(ctx: RunContext) -> dict[str, Columns]:
    fc = ctx.frame()
    const = ctx.constellation("16-QAM")
    targets = ctx.setting("targets", DEFAULT_TARGETS)
    snr_db = ctx.snr_db(15.0)
    cfar = ctx.cfar(fc)
    out: dict[str, Columns] = {}
    for label, linear, limited in (("linear", True, False), ("nonlinear", False, True)):
        pipe = _pipeline(ctx, const, fc, targets, cfar, linear, limited)
        rng = ctx.rng(label)
        sym = draw_symbols(const, (fc.m, fc.n), rng)
        hhat = sense(pipe, sym, 10.0 ** (snr_db / 10.0), rng)
        cut = range_cut(hhat, pipe.grids()[0])
        report = so_cfar(cut, cfar)
        out[f"cfar_{label}.csv"] = [
            ("bin", np.arange(cut.size)),
            ("power_db", to_db(cut / cut.max())),
            ("threshold_db", to_db(report.thresholds / cut.max())),
            ("detected", report.decisions.astype(int)),
        ]
    return out


def _pipeline(ctx: RunContext, const: ConstellationSpec, fc: FrameConfig,
              targets: tuple[Target, ...], cfar: CfarConfig, linear: bool,
              limited: bool) -> PdPipeline:
    return PdPipeline(
        constellation=const,
        basis=parse_basis("ofdm", fc.n),
        frame=fc,
        pa=ctx.pa(1.0),
        cfar=cfar,
        targets=targets,
        linear=linear,
        distortion_limited=limited,
        n_per=ctx.config.n_per,
        m_per=ctx.config.m_per,
    )


def _pd_curves(ctx: RunContext, specs: dict[str, tuple]) -> dict[str, PdCurve]:
    """Weak-target Pd of each ``name: (constellation, snr_grid_db, tag, linear, limited)``
    spec, all on one pool."""
    frame = ctx.frame(m=3)
    cfar = ctx.cfar(frame)
    # Weak reflector 20 dB below the strong one.  Together with the short
    # detection frame this keeps the distortion-limited ceilings of the QAM
    # constellations measurably below 1 so the upper detection limits are
    # visible in the curves; at the full frame every plateau saturates.
    targets = ctx.setting("targets", (Target(b=1.0, delay=4), Target(b=0.1, delay=WEAK_BIN)))
    jobs = [(_pipeline(ctx, parse_constellation(cname), frame, targets, cfar, linear, limited),
             grid, ctx.rng(tag)) for cname, grid, tag, linear, limited in specs.values()]
    return dict(zip(specs, pd_curves(jobs, ctx.trials(), ctx.config.workers)))


def _pd_columns(curve) -> Columns:
    return [
        ("snr_db", curve.snr_db),
        ("pd", curve.pd),
        ("ci_halfwidth", curve.ci_halfwidth),
        ("trials", np.full(curve.snr_db.size, curve.trials, dtype=int)),
    ]


@scenario("fig-pd-curves", 1000, "~2 min",
          ("n", "m", "cp_len", "snr_db_grid", "targets", "n_per"),
          "Weak-target detection probability vs SNR for 16-PSK/16-QAM under linear, "
          "IBO 1 dB, and distortion-limited operation (short M=3 frame, -20 dB target)")
def _scn_pd_curves(ctx: RunContext) -> dict[str, Columns]:
    grid = ctx.snr_grid(np.arange(2.0, 17.0, 1.0))
    specs = {
        f"pd_{clabel}_{vlabel}.csv": (cname, vgrid, f"{clabel}/{vlabel}", linear, limited)
        for cname, clabel in (("16-PSK", "16psk"), ("16-QAM", "16qam"))
        for vlabel, linear, limited, vgrid in (
            ("linear", True, False, grid),
            ("ibo1", False, False, grid),
            ("distortion", False, True, grid[:1]),
        )
    }
    out: dict[str, Columns] = {}
    for name, curve in _pd_curves(ctx, specs).items():
        if curve.snr_db.size != grid.size:
            # the floor does not depend on SNR; replicate the single point
            curve.snr_db = grid.copy()
            curve.pd = np.full(grid.size, curve.pd[0])
            curve.ci_halfwidth = np.full(grid.size, curve.ci_halfwidth[0])
        out[name] = _pd_columns(curve)
    return out


@scenario("fig-pd-ceilings", 1000, "~2 min",
          ("n", "m", "cp_len", "ibo_db", "snr_db_grid", "targets", "n_per"),
          "Distortion-limited detection plateaus for 16-PSK/16-QAM/64-QAM plus linear "
          "reference curves and the SNR projection of each plateau (short M=3 frame)")
def _scn_pd_ceilings(ctx: RunContext) -> dict[str, Columns]:
    plateau_grid = np.array([0.0, 10.0, 20.0])
    linear_grid = ctx.snr_grid(np.arange(2.0, 19.0, 1.0))
    labels = ("16psk", "16qam", "64qam")
    specs = {}
    for cname, clabel in zip(("16-PSK", "16-QAM", "64-QAM"), labels):
        specs[f"pd_plateau_{clabel}.csv"] = (cname, plateau_grid, f"{clabel}/limited", False, True)
        specs[f"pd_linear_{clabel}.csv"] = (cname, linear_grid, f"{clabel}/linear", True, False)
    curves = _pd_curves(ctx, specs)
    out: dict[str, Columns] = {name: _pd_columns(curve) for name, curve in curves.items()}
    plateaus = [float(np.mean(curves[f"pd_plateau_{clabel}.csv"].pd)) for clabel in labels]
    linear = [curves[f"pd_linear_{clabel}.csv"] for clabel in labels]
    out["snr_projection.csv"] = [
        ("constellation", np.array(labels)),
        ("plateau_pd", np.array(plateaus)),
        ("projected_snr_db", np.array([project_snr(c.snr_db, c.pd, p)
                                       for c, p in zip(linear, plateaus)])),
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


def list_scenarios() -> tuple[Scenario, ...]:
    return tuple(_REGISTRY.values())


def run_scenario(config: ExperimentConfig) -> RunManifest:
    """Execute one registered scenario and write its artifacts."""
    if config.scenario not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown scenario {config.scenario!r}; available: {known}")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    scn = _REGISTRY[config.scenario]
    unused = [f.name for f in fields(config) if f.name not in RUN_CONTROL + scn.settings
              and getattr(config, f.name) is not None]
    if unused:
        raise ConfigError(f"{scn.name} does not use {', '.join(unused)}; its settings are "
                          f"{', '.join(scn.settings)}")
    ctx = RunContext(config, scn)
    start = time.monotonic()
    try:
        tables = scn.runner(ctx)
    except IsacError as exc:
        raise type(exc)(f"scenario {scn.name}: {exc}") from exc
    wallclock = time.monotonic() - start

    out_dir = Path(config.out_dir) / scn.name
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        scenario=scn.name,
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

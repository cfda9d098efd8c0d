"""SO-CFAR detection and probability-of-detection experiments.

The smallest-of CFAR takes, per cell under test, the smaller of the leading
and lagging training-window means (after guard cells) as the noise level and
declares a detection when the cell exceeds ``factor`` times it.  Cells too
close to an edge for one window fall back to the other, full, window.  The
threshold factor comes from Monte-Carlo calibration against a target
false-alarm probability rather than a closed form, because the processing
chain's floor is not exactly exponential once amplifier distortion enters.

``sense`` is the one sensing chain, batched over frames: synthesize, amplify,
attach the prefix, propagate through the targets plus noise, and divide by
the known reference.  ``pd_experiment`` runs it per batch of trials, takes
the zero-Doppler range cut of each estimate's periodogram, and asks whether
the weak target's bin beats the CFAR threshold.  The quoted SNR is the ratio
of unclipped mean transmit power to the per-sample noise variance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, Target, apply_channel
from .errors import CalibrationError, ConfigError
from .pa import PaConfig, sel_amplify
from .radar import division_filter, range_cut
from .seeding import chunk_counts, spawn_rngs
from .signaling import (
    ConstellationSpec,
    FrameConfig,
    SignalingBasis,
    add_cp,
    draw_symbols,
    synthesize,
)

_PD_CHUNK = 50


@dataclass(frozen=True)
class CfarConfig:
    """SO-CFAR geometry and operating point.

    ``factor`` is the calibrated threshold multiplier; leave it ``None`` and
    run :func:`calibrate_cfar` to fill it in.
    """

    window: int = 16
    guard: int = 2
    p_fa: float = 1e-4
    factor: float | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"training window must be >= 1, got {self.window}")
        if self.guard < 0:
            raise ConfigError(f"guard cells must be >= 0, got {self.guard}")
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigError(f"target false-alarm probability must be in (0,1), got {self.p_fa}")
        if self.factor is not None and self.factor <= 0:
            raise ConfigError(f"threshold factor must be positive, got {self.factor}")


@dataclass
class DetectionReport:
    decisions: np.ndarray
    thresholds: np.ndarray
    detected_bins: np.ndarray


def _noise_levels(cuts: np.ndarray, window: int, guard: int) -> np.ndarray:
    """Smallest-of noise estimate per cell, batched over leading axes.

    Sides whose full training window does not fit inside the cut are
    unavailable; a cell with one available side uses it alone.
    """
    length = cuts.shape[-1]
    if length <= 2 * (window + guard) + 1:
        raise ConfigError(
            f"cut of {length} cells is too short for window {window} + guard {guard}"
        )
    cs = np.cumsum(cuts, axis=-1)
    cs = np.concatenate([np.zeros(cuts.shape[:-1] + (1,)), cs], axis=-1)
    i = np.arange(length)
    lead_lo = i - guard - window
    lead_hi = i - guard
    lag_lo = i + guard + 1
    lag_hi = lag_lo + window
    lead_ok = lead_lo >= 0
    lag_ok = lag_hi <= length
    lead_mean = (cs[..., np.clip(lead_hi, 0, length)] - cs[..., np.clip(lead_lo, 0, length)]) / window
    lag_mean = (cs[..., np.clip(lag_hi, 0, length)] - cs[..., np.clip(lag_lo, 0, length)]) / window
    big = np.inf
    lead_mean = np.where(lead_ok, lead_mean, big)
    lag_mean = np.where(lag_ok, lag_mean, big)
    return np.minimum(lead_mean, lag_mean)


def so_cfar(cut: np.ndarray, cfg: CfarConfig) -> DetectionReport:
    """Run the detector over a real range cut."""
    if cfg.factor is None:
        raise ConfigError("CFAR factor not set; run calibrate_cfar first")
    cut = np.asarray(cut, dtype=float)
    if cut.ndim != 1:
        raise ConfigError("so_cfar expects a 1-D range cut")
    noise = _noise_levels(cut, cfg.window, cfg.guard)
    thresholds = cfg.factor * noise
    decisions = cut > thresholds
    return DetectionReport(
        decisions=decisions,
        thresholds=thresholds,
        detected_bins=np.flatnonzero(decisions),
    )


def calibrate_cfar(
    cfg: CfarConfig,
    trials: int,
    rng: np.random.Generator,
    noise_model: str = "exponential",
    cut_len: int = 64,
) -> float:
    """Bisect the threshold factor to the target false-alarm probability.

    ``trials`` counts cell tests; it must be large enough that the expected
    number of false alarms at the target probability is at least 100,
    otherwise the empirical rate is too grainy to match within 10%.
    """
    if trials * cfg.p_fa < 100:
        raise ConfigError(
            f"{trials} cell tests give only {trials * cfg.p_fa:.1f} expected false "
            "alarms; need at least 100"
        )
    if noise_model != "exponential":
        raise ConfigError(f"unknown noise model {noise_model!r}")
    if cut_len <= 2 * (cfg.window + cfg.guard) + 1:
        raise ConfigError("calibration cut length too short for the CFAR geometry")

    rows = math.ceil(trials / cut_len)
    ratios = np.empty(rows * cut_len)
    # draw in bounded batches to keep memory flat
    batch = max(1, 4_000_000 // cut_len)
    start = 0
    while start < rows:
        nb = min(batch, rows - start)
        cells = rng.exponential(1.0, size=(nb, cut_len))
        noise = _noise_levels(cells, cfg.window, cfg.guard)
        ratios[start * cut_len: (start + nb) * cut_len] = (cells / noise).ravel()
        start += nb
    ratios.sort()
    total = ratios.size

    def pfa_at(factor: float) -> float:
        return (total - np.searchsorted(ratios, factor, side="right")) / total

    lo, hi = 1e-6, 1.0
    while pfa_at(hi) > cfg.p_fa and hi < 1e9:
        hi *= 2.0
    if pfa_at(hi) > cfg.p_fa:
        raise CalibrationError("could not bracket the target false-alarm probability")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pfa_at(mid) > cfg.p_fa:
            lo = mid
        else:
            hi = mid
    factor = hi
    achieved = pfa_at(factor)
    if abs(achieved - cfg.p_fa) > 0.1 * cfg.p_fa:
        raise CalibrationError(
            f"calibrated factor {factor:.4f} reaches P_fa={achieved:.3e}, "
            f"more than 10% away from the target {cfg.p_fa:.3e}; increase trials"
        )
    return float(factor)


@dataclass(frozen=True)
class PdPipeline:
    """Everything the per-trial detection chain needs.

    ``pa`` holds the amplifier operating point; ``linear`` bypasses the
    clipper while keeping the same ``g * alpha`` scaling, so linear and
    nonlinear runs are compared at matched transmit power.  The weak target
    must be listed in ``targets``; detection succeeds when its bin (within
    ``tolerance`` bins, for zero-padded grids) beats the threshold.
    """

    constellation: ConstellationSpec
    basis: SignalingBasis
    frame: FrameConfig
    pa: PaConfig
    cfar: CfarConfig
    targets: tuple[Target, ...]
    weak_bin: int = 8
    linear: bool = False
    distortion_limited: bool = False
    n_per: int | None = None
    m_per: int | None = None

    def grids(self) -> tuple[int, int]:
        return (
            self.frame.n if self.n_per is None else self.n_per,
            self.frame.m if self.m_per is None else self.m_per,
        )


@dataclass
class PdCurve:
    """Estimated detection probability against SNR, with Wilson intervals."""

    snr_db: np.ndarray
    pd: np.ndarray
    ci_halfwidth: np.ndarray
    trials: int


def wilson_halfwidth(successes: int, trials: int, z: float = 1.959963984540054) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ConfigError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def sense(pipeline: PdPipeline, sym: np.ndarray, snr_linear: float,
          rng: np.random.Generator, targets: tuple[Target, ...]) -> np.ndarray:
    """Channel estimates (..., n, m) of frames carrying the symbols ``sym``.

    ``sym`` has shape (..., m, n).  The frames are synthesized, amplified (or
    scaled by ``g * alpha`` when linear), given their prefix and sent through
    ``targets`` plus noise of variance ``|g|^2 alpha^2 sigma^2 / snr_linear``
    (none when distortion-limited); the division filter takes them back out.
    """
    fc = pipeline.frame
    pa = pipeline.pa
    x = synthesize(pipeline.basis, sym)
    tx = pa.g * pa.alpha * x if pipeline.linear else sel_amplify(x, pa)
    if pipeline.distortion_limited:
        noise_var = 0.0
    else:
        noise_var = abs(pa.g) ** 2 * pa.alpha**2 * pa.sigma2 / snr_linear
    chan = ChannelConfig(targets=targets, noise_var=noise_var)
    rx = apply_channel(add_cp(tx, fc.cp_len), chan, fc.n, rng)
    return division_filter(rx, sym, fc.cp_len)


def _range_cuts(pipeline: PdPipeline, snr_linear: float, count: int,
                rng: np.random.Generator, targets: tuple[Target, ...]) -> np.ndarray:
    """Zero-Doppler periodogram range cuts for a batch of trials."""
    fc = pipeline.frame
    sym = draw_symbols(pipeline.constellation, (count, fc.m, fc.n), rng)
    return range_cut(sense(pipeline, sym, snr_linear, rng, targets), pipeline.grids()[0])


def _pd_chunk(pipeline: PdPipeline, snr_linear: float, count: int,
              rng: np.random.Generator) -> int:
    cuts = _range_cuts(pipeline, snr_linear, count, rng, pipeline.targets)
    noise = _noise_levels(cuts, pipeline.cfar.window, pipeline.cfar.guard)
    decisions = cuts > pipeline.cfar.factor * noise
    n_per, _ = pipeline.grids()
    scale = n_per // pipeline.frame.n
    center = pipeline.weak_bin * scale
    tolerance = 1 if scale > 1 else 0
    lo = max(0, center - tolerance)
    hi = min(n_per, center + tolerance + 1)
    return int(np.count_nonzero(decisions[:, lo:hi].any(axis=1)))


def _fa_chunk(pipeline: PdPipeline, snr_linear: float, count: int,
              rng: np.random.Generator) -> int:
    cuts = _range_cuts(pipeline, snr_linear, count, rng, ())
    noise = _noise_levels(cuts, pipeline.cfar.window, pipeline.cfar.guard)
    return int(np.count_nonzero(cuts > pipeline.cfar.factor * noise))


def _run_chunked(fn, pipeline, snr_linear, trials, rng, workers):
    sizes = chunk_counts(trials, _PD_CHUNK)
    streams = spawn_rngs(rng, len(sizes))
    args = [(pipeline, snr_linear, sz, r) for sz, r in zip(sizes, streams)]
    if workers <= 1:
        return sum(fn(*a) for a in args)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(fn, *zip(*args)))


def pd_experiment(
    pipeline: PdPipeline,
    snr_grid_db,
    trials: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> PdCurve:
    """Weak-target detection probability over an SNR grid."""
    if pipeline.cfar.factor is None:
        raise ConfigError("CFAR factor not set; run calibrate_cfar first")
    if trials < 1:
        raise ConfigError("at least one trial required")
    if not any(t.delay == pipeline.weak_bin for t in pipeline.targets):
        raise ConfigError(f"no target sits at the weak bin {pipeline.weak_bin}")
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    point_rngs = spawn_rngs(rng, snr_grid_db.size)
    pd = np.empty(snr_grid_db.size)
    half = np.empty(snr_grid_db.size)
    for j, (snr_db, r) in enumerate(zip(snr_grid_db, point_rngs)):
        snr_linear = 10.0 ** (snr_db / 10.0)
        hits = _run_chunked(_pd_chunk, pipeline, snr_linear, trials, r, workers)
        pd[j] = hits / trials
        half[j] = wilson_halfwidth(hits, trials)
    return PdCurve(snr_db=snr_grid_db, pd=pd, ci_halfwidth=half, trials=trials)


def noise_only_false_alarm_rate(
    pipeline: PdPipeline,
    snr_db: float,
    trials: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> float:
    """Empirical per-cell false-alarm rate of the full chain with no targets."""
    if pipeline.cfar.factor is None:
        raise ConfigError("CFAR factor not set; run calibrate_cfar first")
    snr_linear = 10.0 ** (snr_db / 10.0)
    alarms = _run_chunked(_fa_chunk, pipeline, snr_linear, trials, rng, workers)
    n_per, _ = pipeline.grids()
    return alarms / (trials * n_per)

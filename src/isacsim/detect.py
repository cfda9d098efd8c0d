"""SO-CFAR detection and probability-of-detection experiments.

The smallest-of CFAR takes, per cell under test, the smaller of the leading
and lagging training-window means (after guard cells) as the noise level and
declares a detection when the cell exceeds ``factor`` times it.  Cells too
close to an edge for one window fall back to the other, full, window.  The
threshold factor is calibrated by Monte Carlo on i.i.d. unit-exponential
cells (white Gaussian noise), so it meets the target false-alarm probability
only where the floor is that model; amplifier distortion and a zero-padded
range grid leave it, and ``noise_only_false_alarm_rate`` measures the chain.

``sense`` is the one sensing chain, batched over OFDM frames (its division
filter is a receiver for OFDM only): synthesize, amplify, attach the prefix,
propagate through the targets plus noise, and divide by the known reference.
``pd_experiment`` runs it per batch of trials, takes the zero-Doppler range
cut of each estimate's periodogram, and asks whether the weak target's bin
beats the CFAR threshold.  The quoted SNR is the ratio of unclipped mean
transmit power to the per-sample noise variance.

Trials run in chunks of ``_PD_CHUNK``, each on its own spawned stream, so
the counts do not depend on the worker count.  A Pd curve spawns the chunk
seed sequences of every SNR point up front and sends all of its chunks to
one process pool, where each chunk builds its own generator; ``pd_curves``
sends the chunks of several curves to one pool.  The pool takes the chunks
in tasks of consecutive chunks (one task when serial).  Each task draws its
symbols and runs the transmitter, the channel, the receiver and the range
cut in one set of buffers, so its chunks do not allocate those arrays afresh
and a forked worker's speed does not depend on the heap it inherits.  The pool itself is
imported only when a run starts one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, Target, _apply_channel
from .errors import CalibrationError, ConfigError
from .pa import PaConfig, _limit, _power_ratio, sel_amplify  # noqa: F401 (bench wraps sel_amplify)
from .radar import _division_filter, _range_cut, _require_nonzero
from .seeding import chunk_seeds, row_blocks
from .signaling import (
    BasisKind,
    ConstellationSpec,
    FrameConfig,
    SignalingBasis,
    _add_cp,
    _draw_symbols_into,
    _unitary_idft,
)

_PD_CHUNK = 50
#: Cell tests of the default CFAR calibration: 400 expected false alarms at
#: the default P_fa of 1e-4.
DEFAULT_CAL_CELLS = 4_000_000
#: Range bin of the weak target whose detection the Pd experiments score.
WEAK_BIN = 8


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
        if self.factor is not None and not 0 < self.factor < math.inf:
            raise ConfigError(f"threshold factor must be positive and finite, got {self.factor}")


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
    cs = np.zeros(cuts.shape[:-1] + (length + 1,))
    np.cumsum(cuts, axis=-1, out=cs[..., 1:])
    # means[..., j] averages cells j .. j + window - 1
    means = cs[..., window:] - cs[..., :-window]
    means /= window
    reach = guard + window
    inner = length - 2 * reach  # cells with both windows
    lag = means[..., guard + 1:]  # lag[..., i] is the lagging window of cell i
    noise = np.empty(cuts.shape)
    noise[..., :reach] = lag[..., :reach]
    np.minimum(means[..., :inner], lag[..., reach:], out=noise[..., reach:reach + inner])
    noise[..., reach + inner:] = means[..., inner:length - reach]
    return noise


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
    cut_len: int = 64,
) -> float:
    """Threshold factor that meets the target false-alarm probability.

    The empirical P_fa of a factor is the share of noise-only cell-to-noise
    ratios above it, so the smallest factor meeting the target is one order
    statistic of those ratios: the ``allowed + 1``-th largest, where
    ``allowed`` is the most alarms the target permits.  The cells are drawn
    as ``ceil(trials / cut_len)`` cuts of ``cut_len`` cells, in the row
    blocks of :func:`seeding.row_blocks`, and only the ratios that can still
    be among the ``allowed + 1`` largest are kept: memory holds one block and
    at most ``2 (allowed + 1)`` ratios, whatever the number of cells.

    ``trials`` counts cell tests; it must be large enough that the expected
    number of false alarms at the target probability is at least 100,
    otherwise the empirical rate is too grainy to match within 10%.
    """
    if trials * cfg.p_fa < 100:
        raise ConfigError(
            f"{trials} cell tests give only {trials * cfg.p_fa:.1f} expected false "
            "alarms; need at least 100"
        )
    if cut_len <= 2 * (cfg.window + cfg.guard) + 1:
        raise ConfigError("calibration cut length too short for the CFAR geometry")

    rows = math.ceil(trials / cut_len)
    total = rows * cut_len
    # the most ratios that may lie above the factor; counted with the same
    # ``count / total <= p_fa`` test as the achieved rate, since p_fa is not
    # exact in binary
    allowed = bisect.bisect_right(range(total + 1), cfg.p_fa, key=lambda a: a / total) - 1
    keep = allowed + 1
    # candidates hold every ratio above ``floor``, the smallest of the
    # ``keep`` largest ratios seen so far, so they always contain the
    # ``keep`` largest ratios of all the cells drawn
    top, floor = np.empty(0), -np.inf
    # exponential draws are sequential, so the block size does not change the stream
    blocks = row_blocks(rows, cut_len)
    block = np.empty((blocks[0].stop, cut_len))
    for part in blocks:
        cells = rng.standard_exponential(out=block[:part.stop - part.start])
        cells /= _noise_levels(cells, cfg.window, cfg.guard)  # cell-to-noise ratios
        top = np.concatenate((top, cells[cells > floor]))
        if top.size > 2 * keep:
            top = np.partition(top, top.size - keep)[-keep:].copy()  # frees the rest
            floor = top[0]
    factor = np.partition(top, top.size - keep)[top.size - keep]
    achieved = np.count_nonzero(top > factor) / total
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
    clipper while keeping the same ``alpha`` scaling, so linear and
    nonlinear runs are compared at matched transmit power.  A Pd experiment
    needs a target at delay ``WEAK_BIN``; detection succeeds when its bin
    (within one bin, for zero-padded grids) beats the threshold.
    """

    constellation: ConstellationSpec
    basis: SignalingBasis
    frame: FrameConfig
    pa: PaConfig
    cfar: CfarConfig
    targets: tuple[Target, ...]
    linear: bool = False
    distortion_limited: bool = False
    n_per: int | None = None
    m_per: int | None = None

    def __post_init__(self):
        if self.basis != SignalingBasis(BasisKind.OFDM_DFT, self.frame.n):
            raise ConfigError(f"the sensing chain needs an OFDM basis of the frame's n="
                              f"{self.frame.n}, got {self.basis.kind.value} of n={self.basis.n}")

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


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ConfigError("trials must be positive")
    z = 1.959963984540054  # two-sided 95% standard-normal quantile
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def sense(pipeline: PdPipeline, sym: np.ndarray, snr_linear: float,
          rng: np.random.Generator) -> np.ndarray:
    """Channel estimates (..., n, m) of frames carrying the symbols ``sym``.

    ``sym`` has shape (..., m, n).  The frames are synthesized, amplified (or
    scaled by ``alpha`` when linear), given their prefix and sent through
    the pipeline's targets plus noise of variance ``alpha^2 / snr_linear``
    (none when distortion-limited); the division filter takes them back out.
    """
    if sym.shape[-1] != pipeline.basis.n:
        raise ConfigError(
            f"symbol length {sym.shape[-1]} does not match basis size {pipeline.basis.n}")
    _require_nonzero(sym)
    return _sense(pipeline, sym, snr_linear, rng, _Buffers())


class _Buffers:
    """Work arrays of the sensing chain, by name, reused from chunk to chunk.

    Each array grows to the largest shape asked of it, so chunks of any
    geometry share one allocation per name.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape`` and ``dtype``."""
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _sense(pipeline: PdPipeline, sym: np.ndarray, snr_linear: float,
           rng: np.random.Generator, buffers: _Buffers) -> np.ndarray:
    """:func:`sense` of non-zero symbols of the basis' length, in ``buffers``."""
    fc = pipeline.frame
    pa = pipeline.pa
    # synthesized, scaled and limited in one buffer
    x = _unitary_idft(sym, buffers.get("tx", sym.shape, np.result_type(sym, 1j)))
    tx = np.multiply(pa.alpha, x, out=x)
    if not pipeline.linear:
        _limit(tx, pa, np.abs(tx, out=buffers.get("envelope", tx.shape, tx.real.dtype)))
    frames = buffers.get("frames", tx.shape[:-1] + (fc.block_len,), tx.dtype)
    _add_cp(tx, fc.cp_len, frames)
    noise_var = 0.0 if pipeline.distortion_limited else pa.alpha**2 / snr_linear
    chan = ChannelConfig(targets=pipeline.targets, noise_var=noise_var)
    rx = _apply_channel(frames, chan, fc.n, rng, buffers.get)
    return _division_filter(rx, sym, fc.cp_len, buffers.get("freq", sym.shape, rx.dtype))


def _detections(pipeline: PdPipeline, snr_linear: float, count: int, bit_generator: type,
                seed: np.random.SeedSequence, buffers: _Buffers) -> np.ndarray:
    """SO-CFAR decisions on the zero-Doppler periodogram range cuts of a
    batch of trials drawn from ``Generator(bit_generator(seed))``."""
    fc, cfar = pipeline.frame, pipeline.cfar
    n_per, _ = pipeline.grids()
    rng = np.random.Generator(bit_generator(seed))
    sym = _draw_symbols_into(pipeline.constellation, rng,
                             buffers.get("sym", (count, fc.m, fc.n)))
    cuts = _range_cut(_sense(pipeline, sym, snr_linear, rng, buffers), n_per,
                      buffers.get("sums", (count, fc.n)), buffers.get("delay", (count, n_per)),
                      buffers.get("cuts", (count, n_per), float))
    return cuts > cfar.factor * _noise_levels(cuts, cfar.window, cfar.guard)


def _pd_chunk(pipeline: PdPipeline, snr_linear: float, count: int, bit_generator: type,
              seed: np.random.SeedSequence, buffers: _Buffers) -> int:
    decisions = _detections(pipeline, snr_linear, count, bit_generator, seed, buffers)
    n_per, _ = pipeline.grids()
    scale = n_per // pipeline.frame.n
    center = WEAK_BIN * scale
    tolerance = 1 if scale > 1 else 0
    lo = max(0, center - tolerance)
    hi = min(n_per, center + tolerance + 1)
    return int(np.count_nonzero(decisions[:, lo:hi].any(axis=1)))


def _fa_chunk(pipeline: PdPipeline, snr_linear: float, count: int, bit_generator: type,
              seed: np.random.SeedSequence, buffers: _Buffers) -> int:
    return int(np.count_nonzero(
        _detections(pipeline, snr_linear, count, bit_generator, seed, buffers)))


def _chunk_args(pipeline: PdPipeline, snr_linear: float, trials: int,
                rng: np.random.Generator) -> list[tuple]:
    """Chunk-task arguments for ``trials`` trials, each with its chunk seed:
    the workers build the generators, so none is held while the chunks wait."""
    if pipeline.cfar.factor is None:
        raise ConfigError("CFAR factor not set; run calibrate_cfar first")
    if trials < 1:
        raise ConfigError("at least one trial required")
    # every symbol is one of these points, so the chunks need not check theirs
    _require_nonzero(pipeline.constellation.points())
    bit_generator = type(rng.bit_generator)
    return [(pipeline, snr_linear, sz, bit_generator, seed)
            for sz, seed in chunk_seeds(rng, trials, _PD_CHUNK)]


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor(*args, **kwargs)``, imported
    on the first call, so that a run that starts no pool never loads
    ``multiprocessing``.  A module-level function, so that callers can
    replace the name to count pool starts."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(*args, **kwargs)


def _run_task(fn, args: list[tuple]) -> list[int]:
    """``fn(*a, buffers)`` for every chunk in ``args``, all on one set of buffers."""
    buffers = _Buffers()
    return [fn(*a, buffers) for a in args]


def _map_chunks(fn, args: list[tuple], workers: int) -> list[int]:
    """``fn(*a, buffers)`` for every chunk in ``args``, in order, on one pool.

    The chunks go out in tasks of consecutive chunks, and each task runs on
    buffers of its own.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return _run_task(fn, args)
    size = max(1, len(args) // (4 * workers))
    tasks = [args[i:i + size] for i in range(0, len(args), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [count for counts in pool.map(_run_task, [fn] * len(tasks), tasks)
                for count in counts]


def pd_curves(jobs, trials: int, workers: int = 1) -> list[PdCurve]:
    """:func:`pd_experiment` of every ``(pipeline, snr_grid_db, rng)`` job,
    with the chunks of all jobs sent through one pool map."""
    grids, points = [], []
    for pipeline, snr_grid_db, rng in jobs:
        if not any(t.delay == WEAK_BIN for t in pipeline.targets):
            raise ConfigError(f"no target sits at the weak bin {WEAK_BIN}")
        grids.append(np.asarray(snr_grid_db, dtype=float))
        points += [_chunk_args(pipeline, _power_ratio(snr_db, "snr_db"), trials, r)
                   for snr_db, r in zip(grids[-1], rng.spawn(grids[-1].size))]
    counts = iter(_map_chunks(_pd_chunk, [a for args in points for a in args], workers))
    hits = [sum(next(counts) for _ in args) for args in points]
    pd = np.array([h / trials for h in hits], dtype=float)
    half = np.array([wilson_halfwidth(h, trials) for h in hits], dtype=float)
    edges = np.cumsum([grid.size for grid in grids])[:-1]
    return [PdCurve(snr_db=grid, pd=p, ci_halfwidth=c, trials=trials)
            for grid, p, c in zip(grids, np.split(pd, edges), np.split(half, edges))]


def pd_experiment(pipeline: PdPipeline, snr_grid_db, trials: int, rng: np.random.Generator,
                  workers: int = 1) -> PdCurve:
    """Weak-target detection probability over an SNR grid."""
    return pd_curves([(pipeline, snr_grid_db, rng)], trials, workers)[0]


def noise_only_false_alarm_rate(pipeline: PdPipeline, snr_db: float, trials: int,
                                rng: np.random.Generator, workers: int = 1) -> float:
    """Empirical per-cell false-alarm rate of the full chain with no targets."""
    args = _chunk_args(replace(pipeline, targets=()), _power_ratio(snr_db, "snr_db"), trials, rng)
    alarms = sum(_map_chunks(_fa_chunk, args, workers))
    n_per, _ = pipeline.grids()
    return alarms / (trials * n_per)

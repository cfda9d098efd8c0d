"""Periodic and aperiodic ambiguity functions, cuts, and sidelobe metrics.

The ambiguity value at delay ``l`` and Doppler bin ``k`` is

    A(l, k) = (1/sqrt(N)) * sum_p s(p) s*(p - l) exp(-j 2 pi k p / K)

with the delayed index taken modulo N in periodic mode and zero-extended in
aperiodic mode.  ``K`` is the Doppler grid size; with the default ``K = N``
the phase denominator is the signal length itself.  Surfaces store squared
magnitudes.

The zero-Doppler cut (``K = 1``) is a plain cross-correlation, computed by
FFT in O(N log N) (:func:`_xcorr`).  For ``K > 1`` the delayed copies
``s*(p - l)`` are the rows of a sliding-window view over the conjugate,
extended by its own tail (periodic) or by ``N - 1`` zeros on each side
(aperiodic), so no index table is built.  The lag products are folded modulo
``K`` (or zero-padded when ``K > N``) before a length-``K`` FFT, which
reproduces the direct sum exactly for any grid size.

Every surface is built one block of lag rows at a time (:func:`_af_blocks`).
At ``K = 1`` the one block is the FFT correlation; otherwise each block holds
about ``_BLOCK_CELLS`` lag products over all batch rows (at least one lag
row), and is folded, transformed, scaled and written into the output before
the next is formed.  :func:`paf` and :func:`aaf` square each block into the
float surface, and :func:`average_af` squares and sums it over the chunk's
trials, so no surface-sized complex array is held.  The working set is the
output plus one block, never the whole lag-product tensor.  The FFT runs per
row and every other step is elementwise, so the blocks give the same bits as
one pass over all lags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError
from .seeding import DEFAULT_CHUNK, chunk_rngs

#: Lag-product cells, over all batch rows, in one block of a full surface.
_BLOCK_CELLS = 8_192


class AfMode(Enum):
    PERIODIC = "periodic"
    APERIODIC = "aperiodic"


@dataclass
class AmbiguitySurface:
    """Squared-magnitude ambiguity grid.

    ``values`` has one row per delay and one column per Doppler bin.  The
    delay axis is ``0..N-1`` (periodic) or ``1-N..N-1`` (aperiodic); the
    Doppler axis is the unshifted FFT ordering ``0..K-1`` with bin 0 at
    column 0.
    """

    values: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    mode: AfMode
    normalized: bool = False

    @property
    def zero_delay_index(self) -> int:
        return int(np.flatnonzero(self.delays == 0)[0])


@dataclass(frozen=True)
class SidelobeMetrics:
    """Zero-Doppler-cut summary of a surface.

    On a Monte-Carlo-averaged surface ``isl`` and ``eislr`` estimate the
    expected levels (EISL, EISLR); on a single realization they are the
    plain integrated levels.  Periodic surfaces store each circular lag
    once, but the sidelobe sum counts the ``+l``/``-l`` pair separately
    (2N-2 terms), matching the aperiodic convention so the two modes are
    comparable.
    """

    isl: float
    eislr: float
    pslr: float
    mainlobe: float


def _lags(n: int, mode: AfMode) -> np.ndarray:
    """Delay axis: ``0..n-1`` (periodic) or ``1-n..n-1`` (aperiodic)."""
    return np.arange(n) if mode is AfMode.PERIODIC else np.arange(1 - n, n)


def _n_lags(n: int, mode: AfMode) -> int:
    return n if mode is AfMode.PERIODIC else 2 * n - 1


def _doppler_bins(n: int, k_grid: int | None) -> int:
    """Validated Doppler grid size (``N`` when omitted) for signals of length ``n``."""
    if n < 2:
        raise ConfigError("signal length must be at least 2")
    k = n if k_grid is None else int(k_grid)
    if k < 1:
        raise ConfigError(f"Doppler grid must have at least one bin, got {k}")
    return k


def _xcorr(a: np.ndarray, b: np.ndarray, mode: AfMode) -> np.ndarray:
    """FFT cross-correlation ``sum_p a(p) b*(p-l)`` over the mode's lag axis.

    Periodic: lags ``0..n-1`` (delayed index modulo n).  Aperiodic: lags
    ``1-n..n-1`` with zero extension.  Batched over leading axes.
    """
    n = a.shape[-1]
    size = n if mode is AfMode.PERIODIC else 2 * n
    fa = np.fft.fft(a, n=size, axis=-1)
    fb = fa if b is a else np.fft.fft(b, n=size, axis=-1)
    full = np.fft.ifft(fa * np.conj(fb), axis=-1)
    if mode is AfMode.PERIODIC:
        return full
    return np.concatenate([full[..., size - (n - 1):], full[..., :n]], axis=-1)


def _delayed_conj(v: np.ndarray, mode: AfMode) -> np.ndarray:
    """Read-only view whose rows are ``v*(p - l)``, one per lag of the mode's axis.

    The rows are the windows of the conjugate extended by its own tail
    (periodic) or by ``n - 1`` zeros on each side (aperiodic), last first."""
    n = v.shape[-1]
    c = np.conj(v)
    if mode is AfMode.PERIODIC:
        ext = np.concatenate([c[..., 1:], c], axis=-1)
    else:
        ext = np.zeros(c.shape[:-1] + (3 * n - 2,), dtype=c.dtype)
        ext[..., n - 1:2 * n - 1] = c
    # the windows of sliding_window_view(ext, n, axis=-1), without its
    # argument checks, which cost more than a small surface's products
    windows = np.lib.stride_tricks.as_strided(
        ext, ext.shape[:-1] + (ext.shape[-1] - n + 1, n), ext.strides + ext.strides[-1:],
        writeable=False,
    )
    return windows[..., ::-1, :]


def _lag_products(u: np.ndarray, delayed: np.ndarray, lags: slice = slice(None)) -> np.ndarray:
    """Products ``u(p) v*(p - l)`` of the lag rows ``lags`` of ``delayed``, a
    :func:`_delayed_conj` view of ``v``; shape (..., rows, n).

    The rows are copied out of the view and multiplied in place.  numpy
    buffers both the broadcast ``u`` and the overlapping windows of a
    product into a new array, in buffers of 8,192 elements (one block);
    the in-place product buffers only ``u``."""
    prod = delayed[..., lags, :].astype(np.result_type(u, delayed))
    return np.multiply(u[..., None, :], prod, out=prod)


def _lag_rows(n_rows: int, row_cells: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` lag rows, each about ``_BLOCK_CELLS``
    cells (at least one row) when a row holds ``row_cells``; the last is ragged."""
    step = max(1, _BLOCK_CELLS // row_cells)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _doppler_transform(prod: np.ndarray, k: int) -> np.ndarray:
    """Exact evaluation of ``sum_p prod(p) exp(-j 2 pi k p / K)`` for all bins."""
    n = prod.shape[-1]
    if k < n:
        pad = (-n) % k
        if pad:
            shape = prod.shape[:-1] + (pad,)
            prod = np.concatenate([prod, np.zeros(shape, dtype=prod.dtype)], axis=-1)
        prod = prod.reshape(prod.shape[:-1] + (-1, k)).sum(axis=-2)
    return np.fft.fft(prod, n=k, axis=-1)


def _af_dtype(*arrays) -> np.dtype:
    """Complex dtype of the scaled AF values of ``arrays``: that of
    ``fft(products) / sqrt(n)``, whose scale is a float64."""
    return np.result_type(*arrays, np.complex64, np.float64)


def _af_blocks(u: np.ndarray, v: np.ndarray, k: int, mode: AfMode):
    """Yield ``(lag rows, scaled complex AF values of those rows)`` over the
    whole lag axis.

    ``K = 1`` yields one block from the FFT correlation.  Otherwise the
    delayed conjugate is built once, and each block of about
    ``_BLOCK_CELLS`` lag products is formed, folded, transformed and scaled
    row by row exactly as for the whole tensor."""
    scale = np.sqrt(u.shape[-1])
    if k == 1:
        yield slice(None), _xcorr(u, v, mode)[..., None] / scale
        return
    delayed = _delayed_conj(v, mode)
    for rows in _lag_rows(delayed.shape[-2], u.size):
        yield rows, _doppler_transform(_lag_products(u, delayed, rows), k) / scale


def cross_af(
    u: np.ndarray,
    v: np.ndarray | None = None,
    k_grid: int | None = None,
    mode: AfMode = AfMode.PERIODIC,
) -> np.ndarray:
    """Complex (cross-)ambiguity values on the (lag, Doppler) grid.

    ``u`` and ``v`` may carry leading batch axes.  Self-AF when ``v`` is
    omitted.  Shape of the result: (..., n_lags, K).
    """
    if v is None:
        v = u
    if u.shape != v.shape:
        raise ConfigError(f"shape mismatch {u.shape} vs {v.shape}")
    n = u.shape[-1]
    k = _doppler_bins(n, k_grid)
    out = np.empty(u.shape[:-1] + (_n_lags(n, mode), k), _af_dtype(u, v))
    for rows, block in _af_blocks(u, v, k, mode):
        out[..., rows, :] = block
    return out


def _surface_from_values(values, n, k, mode):
    return AmbiguitySurface(values=values, delays=_lags(n, mode), dopplers=np.arange(k), mode=mode)


def _squared_surface(signal: np.ndarray, k_grid: int | None, mode: AfMode) -> AmbiguitySurface:
    """``|cross_af(signal)|**2``, squared one block at a time into the surface."""
    n = signal.shape[-1]
    k = _doppler_bins(n, k_grid)
    real = np.finfo(_af_dtype(signal)).dtype
    values = np.empty(signal.shape[:-1] + (_n_lags(n, mode), k), real)
    for rows, block in _af_blocks(signal, signal, k, mode):
        mag = values[..., rows, :]
        np.square(np.abs(block, out=mag), out=mag)
    return _surface_from_values(values, n, k, mode)


def paf(signal: np.ndarray, k_grid: int | None = None) -> AmbiguitySurface:
    """Periodic ambiguity surface (squared magnitudes) of one signal."""
    return _squared_surface(signal, k_grid, AfMode.PERIODIC)


def aaf(signal: np.ndarray, k_grid: int | None = None) -> AmbiguitySurface:
    """Aperiodic ambiguity surface; delay axis spans ``1-N .. N-1``."""
    return _squared_surface(signal, k_grid, AfMode.APERIODIC)


def zero_doppler_cut(surface: AmbiguitySurface) -> np.ndarray:
    """Slice at Doppler bin 0, indexed by the surface's delay axis."""
    return surface.values[:, 0].copy()


def zero_delay_cut(surface: AmbiguitySurface) -> np.ndarray:
    """Slice at delay 0, indexed by the surface's Doppler axis."""
    return surface.values[surface.zero_delay_index, :].copy()


def _mc_chunk_size(n: int, mode: AfMode, k: int) -> int:
    """Trials per averaging chunk, from the problem geometry alone.

    The formula once capped the lag-product tensor of every chunk; the lag
    blocks bound memory now.  It stays unchanged because the chunk sizes fix
    how many streams are spawned and how many trials each draws, so it pins
    the RNG stream layout (and never depends on the worker count)."""
    per_trial = _n_lags(n, mode) * max(n, k)
    return max(1, min(DEFAULT_CHUNK, 4_000_000 // per_trial))


def average_af(
    generator: Callable[[np.random.Generator, int], np.ndarray],
    trials: int,
    k_grid: int | None = None,
    mode: AfMode = AfMode.PERIODIC,
    *,
    rng: np.random.Generator,
    normalize: bool = True,
) -> AmbiguitySurface:
    """Mean squared AF over independent realizations drawn from ``rng``.

    ``generator(rng, count)`` must return a ``(count, N)`` batch of signals.
    The averaged surface is peak-normalized by default (pass
    ``normalize=False`` to keep raw units, e.g. for integrated-sidelobe
    comparisons against closed-form levels).
    """
    if trials < 1:
        raise ConfigError("at least one trial required")
    # throwaway draw on a fixed stream, used only to learn the signal length
    probe = np.shape(generator(np.random.default_rng(0), 1))
    if len(probe) != 2 or probe[0] != 1:
        raise ConfigError(f"generator(rng, 1) returned shape {probe}, expected (1, N)")
    n = probe[1]
    k = _doppler_bins(n, k_grid)

    accum = None
    for sz, r in chunk_rngs(rng, trials, _mc_chunk_size(n, mode, k)):
        batch = generator(r, sz)
        if np.shape(batch) != (sz, n):
            raise ConfigError(f"generator(rng, {sz}) returned shape {np.shape(batch)}, "
                              f"expected {(sz, n)}")
        part = np.empty((_n_lags(n, mode), k), np.finfo(_af_dtype(batch)).dtype)
        # np.sum(np.abs(a) ** 2, axis=0) of each block, squared in place:
        # small-N chunks run many blocks, so each call counts
        for rows, block in _af_blocks(batch, batch, k, mode):
            mag2 = np.abs(block)
            np.add.reduce(np.square(mag2, out=mag2), axis=0, out=part[rows])
        del block, mag2  # so the next chunk is drawn without them
        accum = part if accum is None else accum + part
    values = accum / trials

    surface = _surface_from_values(values, n, k, mode)
    if normalize:
        peak = values[surface.zero_delay_index, 0]
        if peak <= 0:
            raise NumericError("cannot normalize: zero value at the origin")
        surface.values = values / peak
        surface.normalized = True
    return surface


def sidelobe_metrics(surface: AmbiguitySurface) -> SidelobeMetrics:
    """Integrated and peak sidelobe levels of the zero-Doppler cut."""
    cut = zero_doppler_cut(surface)
    if not np.any(cut > 0):
        raise NumericError("degenerate surface: zero-Doppler cut is identically zero")
    i0 = surface.zero_delay_index
    main = float(cut[i0])
    if main <= 0:
        raise NumericError("degenerate surface: no mainlobe at the origin")
    side = np.delete(cut, i0)
    isl = float(side.sum())
    if surface.mode is AfMode.PERIODIC:
        isl *= 2.0
    peak_side = float(side.max()) if side.size else 0.0
    return SidelobeMetrics(
        isl=isl,
        eislr=isl / main,
        pslr=peak_side / main,
        mainlobe=main,
    )


def to_db(values, floor: float = -100.0) -> np.ndarray:
    """10*log10 with a clamp at ``floor`` dB (CSV/plot convention)."""
    lin_floor = 10.0 ** (floor / 10.0)
    return 10.0 * np.log10(np.maximum(np.asarray(values, dtype=float), lin_floor))

"""Monostatic receiver processing: division filter and 2-D periodogram.

The receiver removes each symbol's cyclic prefix, takes the unitary forward
DFT, and divides element-wise by the known transmitted frequency symbols
(the clean pre-amplifier ones, so amplifier distortion stays visible in the
estimate).  Stacking the per-symbol estimates column-wise gives an N x M
matrix whose 2-D transform is the delay-Doppler periodogram

    Per(l, k) = (1/(N M)) |sum_n (sum_m H(n, m) e^{-j2 pi k m / M_per})
                                   e^{+j2 pi l n / N_per}|^2.

The 1/(N M) scale uses the frame size (not the padded grid sizes), so
absolute levels are comparable across padding choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .signaling import BasisKind, SignalingBasis, analyze


def division_filter(
    received: np.ndarray, reference_symbols: np.ndarray, cp_len: int
) -> np.ndarray:
    """Per-subcarrier, per-symbol channel estimates, shape (..., n, m).

    ``received`` holds frames of shape (..., m, n + cp_len), CP included;
    ``reference_symbols`` is the (..., m, n) matrix of transmitted frequency
    symbols before amplification.
    """
    n = received.shape[-1] - cp_len
    if reference_symbols.shape != received.shape[:-1] + (n,):
        raise ConfigError(
            f"reference shape {reference_symbols.shape} does not match the received "
            f"frames {received.shape} with a {cp_len}-sample prefix"
        )
    if np.any(reference_symbols == 0):
        raise NumericError("reference symbols contain an exact zero; cannot divide")
    freq_rows = analyze(SignalingBasis(BasisKind.OFDM_DFT, n), received[..., cp_len:])
    return np.swapaxes(freq_rows / reference_symbols, -1, -2)


def range_cut(hhat: np.ndarray, n_per: int) -> np.ndarray:
    """Zero-Doppler column of the periodogram of (..., n, m) estimates.

    The zero-Doppler bin of the transform over symbols is their sum, so only
    the delay transform is taken, on ``n_per`` bins.  Batched over leading
    axes.
    """
    n, m = hhat.shape[-2:]
    if n_per < n:
        raise ConfigError(f"range grid of {n_per} bins must cover the {n} subcarriers")
    col = hhat.sum(axis=-1)
    return np.abs(np.fft.ifft(col, n=n_per, axis=-1) * n_per) ** 2 / (n * m)


@dataclass
class Periodogram:
    """Delay-Doppler power map.

    ``values[..., l, j]`` at delay bin ``delay_bins[l]`` (0-based) and Doppler
    bin ``doppler_bins[j]``; the Doppler axis is centered (negative bins
    first).
    """

    values: np.ndarray
    delay_bins: np.ndarray
    doppler_bins: np.ndarray


def periodogram(hhat: np.ndarray, n_per: int | None = None, m_per: int | None = None) -> Periodogram:
    """2-D periodogram of (..., n, m) channel-estimate matrices."""
    n, m = hhat.shape[-2:]
    n_per = n if n_per is None else int(n_per)
    m_per = m if m_per is None else int(m_per)
    if n_per < n or m_per < m:
        raise ConfigError(
            f"periodogram grid ({n_per} x {m_per}) must cover the estimate ({n} x {m})"
        )
    doppler = np.fft.fft(hhat, n=m_per, axis=-1)
    delay = np.fft.ifft(doppler, n=n_per, axis=-2) * n_per
    values = np.fft.fftshift(np.abs(delay) ** 2 / (n * m), axes=-1)
    doppler_bins = np.fft.fftshift(np.fft.fftfreq(m_per, d=1.0 / m_per)).astype(int)
    return Periodogram(
        values=values,
        delay_bins=np.arange(n_per),
        doppler_bins=doppler_bins,
    )


def snr_per(snr_linear: float, n_per: int, m_per: int) -> float:
    """Post-integration SNR bookkeeping in dB: input SNR plus the
    processing gain of the ``n_per * m_per`` coherent grid."""
    if snr_linear <= 0 or n_per < 1 or m_per < 1:
        raise ConfigError("snr and grid sizes must be positive")
    return 10.0 * np.log10(snr_linear) + 10.0 * np.log10(n_per * m_per)

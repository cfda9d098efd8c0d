"""Shared helpers: reference oracles and signal generators used across tests."""

import tracemalloc

import numpy as np

from isacsim import (
    PaConfig,
    add_cp,
    draw_symbols,
    limiter_compression_power,
    parse_basis,
    parse_constellation,
    sel_amplify,
    synthesize,
)
from isacsim.ambiguity import AfMode


def brute_force_af(x, k_grid=None, mode=AfMode.PERIODIC, y=None):
    """O(N^2 K) direct evaluation of (1/sqrt(N)) sum_p x(p) y*((p-l)) e^{-j2pi kp/K}.

    Self-AF (``y = x``) when ``y`` is omitted.  Deliberately written as plain
    loops so it shares nothing with the FFT implementation under test.
    """
    x = np.asarray(x)
    y = x if y is None else np.asarray(y)
    n = x.shape[-1]
    k_grid = n if k_grid is None else int(k_grid)
    lags = np.arange(n) if mode is AfMode.PERIODIC else np.arange(1 - n, n)
    out = np.zeros((lags.size, k_grid), dtype=complex)
    for i, lag in enumerate(lags):
        for k in range(k_grid):
            acc = 0.0 + 0.0j
            for p in range(n):
                if mode is AfMode.PERIODIC:
                    v = y[(p - lag) % n]
                else:
                    q = p - lag
                    v = y[q] if 0 <= q < n else 0.0
                acc += x[p] * np.conj(v) * np.exp(-2j * np.pi * k * p / k_grid)
            out[i, k] = acc
    return out / np.sqrt(n)


def gathered_lag_products(u, v, mode):
    """Delayed products ``u(p) v*(p - l)`` from an index table; shape (..., n_lags, n)."""
    n = u.shape[-1]
    p = np.arange(n)
    if mode is AfMode.PERIODIC:
        idx = (p[None, :] - np.arange(n)[:, None]) % n
        return u[..., None, :] * np.conj(v[..., idx])
    raw = p[None, :] - np.arange(1 - n, n)[:, None]
    mask = (raw >= 0) & (raw < n)
    return u[..., None, :] * np.conj(v[..., np.clip(raw, 0, n - 1)]) * mask


def full_tensor_af(u, v, k, mode):
    """The whole-tensor surface the lag blocks replaced: every lag product at
    once, folded modulo K (or zero-padded), one FFT, one scaling."""
    n = u.shape[-1]
    prod = gathered_lag_products(u, v, mode)
    if k < n:
        pad = np.zeros(prod.shape[:-1] + ((-n) % k,), dtype=prod.dtype)
        prod = np.concatenate([prod, pad], axis=-1)
        prod = prod.reshape(prod.shape[:-1] + (-1, k)).sum(axis=-2)
    return np.fft.fft(prod, n=k, axis=-1) / np.sqrt(n)


def zadoff_chu(n, root=1):
    """Odd-length Zadoff-Chu sequence (ideal periodic autocorrelation)."""
    assert n % 2 == 1
    p = np.arange(n)
    return np.exp(-1j * np.pi * root * p * (p + 1) / n)


def pa_compression(ibo_db, v_sat=1.0):
    """Back-off referenced to the limiter's 1 dB compression point."""
    return PaConfig(
        v_sat=v_sat,
        ibo=10.0 ** (ibo_db / 10.0),
        p1db=limiter_compression_power(v_sat),
    )


def pa_limiter(ibo_db, v_sat=1.0):
    """Back-off referenced to the saturation power itself."""
    return PaConfig(v_sat=v_sat, ibo=10.0 ** (ibo_db / 10.0))


def tx_generator(constellation, basis_name, n, pa=None, cp_len=0):
    """Batch generator of (amplified) frames for average_af-style consumers."""
    const = parse_constellation(constellation)
    basis = parse_basis(basis_name, n)

    def gen(rng, count):
        sym = draw_symbols(const, (count, n), rng)
        x = synthesize(basis, sym)
        if cp_len:
            x = add_cp(x, cp_len)
        if pa is None:
            return x
        return sel_amplify(x, pa)

    return gen


def scaled_linear_generator(constellation, basis_name, n, pa):
    """Same transmit scaling as the amplifier path but with the clipper off."""
    const = parse_constellation(constellation)
    basis = parse_basis(basis_name, n)

    def gen(rng, count):
        sym = draw_symbols(const, (count, n), rng)
        return pa.alpha * synthesize(basis, sym)

    return gen


def traced_peak_bytes(fn, *args, **kwargs):
    """Peak bytes allocated while ``fn(*args, **kwargs)`` runs.

    ``tracemalloc`` sees numpy's data buffers, so this is the call's working
    set, its result included.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

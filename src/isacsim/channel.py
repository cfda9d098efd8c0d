"""Delay-Doppler multipath target channel and additive receiver noise.

Each target contributes a delayed copy of the serialized frame, rotated by a
per-symbol constant phase that advances with the symbol index (one block of
samples per symbol, so the advance is ``2 pi (k_h / n) * block_len`` per
symbol).  Working on the serialized frame makes inter-block interference fall
out naturally: the head of a delayed symbol picks up the tail of its
predecessor, exactly as the banded two-term per-symbol convolution would
produce it, at O(targets * samples) cost.  The explicit per-symbol matrix
form survives only as a slow oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Target:
    """One propagation path: complex gain, integer delay bin, normalized
    Doppler in cycles per ``n`` samples."""

    b: complex
    delay: int
    doppler: float = 0.0

    def __post_init__(self):
        if not 0 < abs(self.b) < math.inf:
            raise ConfigError(f"target gain must be non-zero and finite, got {self.b}")
        if self.delay < 0:
            raise ConfigError(f"target delay must be non-negative, got {self.delay}")


@dataclass(frozen=True)
class ChannelConfig:
    """Target list plus noise level."""

    targets: tuple[Target, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not 0 <= self.noise_var < math.inf:
            raise ConfigError(f"noise variance must be finite and >= 0, got {self.noise_var}")


def add_noise(signal: np.ndarray, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise of the given variance to a copy."""
    if not 0 <= noise_var < math.inf:
        raise ConfigError(f"noise variance must be finite and >= 0, got {noise_var}")
    out = signal.astype(np.result_type(signal, 1j))
    if noise_var > 0:
        _add_noise(out, noise_var, rng)
    return out


def _add_noise(out: np.ndarray, noise_var: float, rng: np.random.Generator,
               draw: np.ndarray | None = None) -> None:
    """Add the noise of :func:`add_noise` to the complex array ``out`` itself.

    Each part's standard normals are drawn into ``draw``, a float array of
    ``out``'s shape, or into a new array when it is None.
    """
    scale = np.sqrt(noise_var / 2.0)
    for part in (out.real, out.imag):  # every real part is drawn first
        z = rng.standard_normal(out.shape, out=draw)
        part += np.multiply(scale, z, out=z)


def apply_channel(
    frames: np.ndarray,
    cfg: ChannelConfig,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Propagate frames through the target channel and add noise.

    ``frames`` has shape (..., m, block): ``m`` symbols of ``block = n +
    cp_len`` samples each, CP included.  Each frame is serialized, so a delayed
    symbol picks up the tail of its predecessor; the result has the input's
    shape.  In CP mode every delay must fit inside the prefix so that, after
    CP removal, each symbol sees a purely circular channel.
    """
    return _apply_channel(frames, cfg, n, rng, _new_array)


def _new_array(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A fresh array for each ``buffer`` request of :func:`_apply_channel`."""
    return np.empty(shape, dtype)


def _apply_channel(frames: np.ndarray, cfg: ChannelConfig, n: int, rng: np.random.Generator,
                   buffer) -> np.ndarray:
    """:func:`apply_channel` without allocating: ``buffer(name, shape,
    dtype)`` gives the C-contiguous arrays it works in, one per name (the
    received frames, each later target's echo and the noise draw)."""
    m, block = frames.shape[-2:]
    cp_len = block - n
    for t in cfg.targets:
        if cp_len > 0 and t.delay >= cp_len:
            raise ConfigError(
                f"target delay {t.delay} reaches past the cyclic prefix "
                f"({cp_len} samples); lengthen the CP or drop the target"
            )
        if t.delay >= block:
            raise ConfigError(
                f"target delay {t.delay} exceeds the per-symbol block of {block} samples"
            )
    serial = frames.reshape(frames.shape[:-2] + (m * block,))
    out = buffer("received", frames.shape, np.result_type(frames, 1j))
    received = out.reshape(serial.shape)
    # zero up to the first target's delay; that target writes every later sample
    received[..., :cfg.targets[0].delay if cfg.targets else None] = 0
    symbol_phase_step = 2.0 * np.pi * block / n
    for i, t in enumerate(cfg.targets):
        gain = t.b if t.doppler == 0 else np.repeat(
            t.b * np.exp(1j * symbol_phase_step * t.doppler * np.arange(m)), block)[t.delay:]
        delayed = serial[..., :m * block - t.delay]
        if i == 0:
            np.multiply(gain, delayed, out=received[..., t.delay:])
        else:
            echo = buffer("echo", delayed.shape, np.result_type(gain, delayed))
            received[..., t.delay:] += np.multiply(gain, delayed, out=echo)
    if cfg.noise_var > 0:
        _add_noise(out, cfg.noise_var, rng, buffer("noise", out.shape, float))
    return out


# The benchmark tracer (bench/spans.py) still looks this name up.
apply_channel_batch = apply_channel

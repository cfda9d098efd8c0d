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
        if abs(self.b) <= 0:
            raise ConfigError("target gain must be non-zero")
        if self.delay < 0:
            raise ConfigError(f"target delay must be non-negative, got {self.delay}")


@dataclass(frozen=True)
class ChannelConfig:
    """Target list plus noise level."""

    targets: tuple[Target, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.noise_var < 0:
            raise ConfigError(f"noise variance must be non-negative, got {self.noise_var}")


def add_noise(signal: np.ndarray, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise of the given variance."""
    if noise_var < 0:
        raise ConfigError(f"noise variance must be non-negative, got {noise_var}")
    if noise_var == 0:
        return np.array(signal, copy=True)
    scale = np.sqrt(noise_var / 2.0)
    noise = scale * (
        rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape)
    )
    return signal + noise


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
    received = np.zeros_like(serial)
    symbol_phase_step = 2.0 * np.pi * block / n
    for t in cfg.targets:
        shifted = np.zeros_like(serial)
        if t.delay == 0:
            shifted[...] = serial
        else:
            shifted[..., t.delay:] = serial[..., : serial.shape[-1] - t.delay]
        phases = np.exp(1j * symbol_phase_step * t.doppler * np.arange(m))
        rot = np.repeat(phases, block)
        received += t.b * rot * shifted
    return add_noise(received, cfg.noise_var, rng).reshape(frames.shape)


# The benchmark tracer (bench/spans.py) still looks this name up.
apply_channel_batch = apply_channel

"""Delay-Doppler multipath target channel and additive receiver noise.

Each target contributes a delayed copy of the serialized frame, rotated by a
per-symbol constant phase that advances with the symbol index (one block of
samples per symbol, so the advance is ``2 pi (k_h / n) * block_len`` per
symbol).  Working on the serialized frame makes inter-block interference fall
out naturally: the head of a delayed symbol picks up the tail of its
predecessor, exactly as the banded two-term per-symbol convolution would
produce it, at O(targets * samples) cost.  The explicit per-symbol matrix
form survives only as a slow oracle in the tests.

:func:`apply_channel` is the time-domain propagation model.  The sensing
chain of ``detect`` applies the same channel per subcarrier instead, and
the tests check it against this function.
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
        scale = np.sqrt(noise_var / 2.0)
        for part in (out.real, out.imag):  # every real part is drawn first
            z = rng.standard_normal(out.shape)
            part += np.multiply(scale, z, out=z)
    return out


def _check_delays(targets: tuple[Target, ...], n: int, cp_len: int) -> None:
    """Reject a delay past the prefix, behind which a symbol would not see a
    circular channel, or, when there is none, past the symbol itself."""
    reach, span = (cp_len, "cyclic prefix") if cp_len else (n, "symbol")
    for t in targets:
        if t.delay >= reach:
            raise ConfigError(f"target delay {t.delay} reaches past the {reach}-sample {span}")


def _symbol_gains(t: Target, n: int, m: int, block: int) -> np.ndarray:
    """The target's gain on each of ``m`` symbols of ``block`` samples."""
    return t.b * np.exp(1j * (2.0 * np.pi * block / n) * t.doppler * np.arange(m))


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
    _check_delays(cfg.targets, n, block - n)
    serial = frames.reshape(frames.shape[:-2] + (m * block,))
    out = np.zeros(frames.shape, np.result_type(frames, 1j))
    received = out.reshape(serial.shape)
    for t in cfg.targets:
        gain = t.b if t.doppler == 0 else np.repeat(_symbol_gains(t, n, m, block), block)[t.delay:]
        received[..., t.delay:] += gain * serial[..., :m * block - t.delay]
    return add_noise(out, cfg.noise_var, rng)


# The benchmark tracer (bench/spans.py) still looks this name up.
apply_channel_batch = apply_channel

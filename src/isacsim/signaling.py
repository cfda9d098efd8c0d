"""Constellations, signaling bases, and cyclic-prefix framing.

Data symbols are drawn i.i.d. from unit-average-power PSK or square-QAM
constellations, then mapped to time-domain samples through a unitary basis:
the adjoint DFT for multicarrier transmission, the identity for single
carrier, or a normalized Hadamard matrix for code spreading.  All three maps
preserve energy, so a unit-power symbol vector yields a unit-power time
signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError


class Scheme(Enum):
    PSK = "psk"
    QAM = "qam"


class BasisKind(Enum):
    OFDM_DFT = "ofdm"
    SC_IDENTITY = "sc"
    CDMA_HADAMARD = "cdma"


def _gray(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


@dataclass(frozen=True)
class ConstellationSpec:
    """A PSK or square-QAM constellation of the given order.

    Points are zero mean with exactly unit average power; the index order
    follows a Gray labeling (fixed so that seeded draws are reproducible,
    although the labeling itself does not affect any sensing statistic).
    """

    scheme: Scheme
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ConfigError(f"constellation order must be >= 2, got {self.order}")
        if self.scheme is Scheme.QAM:
            side = int(round(np.sqrt(self.order)))
            if side * side != self.order or side % 2 != 0:
                raise ConfigError(
                    f"QAM order must be a perfect square with an even side, got {self.order}"
                )

    def points(self) -> np.ndarray:
        return _constellation_points(self.scheme, self.order)

    def __str__(self):
        return f"{self.order}-{self.scheme.name}"


@lru_cache(maxsize=None)
def _constellation_points(scheme: Scheme, order: int) -> np.ndarray:
    if scheme is Scheme.PSK:
        k = _gray(np.arange(order))
        pts = np.exp(1j * np.pi * (2 * k + 1) / order)
    else:
        side = int(round(np.sqrt(order)))
        levels = 2 * _gray(np.arange(side)) - (side - 1)
        re, im = np.meshgrid(levels, levels, indexing="xy")
        pts = (re + 1j * im).ravel()
        # exact unit-power scale for a square grid of odd levels
        pts = pts / np.sqrt(2.0 * (side * side - 1) / 3.0)
    pts.flags.writeable = False
    return pts


def parse_constellation(text: str) -> ConstellationSpec:
    """Parse strings like ``16-PSK`` or ``64qam`` (case-insensitive)."""
    t = text.strip().upper().replace("_", "-")
    for scheme in (Scheme.PSK, Scheme.QAM):
        name = scheme.name
        if t.endswith(name):
            head = t[: -len(name)].rstrip("-")
            try:
                return ConstellationSpec(scheme, int(head))
            except ValueError:
                break
    raise ConfigError(f"cannot parse constellation {text!r} (expected e.g. '16-PSK')")


@dataclass(frozen=True)
class SignalingBasis:
    """Unitary symbol-to-sample map of size ``n``."""

    kind: BasisKind
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"basis size must be positive, got {self.n}")
        if self.kind is BasisKind.CDMA_HADAMARD and (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"Hadamard spreading requires a power-of-two size, got {self.n}")


def parse_basis(text: str, n: int) -> SignalingBasis:
    t = text.strip().lower()
    for kind in BasisKind:
        if t == kind.value:
            return SignalingBasis(kind, n)
    raise ConfigError(f"unknown basis {text!r} (expected one of: ofdm, sc, cdma)")


@lru_cache(maxsize=None)
def _hadamard_unitary(n: int) -> np.ndarray:
    """Sylvester-ordered Hadamard matrix of power-of-two order ``n``, scaled
    to be unitary."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h = h / np.sqrt(n)
    h.flags.writeable = False
    return h


def draw_symbols(spec: ConstellationSpec, n, rng: np.random.Generator) -> np.ndarray:
    """Draw symbols uniformly from the constellation.

    ``n`` may be an int or a shape tuple.
    """
    return _draw_symbols_into(spec, rng, np.empty(n, spec.points().dtype))


def _draw_symbols_into(spec: ConstellationSpec, rng: np.random.Generator,
                       out: np.ndarray) -> np.ndarray:
    """The symbols of ``draw_symbols(spec, out.shape, rng)``, written into ``out``."""
    idx = rng.integers(0, spec.order, size=out.shape)
    return spec.points().take(idx, out=out, mode="clip")  # "clip" writes unbuffered


def synthesize(basis: SignalingBasis, symbols: np.ndarray) -> np.ndarray:
    """Map frequency/code-domain symbols to time samples (adjoint basis map).

    Works on the last axis, so whole frames (M x N) pass through in one call.
    """
    if symbols.shape[-1] != basis.n:
        raise ConfigError(
            f"symbol length {symbols.shape[-1]} does not match basis size {basis.n}"
        )
    if basis.kind is BasisKind.OFDM_DFT:
        return _unitary_idft(symbols)
    if basis.kind is BasisKind.SC_IDENTITY:
        return np.array(symbols, copy=True)
    return np.matmul(symbols, _hadamard_unitary(basis.n), dtype=np.result_type(symbols, 1.0))


def analyze(basis: SignalingBasis, samples: np.ndarray) -> np.ndarray:
    """Inverse of :func:`synthesize` (the forward unitary map)."""
    if samples.shape[-1] != basis.n:
        raise ConfigError(
            f"sample length {samples.shape[-1]} does not match basis size {basis.n}"
        )
    if basis.kind is BasisKind.OFDM_DFT:
        return _unitary_dft(samples)
    if basis.kind is BasisKind.SC_IDENTITY:
        return np.array(samples, copy=True)
    return np.matmul(samples, _hadamard_unitary(basis.n), dtype=np.result_type(samples, 1.0))


def _unitary_idft(symbols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary inverse DFT over the last axis, into ``out`` when it is given."""
    x = np.fft.ifft(symbols, axis=-1, out=out)
    x *= np.sqrt(symbols.shape[-1])
    return x


def _unitary_dft(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary forward DFT over the last axis, into ``out`` when it is given."""
    s = np.fft.fft(samples, axis=-1, out=out)
    s *= 1.0 / np.sqrt(samples.shape[-1])  # numpy's complex / real multiplies by the reciprocal
    return s


def add_cp(signal: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last ``cp_len`` samples (cyclic prefix). Last-axis op."""
    n = signal.shape[-1]
    if cp_len < 0 or cp_len > n:
        raise ConfigError(f"CP length must be in [0, {n}], got {cp_len}")
    return _add_cp(signal, cp_len)


def _add_cp(signal: np.ndarray, cp_len: int, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`add_cp` without its check, into ``out`` when it is given."""
    return np.concatenate((signal[..., signal.shape[-1] - cp_len:], signal), axis=-1, out=out)


@dataclass(frozen=True)
class FrameConfig:
    """Frame geometry: ``n`` samples per symbol, ``m`` symbols, CP of ``cp_len``."""

    n: int
    m: int
    cp_len: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError(f"frame needs n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if not 0 <= self.cp_len <= self.n:
            raise ConfigError(f"CP length must be in [0, {self.n}], got {self.cp_len}")

    @property
    def block_len(self) -> int:
        """Serialized samples per symbol once the CP is attached."""
        return self.n + self.cp_len

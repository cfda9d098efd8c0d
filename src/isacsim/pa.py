"""Soft-envelope-limiter amplifier, back-off control, and linearization stats.

The amplifier applies a linear gain up to a saturation amplitude and hard
limits the envelope above it, preserving phase.  Operating point is set by
the input back-off (IBO): the back-off coefficient ``alpha`` scales a
unit-power input so its mean power sits ``IBO`` below the 1 dB compression
reference power.

The clipped output decomposes into a scaled replica of the input plus a
statistically uncorrelated distortion term.  ``estimate_bussgang`` measures
that decomposition by Monte Carlo on the actual (constellation, basis) pair;
``kappa_gaussian`` is the Gaussian-input closed form kept as an independent
oracle.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .errors import ConfigError
from .seeding import DEFAULT_CHUNK, chunk_counts, spawn_rngs
from .signaling import ConstellationSpec, SignalingBasis, draw_symbols, synthesize


def backoff_coefficient(p1db: float, ibo: float, sigma2: float) -> float:
    """Back-off coefficient ``alpha = sqrt(p1db / (ibo * sigma2))``.

    ``ibo`` is a linear power ratio (dB conversion happens at the CLI
    boundary).  A coefficient above 1 would push the mean input power past
    the compression reference, which is rejected as a configuration error.
    """
    if p1db <= 0 or ibo <= 0 or sigma2 <= 0:
        raise ConfigError(
            f"backoff inputs must be positive (p1db={p1db}, ibo={ibo}, sigma2={sigma2})"
        )
    alpha = math.sqrt(p1db / (ibo * sigma2))
    if alpha > 1.0 + 1e-12:
        raise ConfigError(
            f"back-off coefficient {alpha:.4f} > 1: mean input power would exceed "
            "the compression reference; raise the IBO or lower p1db"
        )
    return min(alpha, 1.0)


def limiter_compression_power(v_sat: float) -> float:
    """Input power at which the limiter's instantaneous output is 1 dB below
    the linear ramp.

    An envelope at amplitude ``a > v_sat`` leaves the limiter at ``v_sat``;
    the output is 1 dB under the linear response when ``20*log10(a/v_sat) = 1``,
    i.e. at input power ``v_sat**2 * 10**0.1``.  Using this as ``p1db`` makes
    the normalized clipping threshold come out as ``Y**2 = IBO / 10**0.1``
    (so an IBO of 1 dB puts ``Y`` exactly at 1).
    """
    if v_sat <= 0:
        raise ConfigError(f"saturation amplitude must be positive, got {v_sat}")
    return v_sat * v_sat * 10.0 ** 0.1


@dataclass(frozen=True)
class PaConfig:
    """Amplifier operating point.

    ``p1db`` defaults to ``v_sat**2`` (a pure-limiter convention for the
    compression reference); pass :func:`limiter_compression_power` to use the
    limiter's true 1 dB compression input power instead.  ``ibo`` is linear.
    """

    v_sat: float
    ibo: float
    g: complex = 1.0
    p1db: float | None = None
    sigma2: float = 1.0
    alpha: float = field(init=False)

    def __post_init__(self):
        if self.v_sat <= 0:
            raise ConfigError(f"saturation amplitude must be positive, got {self.v_sat}")
        if self.ibo <= 0:
            raise ConfigError(f"IBO must be a positive linear ratio, got {self.ibo}")
        if abs(self.g) <= 0:
            raise ConfigError("gain magnitude must be positive")
        p1db = self.v_sat**2 if self.p1db is None else self.p1db
        object.__setattr__(self, "p1db", p1db)
        object.__setattr__(
            self, "alpha", backoff_coefficient(p1db, self.ibo, self.sigma2)
        )

    @property
    def y(self) -> float:
        """Normalized clipping threshold: saturation amplitude over the RMS
        amplitude seen at the clipper (gain included)."""
        return self.v_sat / (abs(self.g) * self.alpha * math.sqrt(self.sigma2))


def sel_amplify(signal: np.ndarray, cfg: PaConfig) -> np.ndarray:
    """Amplify a unit-power signal: scale by ``g * alpha``, hard-limit the
    envelope at ``v_sat`` with the phase of the gain-scaled input preserved."""
    amplified = cfg.g * cfg.alpha * signal
    mag = np.abs(amplified)
    clipped = (cfg.v_sat * cfg.g / abs(cfg.g)) * np.exp(1j * np.angle(signal))
    return np.where(mag <= cfg.v_sat, amplified, clipped)


def kappa_gaussian(y: float) -> float:
    """Gaussian-input linear scale of the limiter, normalized by ``g * alpha``:
    ``1 - exp(-y^2) + (sqrt(pi)/2) * y * erfc(y)``."""
    return 1.0 - math.exp(-y * y) + 0.5 * math.sqrt(math.pi) * y * erfc(y)


def output_power_gaussian(y: float) -> float:
    """Gaussian-input mean output power of the limiter, normalized by the
    mean input power ``(g * alpha)^2 * sigma^2``: equals ``1 - exp(-y^2)``."""
    return 1.0 - math.exp(-y * y)


@dataclass(frozen=True)
class BussgangStats:
    """Measured linearization statistics of the amplified signal.

    ``kappa`` relates the unit-power input to the output (so it tends to
    ``g * alpha`` for a linear amplifier); ``sigma_d2`` is the mean distortion
    power and ``d4`` its fourth moment, both estimated alongside ``kappa``.
    """

    kappa: complex
    sigma_d2: float
    sdr: float
    y: float
    d4: float = 0.0


def sdr(stats: BussgangStats, cfg: PaConfig) -> float:
    """Signal-to-distortion ratio ``|g|^2 * alpha^2 * sigma^2 / sigma_d^2``.

    Returns ``inf`` for a distortion-free (linear) operating point.
    """
    if stats.sigma_d2 < 0:
        raise ConfigError("distortion power cannot be negative")
    num = abs(cfg.g) ** 2 * cfg.alpha**2 * cfg.sigma2
    if stats.sigma_d2 == 0.0:
        return math.inf
    return num / stats.sigma_d2


def snr_eff(snr0: float, sdr_value: float) -> float:
    """Distortion-capped effective SNR: ``snr0 / (1 + snr0 / sdr)``.

    Never exceeds either argument; equals ``snr0`` for an undistorted chain.
    """
    if snr0 < 0:
        raise ConfigError(f"snr0 must be non-negative, got {snr0}")
    if not sdr_value > 0:
        raise ConfigError(f"sdr must be positive (or inf), got {sdr_value}")
    if math.isinf(sdr_value):
        return snr0
    return snr0 / (1.0 + snr0 / sdr_value)


def _draw_amplified(cfg, basis, constellation, trials, rng):
    sym = draw_symbols(constellation, (trials, basis.n), rng)
    x = synthesize(basis, sym)
    return x, sel_amplify(x, cfg)


def estimate_bussgang(
    cfg: PaConfig,
    basis: SignalingBasis,
    constellation: ConstellationSpec,
    trials: int,
    rng: np.random.Generator,
) -> BussgangStats:
    """Monte-Carlo estimate of the linearization statistics.

    Two passes over the same derived sub-streams: the first accumulates the
    cross- and self-moments that fix ``kappa``, the second regenerates each
    chunk and measures the distortion residual against that single ``kappa``.
    Chunked accumulation in fixed order keeps the result independent of
    scheduling.
    """
    if trials < 1:
        raise ConfigError("at least one trial required")
    sizes = chunk_counts(trials, DEFAULT_CHUNK)
    streams = spawn_rngs(rng, len(sizes))

    cross = 0.0 + 0.0j
    power = 0.0
    count = 0
    for sz, r in zip(sizes, streams):
        x, s = _draw_amplified(cfg, basis, constellation, sz, _clone_rng(r))
        cross += complex(np.sum(np.conj(x) * s))
        power += float(np.sum(np.abs(x) ** 2))
        count += x.size
    kappa = cross / power

    d2_sum = 0.0
    d4_sum = 0.0
    for sz, r in zip(sizes, streams):
        x, s = _draw_amplified(cfg, basis, constellation, sz, _clone_rng(r))
        p = np.abs(s - kappa * x) ** 2
        d2_sum += float(np.sum(p))
        d4_sum += float(np.sum(p * p))
    sigma_d2 = d2_sum / count
    d4 = d4_sum / count

    stats = BussgangStats(kappa=kappa, sigma_d2=sigma_d2, sdr=0.0, y=cfg.y, d4=d4)
    return BussgangStats(
        kappa=kappa, sigma_d2=sigma_d2, sdr=sdr(stats, cfg), y=cfg.y, d4=d4
    )


def _clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Fresh generator with the same state, so a stream can be replayed."""
    return copy.deepcopy(rng)

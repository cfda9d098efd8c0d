"""Soft-envelope-limiter amplifier, back-off control, and linearization stats.

The amplifier applies a linear gain up to a saturation amplitude and hard
limits the envelope above it, preserving phase.  Operating point is set by
the input back-off (IBO): the back-off coefficient ``alpha`` scales a
unit-power input so its mean power sits ``IBO`` below the 1 dB compression
reference power.

The clipped output decomposes into a scaled replica of the input plus a
statistically uncorrelated distortion term.  ``estimate_bussgang`` measures
that decomposition by Monte Carlo on the actual (constellation, basis) pair,
drawing each frame once and merging per-block moments at the pooled scale;
``kappa_gaussian`` is the Gaussian-input closed form kept as an independent
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .seeding import chunk_rngs
from .signaling import (
    ConstellationSpec,
    SignalingBasis,
    _row_blocks,
    draw_symbols,
    synthesize,
)


def backoff_coefficient(p1db: float, ibo: float) -> float:
    """Back-off coefficient ``alpha = sqrt(p1db / ibo)`` for a unit-power input.

    ``ibo`` is a linear power ratio (dB conversion happens at the CLI
    boundary).  A coefficient above 1 would push the mean input power past
    the compression reference, which is rejected as a configuration error.
    """
    if not (0 < p1db < math.inf and 0 < ibo < math.inf):
        raise ConfigError(f"backoff inputs must be positive (p1db={p1db}, ibo={ibo})")
    alpha = math.sqrt(p1db / ibo)
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
    if not 0 < v_sat < math.inf:
        raise ConfigError(f"saturation amplitude must be positive and finite, got {v_sat}")
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
    p1db: float | None = None
    alpha: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.v_sat < math.inf:
            raise ConfigError(f"saturation amplitude must be positive and finite, got {self.v_sat}")
        if not 0 < self.ibo < math.inf:
            raise ConfigError(f"IBO must be a positive, finite linear ratio, got {self.ibo}")
        p1db = self.v_sat**2 if self.p1db is None else self.p1db
        object.__setattr__(self, "p1db", p1db)
        object.__setattr__(self, "alpha", backoff_coefficient(p1db, self.ibo))

    @classmethod
    def at_backoff_db(cls, ibo_db: float, compression: bool = True) -> PaConfig:
        """Unit-saturation amplifier at ``ibo_db`` of input back-off from the
        limiter's 1 dB compression point (else from the saturation power)."""
        return cls(v_sat=1.0, ibo=10.0 ** (ibo_db / 10.0),
                   p1db=limiter_compression_power(1.0) if compression else None)

    @property
    def y(self) -> float:
        """Normalized clipping threshold: saturation amplitude over the RMS
        amplitude ``alpha`` seen at the clipper."""
        return self.v_sat / self.alpha


def sel_amplify(signal: np.ndarray, cfg: PaConfig) -> np.ndarray:
    """Amplify a unit-power signal: scale by ``alpha``, hard-limit the
    envelope at ``v_sat`` with the phase of the input preserved.

    A clipped sample ``a = alpha * x`` becomes ``a * (v_sat / |a|)``.
    Rounding can leave its computed envelope an ulp or two above ``v_sat``,
    so such samples are then shrunk until it is not: ``|out| <= v_sat``
    holds exactly, in the output's own precision, and at ``alpha = 1``
    amplifying an output again returns it unchanged.
    """
    signal = np.asarray(signal)
    amplified = cfg.alpha * signal
    out = np.asarray(amplified, dtype=np.result_type(amplified, 1j), order="C")
    return _limit(out, cfg, np.abs(amplified))


def _limit(out: np.ndarray, cfg: PaConfig, magnitude: np.ndarray) -> np.ndarray:
    """The limiter of :func:`sel_amplify`, in place on ``out``, the complex
    C-contiguous scaled signal, whose envelope ``magnitude`` holds."""
    clipped = np.flatnonzero(magnitude > cfg.v_sat)
    magnitude = magnitude.reshape(-1)[clipped]
    flat = out.reshape(-1)
    a = flat[clipped]
    overflowed = np.isinf(magnitude)  # |a| is past the dtype's range: no scale
    a *= np.divide(cfg.v_sat, magnitude, out=magnitude)
    if overflowed.any():
        a[overflowed] = cfg.v_sat * np.exp(1j * np.angle(flat[clipped[overflowed]]))
    shrink = np.nextafter(a.real.dtype.type(1), 0)
    high = np.flatnonzero(np.abs(a) > cfg.v_sat)
    while high.size:
        a[high] *= shrink
        # one ulp moves a normal number; a subnormal one needs larger steps
        shrink *= shrink
        high = high[np.abs(a[high]) > cfg.v_sat]
    flat[clipped] = a
    return out


def kappa_gaussian(y: float) -> float:
    """Gaussian-input linear scale of the limiter, normalized by ``alpha``:
    ``1 - exp(-y^2) + (sqrt(pi)/2) * y * erfc(y)``."""
    return 1.0 - math.exp(-y * y) + 0.5 * math.sqrt(math.pi) * y * math.erfc(y)


def output_power_gaussian(y: float) -> float:
    """Gaussian-input mean output power of the limiter, normalized by the
    mean input power ``alpha^2``: equals ``1 - exp(-y^2)``."""
    return 1.0 - math.exp(-y * y)


@dataclass(frozen=True)
class BussgangStats:
    """Measured linearization statistics of the amplified signal.

    ``kappa`` relates the unit-power input to the output (so it tends to
    ``alpha`` for a linear amplifier); ``sigma_d2`` is the mean distortion
    power and ``d4`` its fourth moment, both estimated alongside ``kappa``.
    """

    kappa: complex
    sigma_d2: float
    sdr: float
    d4: float = 0.0


def sdr(sigma_d2: float, cfg: PaConfig) -> float:
    """Signal-to-distortion ratio ``alpha^2 / sigma_d^2`` of a
    unit-power input whose distortion power is ``sigma_d2``.

    ``BussgangStats.sdr`` holds the same ratio.  The distortion-limited Pd
    ceiling tracks ``|kappa|^2 / sigma_d^2`` instead: 12.08 dB against this
    ratio's 14.33 dB in the Gaussian closed forms at IBO 1 dB (compression-
    referenced), where ``fig-pd-ceilings`` projected 11.97-12.15 dB.
    :func:`snr_eff` answers differently depending on which of the two it gets.

    Returns ``inf`` for a distortion-free (linear) operating point.
    """
    if sigma_d2 < 0:
        raise ConfigError("distortion power cannot be negative")
    if sigma_d2 == 0.0:
        return math.inf
    return cfg.alpha**2 / sigma_d2


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


def _block_moments(x, s, work):
    """Sums of one block of input ``x`` and output ``s`` about the block's own
    linear scale ``kb = C / P``, where ``P = sum |x|^2`` and
    ``C = sum conj(x) s``.

    With ``q = |x|^2``, ``d = s - kb x``, ``a = |d|^2`` and ``u = conj(x) d``
    the tuple is ``(P, C, kb, sum a, sum a^2, sum a q, sum q^2, sum u^2,
    sum a u, sum q u)``; the last five are what :func:`_shifted_d_sums` needs
    to move the two ``d`` sums to another scale.  Both arguments are flat and
    both are overwritten.  ``work`` is a float buffer of at least
    ``4 * x.size`` values.
    """
    size = x.size
    u = work[:2 * size].view(complex)
    q, a = work[2 * size:4 * size].reshape(2, size)
    c = complex(np.multiply(np.conjugate(x, out=u), s, out=u).sum())
    p = float(np.square(np.abs(x, out=q), out=q).sum())
    kb = c / p
    d = np.subtract(s, np.multiply(x, kb, out=u), out=s)
    np.multiply(np.conjugate(x, out=u), d, out=u)
    products = x.view(float)[:size]  # x is spent: its buffer takes the products
    np.add(np.square(d.real, out=a), np.square(d.imag, out=products), out=a)

    def real_sum(w, v):
        return float(np.multiply(w, v, out=products).sum())

    def complex_sum(w, v):
        return complex(np.multiply(w, v, out=x).sum())

    mixed = (complex_sum(u, u), complex_sum(a, u), complex_sum(q, u))
    return (p, c, kb, float(a.sum()), real_sum(a, a), real_sum(a, q), real_sum(q, q), *mixed)


def _shifted_d_sums(moments, kappa):
    """``sum |d|^2`` and ``sum |d|^4`` of one block for ``d = s - kappa x``.

    With ``delta = kappa - kb`` the residual is ``d_b - delta x``, so
    ``|d|^2 = a - 2 Re(conj(delta) u) + |delta|^2 q``.  ``sum u = C - kb P``
    vanishes, which leaves the first sum without a cross term; the square
    gives the second from the block's mixed sums.
    """
    p, _, kb, a1, a2, aq, qq, uu, au, qu = moments
    delta = kappa - kb
    dc = delta.conjugate()
    m = abs(delta) ** 2
    d2 = a1 + m * p
    d4 = (a2 + m * m * qq + 4.0 * m * aq + 2.0 * (dc * dc * uu).real
          - 4.0 * (dc * au).real - 4.0 * m * (dc * qu).real)
    return d2, d4


def estimate_bussgang(
    cfg: PaConfig,
    basis: SignalingBasis,
    constellation: ConstellationSpec,
    trials: int,
    rng: np.random.Generator,
) -> BussgangStats:
    """Monte-Carlo estimate of the linearization statistics, in one pass.

    Trials are split into fixed-size chunks, each with its own derived
    sub-stream.  A chunk's frames are drawn, synthesized and amplified in row
    blocks of about ``_MC_BLOCK_CELLS`` samples that continue the chunk's
    stream, and each block is reduced to a tuple of moments about its own
    linear scale (:func:`_block_moments`).  ``kappa`` is the ratio of the
    summed cross- and self-moments; the tuples are then shifted to it and
    summed in block order (:func:`_shifted_d_sums`), which gives the
    distortion power and fourth moment of ``s - kappa x`` without drawing
    any frame twice.  The fixed order keeps the result independent of
    scheduling, and no array grows with ``trials``.
    """
    if trials < 1:
        raise ConfigError("at least one trial required")
    chunks = chunk_rngs(rng, trials)
    largest = _row_blocks(chunks[0][0], basis.n)[0]
    # One allocation, larger than any block temporary, for the work arrays of
    # every block: freeing it raises glibc's dynamic mmap and trim thresholds
    # above a block's heap span, so later blocks and calls reuse heap pages
    # instead of faulting fresh ones in.
    work = np.empty(4 * (largest.stop - largest.start) * basis.n)
    blocks = []
    cross = 0.0 + 0.0j
    power = 0.0
    for sz, r in chunks:
        # numpy's pairwise sum of a chunk adds its two halves last, so a chunk
        # of one block or of two equal ones keeps the chunk-wide bits of kappa
        chunk_cross = 0.0 + 0.0j
        chunk_power = 0.0
        for rows in _row_blocks(sz, basis.n):
            shape = (rows.stop - rows.start, basis.n)
            x = synthesize(basis, draw_symbols(constellation, shape, r)).ravel()
            moments = _block_moments(x, sel_amplify(x, cfg), work)
            chunk_cross += moments[1]
            chunk_power += moments[0]
            blocks.append(moments)
        cross += chunk_cross
        power += chunk_power
    kappa = cross / power

    d2_sum = 0.0
    d4_sum = 0.0
    for moments in blocks:
        d2, d4 = _shifted_d_sums(moments, kappa)
        d2_sum += d2
        d4_sum += d4
    count = trials * basis.n
    sigma_d2 = d2_sum / count
    d4 = d4_sum / count

    return BussgangStats(kappa=kappa, sigma_d2=sigma_d2, sdr=sdr(sigma_d2, cfg), d4=d4)

"""Soft-envelope-limiter amplifier, back-off control, and linearization stats.

The amplifier applies a linear gain up to a saturation amplitude and hard
limits the envelope above it, preserving phase.  Operating point is set by
the input back-off (IBO): the back-off coefficient ``alpha`` scales a
unit-power input so its mean power sits ``IBO`` below the 1 dB compression
reference power.

The clipped output decomposes into a scaled replica of the input plus an
uncorrelated distortion term, ``s = kappa x + d``.  The limiter keeps the
phase, so ``s = g x`` with the real radial gain ``g = min(alpha, v_sat / |x|)``,
and ``kappa`` is real; this radial form holds only for a phase-preserving
limiter.  ``estimate_bussgang`` measures the decomposition by Monte Carlo on
the actual (constellation, basis) pair from real sums of ``|x|^2`` and ``g``;
``kappa_gaussian`` is the Gaussian-input closed form kept as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .seeding import chunk_rngs, row_blocks
from .signaling import ConstellationSpec, SignalingBasis, draw_symbols, synthesize


def _power_ratio(db: float, name: str) -> float:
    """``10 ** (db / 10)``, the power ratio of the dB setting ``name``; a
    ``ConfigError`` when it underflows to 0 or does not fit a float."""
    try:
        if 0.0 < (ratio := 10.0 ** (float(db) / 10.0)) < math.inf:
            return ratio
    except OverflowError:
        pass
    raise ConfigError(f"{name} of {float(db)!r} dB has no power ratio in the float range")


def backoff_coefficient(p1db: float, ibo: float) -> float:
    """Back-off coefficient ``alpha = sqrt(p1db / ibo)`` for a unit-power input.

    ``ibo`` is a linear power ratio (:meth:`PaConfig.at_backoff_db` takes
    dB).  A coefficient above 1 would push the mean input power past
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
        return cls(v_sat=1.0, ibo=_power_ratio(ibo_db, "ibo_db"),
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
    ``alpha`` for a linear amplifier); it is real, held as a ``complex`` with
    a zero imaginary part.  ``sigma_d2`` is the mean distortion
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


def _block_moments(x, cfg, work):
    """Real sums of one block of input ``x`` about its own linear scale ``kb``.

    The phase-preserving limiter, and only it, gives ``s = g x`` with the real
    radial gain ``g = min(alpha, v_sat / |x|)``, ``alpha`` at ``x = 0``.  With
    ``q = |x|^2``, ``P = sum q``, ``C = sum conj(x) s = sum g q`` and
    ``kb = C / P``, the residual ``d = s - kb x`` is ``e x`` for ``e = g - kb``;
    ``u = e q`` and ``a = e u = |d|^2`` are real.  The tuple is ``(P, C, kb,
    sum a, sum a^2, sum a q, sum q^2, sum a u, sum q u)``; the last five are
    what :func:`_shifted_d_sums` needs to move the two ``d`` sums to another
    scale.  ``x`` is flat and overwritten; ``work`` has ``3 * x.size`` floats or more.
    """
    size = x.size
    q, g, a = work[:3 * size].reshape(3, size)
    np.add(np.square(x.real, out=q), np.square(x.imag, out=g), out=q)
    with np.errstate(divide="ignore"):  # v_sat / 0 is inf, and the gain alpha
        np.divide(cfg.v_sat, np.sqrt(q, out=g), out=g)
    np.minimum(g, cfg.alpha, out=g)
    u, products = x.view(float).reshape(2, size)  # x is spent: its buffer takes u and the products
    c = float(np.multiply(g, q, out=a).sum())
    p = float(q.sum())
    kb = c / p
    e = np.subtract(g, kb, out=g)
    a = np.multiply(e, np.multiply(e, q, out=u), out=a)
    mixed = [float(np.multiply(w, v, out=products).sum())
             for w, v in ((a, a), (a, q), (q, q), (a, u), (q, u))]
    return (p, c, kb, float(a.sum()), *mixed)


def _shifted_d_sums(moments, kappa):
    """``sum |d|^2`` and ``sum |d|^4`` of one block for ``d = s - kappa x``.

    With the real ``delta = kappa - kb`` the residual is ``(e - delta) x``:
    ``|d|^2 = a - 2 delta u + delta^2 q``, whose ``sum u = C - kb P`` vanishes,
    and ``|d|^4 = (e - delta)^4 q^2``, whose binomial terms are the mixed sums.
    """
    p, _, kb, a1, a2, aq, qq, au, qu = moments
    delta = kappa - kb
    d2 = a1 + delta * delta * p
    d4 = a2 - 4.0 * delta * au + 6.0 * delta**2 * aq - 4.0 * delta**3 * qu + delta**4 * qq
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
    sub-stream.  A chunk's frames are drawn and synthesized in the row blocks
    of :func:`seeding.row_blocks`, whose draws continue the chunk's stream.
    :func:`sel_amplify` keeps the phase, so its output is ``g x`` with the
    real radial gain ``g = min(alpha, v_sat / |x|)``; valid only for that
    limiter, this reduces each block to real sums of ``|x|^2`` and ``g``
    about its own linear scale (:func:`_block_moments`).  ``kappa``, real, is
    the ratio of the summed cross- and self-moments; the tuples are then
    shifted to it and summed in block order (:func:`_shifted_d_sums`), which
    gives the distortion power and fourth moment of ``s - kappa x`` without
    drawing any frame twice.  The fixed order keeps the result independent
    of scheduling, and no array grows with ``trials``.
    """
    if trials < 1:
        raise ConfigError("at least one trial required")
    chunks = chunk_rngs(rng, trials)
    # One work allocation for every block.  With glibc 2.36 at n = 1024 and
    # 150 trials a repeated call faults in no page, nor with a work array per
    # block, and 49 with the mmap threshold pinned.
    work = np.empty(3 * row_blocks(chunks[0][0], basis.n)[0].stop * basis.n)
    blocks = []
    for sz, r in chunks:
        for rows in row_blocks(sz, basis.n):
            shape = (rows.stop - rows.start, basis.n)
            x = synthesize(basis, draw_symbols(constellation, shape, r)).ravel()
            blocks.append(_block_moments(x, cfg, work))
    power = cross = 0.0
    for p, c, *_ in blocks:  # in draw order: sum() compensates floats from Python 3.12
        power += p
        cross += c
    kappa = cross / power

    d2_sum = d4_sum = 0.0
    for moments in blocks:
        d2, d4 = _shifted_d_sums(moments, kappa)
        d2_sum += d2
        d4_sum += d4
    count = trials * basis.n
    sigma_d2, d4 = d2_sum / count, d4_sum / count

    return BussgangStats(kappa=complex(kappa), sigma_d2=sigma_d2, sdr=sdr(sigma_d2, cfg), d4=d4)

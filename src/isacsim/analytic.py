"""Closed-form and semi-analytic sidelobe predictors for the clipped signal.

Two complementary models are implemented.

* A linearization split ``s = kappa * x + d`` with ``d`` uncorrelated from
  ``x``: exact per-realization recombination of the squared AF from self- and
  cross-AF terms (:func:`bussgang_af_decompose`), plus the expected
  zero-Doppler sidelobe/mainlobe levels that follow when time samples are
  modeled as i.i.d. Gaussian (:func:`expected_zero_doppler_bussgang`).

* A clipping-event conditioning of the limiter output: each delayed product
  ``s(p) s*(p-l)`` is split by whether neither, one, or both samples clip,
  each branch weighted by its joint probability under a bivariate Rayleigh
  envelope model (:func:`joint_below_prob`, :func:`sel_zero_doppler_cut`,
  :func:`sel_eisl`, :func:`sel_zero_delay_cut`).

The joint probabilities depend on the lag through the correlation ``rho``
of the squared envelopes ``|x(p)|^2`` and ``|x(p - l)|^2``
(:func:`lag_correlation`).  For i.i.d. unit-power symbols with ``E X^2 = 0``
over a unitary basis whose entries all have modulus ``1/sqrt(n)`` (OFDM,
Hadamard), every lag ``l != 0`` has covariance ``(m4 - 2)/n`` and variance
``1 + (m4 - 2)/n``, with ``m4 = E|X|^4``, so

    rho = (m4 - 2) / (n + m4 - 2).

Single-carrier samples are the symbols themselves, so ``rho = 0``.  Every
PSK and square QAM has ``m4 <= 7/5``, so ``rho <= 0`` always, and clipped
to the model's ``[0, 1]`` the envelopes of every non-zero lag are those of
independent samples (:func:`_clip_weights`).  2-PSK is the one non-circular
case (``E X^2 != 0``): its covariance also depends on ``p + q``, and
averaged over ``p`` it is ``-2/n`` at odd lags and 0 at even lags on OFDM.
It is never positive either, so the weights are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambiguity import (AfMode, _af_blocks, _af_dtype, _doppler_bins, _lags, _n_lags, _xcorr,
                        cross_af)
from .errors import ConfigError, NumericError
from .pa import PaConfig
from .seeding import chunk_rngs
from .signaling import BasisKind, ConstellationSpec, SignalingBasis, draw_symbols, synthesize

_THETA_POINTS = 4096


@dataclass(frozen=True)
class ClipProbabilities:
    """Joint clipping probabilities of a sample pair at one lag.

    ``p_mixed`` is the probability of one specific one-clipped arrangement
    (sample clipped, delayed sample not, or vice versa; the two are equal by
    symmetry), so closure reads ``p_below_both + 2 p_mixed + p_above_both = 1``.
    """

    p_below_both: float
    p_mixed: float
    p_above_both: float

    def closure_defect(self) -> float:
        return abs(self.p_below_both + 2 * self.p_mixed + self.p_above_both - 1.0)


def joint_below_prob(y: float, rho: float) -> float:
    """Probability that a sample and its lag-``rho``-correlated partner both
    stay below the clipping threshold ``y`` (envelopes jointly Rayleigh).

    A uniform-grid trapezoid, over theta, of the smooth periodic integrand
    ``exp(-y^2 [1 + (1-rho)/(1 + 2 sqrt(rho) sin t + rho)])``; its mean on
    the ``_THETA_POINTS`` grid (the even points) must match the doubled grid.
    """
    if not y > 0:
        raise ConfigError(f"normalized threshold must be positive, got {y}")
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"lag correlation must lie in [0, 1], got {rho}")
    if rho >= 1.0 - 1e-12:
        return 1.0 - math.exp(-y * y)
    sin = np.sin(np.linspace(-np.pi, np.pi, 2 * _THETA_POINTS, endpoint=False))
    vals = np.exp(-(y * y) * (1.0 + (1.0 - rho) / (1.0 + 2.0 * math.sqrt(rho) * sin + rho)))
    fine = float(vals.mean())
    defect = abs(fine - float(vals[::2].mean()))
    if defect > 1e-9:
        raise NumericError(
            f"envelope-pair integral did not converge: grid-doubling "
            f"changed the result by {defect:.3e} (y={y})"
        )
    return 1.0 - 2.0 * math.exp(-y * y) + fine


def clip_probabilities(y: float, rho: float) -> ClipProbabilities:
    """All four pairwise clipping probabilities at one lag."""
    p_bb = joint_below_prob(y, rho)
    p_below = 1.0 - math.exp(-y * y)
    return ClipProbabilities(p_bb, p_below - p_bb, 1.0 - 2.0 * p_below + p_bb)


def lag_correlation(constellation: ConstellationSpec, basis: SignalingBasis) -> float:
    """Correlation of the squared envelopes ``|x(p)|^2`` and ``|x(p - l)|^2``
    at every lag ``l != 0``, in closed form: ``(m4 - 2) / (n + m4 - 2)``
    with ``m4 = E|X|^4`` of the unit-power constellation, and 0 on the
    single-carrier basis (and without a non-zero lag, ``n = 1``).  Never
    positive for a PSK or square QAM (see the module docstring).
    """
    if basis.kind is BasisKind.SC_IDENTITY or basis.n < 2:
        return 0.0
    m4 = float(np.mean(np.abs(constellation.points()) ** 4))
    return (m4 - 2.0) / (basis.n + m4 - 2.0)


@dataclass
class BussgangAfTerms:
    """Self/cross AF values of one realization and their recombination.

    ``recombined`` is ``||kappa|^2 A_x + kappa A_xd + kappa* A_dx + A_d|^2``,
    the squared AF of ``kappa x + d`` up to rounding.  The four terms are
    computed by :func:`~isacsim.ambiguity.cross_af` when first read.
    """

    x: np.ndarray
    d: np.ndarray
    kappa: complex
    k_grid: int | None
    mode: AfMode
    recombined: np.ndarray

    @cached_property
    def a_x(self) -> np.ndarray:
        return cross_af(self.x, None, self.k_grid, self.mode)

    @cached_property
    def a_xd(self) -> np.ndarray:
        return cross_af(self.x, self.d, self.k_grid, self.mode)

    @cached_property
    def a_dx(self) -> np.ndarray:
        return cross_af(self.d, self.x, self.k_grid, self.mode)

    @cached_property
    def a_d(self) -> np.ndarray:
        return cross_af(self.d, None, self.k_grid, self.mode)


def bussgang_af_decompose(
    x: np.ndarray,
    d: np.ndarray,
    kappa: complex,
    k_grid: int | None = None,
    mode: AfMode = AfMode.PERIODIC,
) -> BussgangAfTerms:
    """Four-term AF split of ``s = kappa x + d`` on the full (lag, Doppler) grid.

    ``recombined`` is summed and squared one block of lag rows at a time,
    from the four terms' blocks; no term is held whole until it is read."""
    if x.shape != d.shape:
        raise ConfigError(f"shape mismatch {x.shape} vs {d.shape}")
    n = x.shape[-1]
    k = _doppler_bins(n, k_grid)
    k2 = abs(kappa) ** 2
    real = np.finfo(_af_dtype(x, d, kappa)).dtype
    recombined = np.empty(x.shape[:-1] + (_n_lags(n, mode), k), real)
    xx, xd, dx, dd = (_af_blocks(u, v, k, mode) for u, v in ((x, x), (x, d), (d, x), (d, d)))
    # the terms' blocks are drawn in step, each held only beside the running sum
    for rows, a_x in xx:
        a_s = k2 * a_x
        a_s += kappa * next(xd)[1]
        a_s += np.conj(kappa) * next(dx)[1]
        a_s += next(dd)[1]
        mag = recombined[..., rows, :]
        np.square(np.abs(a_s, out=mag), out=mag)
    return BussgangAfTerms(x=x, d=d, kappa=kappa, k_grid=k_grid, mode=mode,
                           recombined=recombined)


@dataclass(frozen=True)
class BussgangCutPrediction:
    """I.i.d.-Gaussian-model expectations for the periodic zero-Doppler cut."""

    per_lag: float
    eisl: float
    mainlobe: float


def expected_zero_doppler_bussgang(
    kappa: complex, sigma_d2: float, n: int, d4: float = 0.0
) -> BussgangCutPrediction:
    """Expected sidelobe and mainlobe levels of a unit-power input under the
    linearization model.

    Per sidelobe lag: ``|kappa|^4 + sigma_d^4``; integrated over the
    ``2N - 2`` signed sidelobe lags; mainlobe
    ``2 |kappa|^4 + E|d|^4 + 2 |kappa|^2 N sigma_d^2``.
    ``d4`` is the distortion fourth moment, measured alongside the variance
    (no closed form is attempted for it).
    """
    if n < 2:
        raise ConfigError("need at least two samples")
    k2 = abs(kappa) ** 2
    per_lag = k2 * k2 + sigma_d2 * sigma_d2
    eisl = (2 * n - 2) * per_lag
    mainlobe = 2.0 * k2 * k2 + d4 + 2.0 * k2 * n * sigma_d2
    return BussgangCutPrediction(per_lag=per_lag, eisl=eisl, mainlobe=mainlobe)


def _phase_signal(u: np.ndarray) -> np.ndarray:
    """``exp(1j * angle(u))`` as ``u / |u|``; an exact zero maps to 1."""
    magnitude = np.abs(u)
    return np.divide(u, magnitude, out=np.ones(u.shape, complex), where=magnitude != 0)


def _clip_weights(cfg: PaConfig, n: int, mode: AfMode):
    """Per-lag weights (both-below, one-clipped, both-clipped) on the mode's
    lag axis of ``n`` samples.  Lag 0 pairs a sample with itself, so both are
    below with ``p_b = 1 - e^{-y^2}``; every other lag correlates at most 0
    (:func:`lag_correlation`), so its envelopes are independent: ``p_b^2``."""
    y = cfg.y
    p_below = 1.0 - math.exp(-y * y)
    p_bb = np.where(_lags(n, mode) == 0, p_below, p_below * p_below)
    return p_bb, p_below - p_bb, 1.0 - 2.0 * p_below + p_bb


def _conditioned_cut(x: np.ndarray, cfg: PaConfig, weights, mode: AfMode) -> np.ndarray:
    """Clipping-conditioned zero-Doppler sum of ``x`` (batches allowed).

    The (below-both, one-clipped, both-clipped) ``weights`` scale the
    autocorrelation of ``u = alpha x``, the two one-clipped cross sums of
    ``u`` and its phase ``phi``, and the autocorrelation of ``phi``.  Known
    fault, kept while the scenario references pin it: the second cross sum
    is ``sum phi(p) u(p-l)`` where the model calls for ``sum phi(p)
    u*(p-l)``.  :func:`sel_zero_doppler_cut` holds the other known fault.
    """
    u = cfg.alpha * x
    phi = _phase_signal(u)
    w_bb, w_mixed, w_above = weights
    v = cfg.v_sat
    return (
        w_bb * _xcorr(u, u, mode)
        + w_mixed * v * (_xcorr(u, phi, mode) + _xcorr(phi, np.conj(u), mode))
        + w_above * v * v * _xcorr(phi, phi, mode)
    ) / math.sqrt(x.shape[-1])


def sel_zero_doppler_cut(x: np.ndarray, cfg: PaConfig) -> np.ndarray:
    """Clipping-conditioned model of the aperiodic zero-Doppler cut.

    Evaluates, for the pre-amplifier realization ``x`` of unit-power PSK or
    QAM symbols (batches allowed on leading axes), the probability-weighted
    combination of the undistorted autocorrelation, the pair of
    one-sample-clipped cross sums, and the both-clipped phase sum
    (:func:`_conditioned_cut`).  Lag axis: ``1-n..n-1``.

    Known faults: the one-clipped weight is doubled here, so the weights sum
    to ``p_bb + 4 p_mixed + p_above``, not 1; and the kernel's second cross
    sum lacks a conjugate (see :func:`_conditioned_cut`).
    """
    p_bb, w_mixed, w_above = _clip_weights(cfg, x.shape[-1], AfMode.APERIODIC)
    return _conditioned_cut(x, cfg, (p_bb, 2.0 * w_mixed, w_above), AfMode.APERIODIC)


@dataclass(frozen=True)
class SelEislEstimate:
    """Monte-Carlo expectation of the conditioned-model sidelobe energy."""

    eisl: float
    per_lag: np.ndarray
    lags: np.ndarray
    mode: AfMode


def sel_eisl(
    cfg: PaConfig,
    constellation: ConstellationSpec,
    basis: SignalingBasis,
    trials: int,
    rng: np.random.Generator,
    mode: AfMode = AfMode.APERIODIC,
) -> SelEislEstimate:
    """Expected integrated sidelobe level from the clipping-conditioned terms.

    Per realization and lag the four event terms are summed (each one-clipped
    sum carries the single one-clipped weight here) and ``E|W(l)|^2`` is
    accumulated, which includes every pairwise expectation of the terms.
    Periodic mode evaluates circular lag sums (the cyclic-prefix case) and
    counts signed lag pairs; aperiodic sums all ``2n - 2`` sidelobe lags of
    the basis size ``n``.
    """
    if trials < 1:
        raise ConfigError("at least one trial required")
    n = basis.n
    # the first child once drew the Monte-Carlo lag correlation; spawning
    # both keeps the frames' stream
    _, rng_mc = rng.spawn(2)
    weights = _clip_weights(cfg, n, mode)
    accum = np.zeros(weights[0].shape[0])
    for sz, r in chunk_rngs(rng_mc, trials, max(1, min(64, 2_000_000 // (4 * n)))):
        x = synthesize(basis, draw_symbols(constellation, (sz, n), r))
        accum += np.sum(np.abs(_conditioned_cut(x, cfg, weights, mode)) ** 2, axis=0)
    per_lag = accum / trials

    if mode is AfMode.PERIODIC:
        eisl = 2.0 * float(per_lag[1:].sum())
    else:
        eisl = float(per_lag.sum() - per_lag[n - 1])
    return SelEislEstimate(eisl=eisl, per_lag=per_lag, lags=_lags(n, mode), mode=mode)


def sel_zero_delay_cut(x: np.ndarray, cfg: PaConfig) -> np.ndarray:
    """Clipping-conditioned model of the zero-delay cut.

    ``(1/sqrt(n)) ((1 - e^{-Y^2}) DFT(|u|^2)(k) + v_sat^2 e^{-Y^2} delta(k))``
    for the amplified-but-unclipped signal ``u``; with negligible clipping it
    reduces to the DFT of the squared envelope.  Doppler axis ``0..n-1``;
    batches allowed on leading axes.
    """
    n = x.shape[-1]
    u = cfg.alpha * x
    y = cfg.y
    scale = 1.0 - math.exp(-y * y)
    cut = scale * np.fft.fft(np.abs(u) ** 2, axis=-1)
    cut = cut.astype(complex)
    cut[..., 0] += cfg.v_sat**2 * math.exp(-y * y)
    return cut / math.sqrt(n)

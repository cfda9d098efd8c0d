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

The joint-probability lag dependence enters through the normalized
correlation of squared envelopes, estimated empirically per constellation
and basis (:func:`lag_correlation`) since no closed form is available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ambiguity import AfMode, _lag_rows, _lags, _xcorr, cross_af
from .errors import ConfigError, NumericError
from .pa import PaConfig
from .seeding import chunk_rngs
from .signaling import (
    ConstellationSpec,
    SignalingBasis,
    _row_blocks,
    draw_symbols,
    synthesize,
)

_THETA_POINTS = 4096
# correlations per block of the quadrature grid: about 0.5 MB per temporary
_THETA_BLOCK_ROWS = 8


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


def _below_integral(y: float, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over theta of exp(-y^2 [1 + (1-rho)/(1 + 2 sqrt(rho) sin t + rho)]).

    Uniform-grid trapezoid on a smooth periodic integrand, evaluated for a
    vector of rho values in blocks of rows.  Returns the means on the
    ``_THETA_POINTS`` grid and on the doubled grid; the former are the even
    points of the latter, so each integrand is evaluated once.
    """
    theta = np.linspace(-np.pi, np.pi, 2 * _THETA_POINTS, endpoint=False)
    sin = np.sin(theta)[None, :]
    coarse, fine = np.empty(rho.shape), np.empty(rho.shape)
    for start in range(0, rho.size, _THETA_BLOCK_ROWS):
        rows = slice(start, start + _THETA_BLOCK_ROWS)
        r = rho[rows, None]
        denom = 1.0 + 2.0 * np.sqrt(r) * sin + r
        vals = np.exp(-(y * y) * (1.0 + (1.0 - r) / denom))
        coarse[rows] = vals[:, ::2].mean(axis=1)
        fine[rows] = vals.mean(axis=1)
    return coarse, fine


def _joint_below_vector(y: float, rho: np.ndarray) -> np.ndarray:
    """``P(both samples below the threshold)`` for an array of lag
    correlations, with a grid-doubling accuracy check.

    Each distinct correlation is integrated once: lag grids repeat most of
    their values (``|l|`` and ``min(l, n - l)``)."""
    rho = np.asarray(rho, dtype=float)
    if y <= 0:
        raise ConfigError(f"normalized threshold must be positive, got {y}")
    if np.any((rho < 0) | (rho > 1)):
        raise ConfigError("lag correlation must lie in [0, 1]")
    out = np.empty_like(rho)
    exact = rho >= 1.0 - 1e-12
    out[exact] = 1.0 - math.exp(-y * y)
    rest = ~exact
    if np.any(rest):
        distinct, inverse = np.unique(rho[rest], return_inverse=True)
        coarse, fine = _below_integral(y, distinct)
        defect = float(np.max(np.abs(fine - coarse)))
        if defect > 1e-9:
            raise NumericError(
                f"envelope-pair integral did not converge: grid-doubling "
                f"changed the result by {defect:.3e} (y={y})"
            )
        out[rest] = 1.0 - 2.0 * math.exp(-y * y) + fine[inverse]
    return out


def joint_below_prob(y: float, rho: float) -> float:
    """Probability that a sample and its lag-``rho``-correlated partner both
    stay below the clipping threshold ``y`` (envelopes jointly Rayleigh)."""
    return float(_joint_below_vector(y, np.array([rho]))[0])


def clip_probabilities(y: float, rho: float) -> ClipProbabilities:
    """All four pairwise clipping probabilities at one lag."""
    p_bb = joint_below_prob(y, rho)
    p_below = 1.0 - math.exp(-y * y)
    p_mixed = p_below - p_bb
    p_above_both = 1.0 - 2.0 * p_below + p_bb
    return ClipProbabilities(p_below_both=p_bb, p_mixed=p_mixed, p_above_both=p_above_both)


@dataclass
class LagCorrelation:
    """Normalized covariance of squared envelopes versus lag.

    ``values[l]`` for ``l = 0..n``; ``values[0]`` is 1 by construction and
    ``values[n]`` is 0 (samples a full symbol apart belong to independent
    symbols).  ``degenerate`` marks constant-envelope signals, whose variance
    is zero and for which no correlation is defined.
    """

    values: np.ndarray
    degenerate: bool = False


def _circular_autocov(centered: np.ndarray) -> np.ndarray:
    """Circular autocovariance of each row of a zero-mean power array."""
    spec = np.abs(np.fft.fft(centered, axis=-1)) ** 2
    return np.fft.ifft(spec, axis=-1).real / centered.shape[-1]


def lag_correlation(
    constellation: ConstellationSpec,
    basis: SignalingBasis,
    trials: int,
    rng: np.random.Generator,
) -> LagCorrelation:
    """Estimate the squared-envelope correlation at every lag ``0..basis.n``.

    The circular autocovariance of per-sample power, centred on its mean
    over all trials, is averaged over ``trials`` frames.  Frames are drawn,
    synthesized and transformed in blocks of about ``_MC_BLOCK_CELLS``
    samples; only the per-sample power of all trials is held at once.

    Estimates are clipped to ``[0, 1]``; materially negative ones trigger a
    warning before clipping.  Constant-envelope cases come back degenerate
    with an all-zero body.
    """
    if trials < 1:
        raise ConfigError("at least one trial required")
    n = basis.n
    blocks = _row_blocks(trials, n)
    power = np.empty((trials, n))
    for rows in blocks:
        x = synthesize(basis, draw_symbols(constellation, (rows.stop - rows.start, n), rng))
        np.square(np.abs(x, out=power[rows]), out=power[rows])
    mean = power.mean()
    # sum the rows in order, so the total is the one a single axis-0 sum gives
    total = None
    for rows in blocks:
        acov = _circular_autocov(power[rows] - mean)
        if total is not None:
            acov[0] += total
        total = acov.sum(axis=0)
    acov = total / trials
    var = acov[0]
    values = np.zeros(n + 1)
    values[0] = 1.0
    if var <= 1e-12 * float(mean) ** 2:
        return LagCorrelation(values=values, degenerate=True)
    rho = acov / var
    if np.any(rho[1:] < -0.05):
        warnings.warn(
            "negative squared-envelope correlation estimates clipped to 0",
            stacklevel=2,
        )
    values[1:n] = np.clip(rho[1:n], 0.0, 1.0)
    values[n] = 0.0
    return LagCorrelation(values=values, degenerate=False)


@dataclass
class BussgangAfTerms:
    """Self/cross AF values of one realization and their recombination.

    ``recombined`` is ``||kappa|^2 A_x + kappa A_xd + kappa* A_dx + A_d|^2``,
    the squared AF of ``kappa x + d`` up to rounding.
    """

    a_x: np.ndarray
    a_xd: np.ndarray
    a_dx: np.ndarray
    a_d: np.ndarray
    kappa: complex
    recombined: np.ndarray


def bussgang_af_decompose(
    x: np.ndarray,
    d: np.ndarray,
    kappa: complex,
    k_grid: int | None = None,
    mode: AfMode = AfMode.PERIODIC,
) -> BussgangAfTerms:
    """Four-term AF split of ``s = kappa x + d`` on the full (lag, Doppler) grid."""
    if x.shape != d.shape:
        raise ConfigError(f"shape mismatch {x.shape} vs {d.shape}")
    a_x = cross_af(x, None, k_grid, mode)
    a_d = cross_af(d, None, k_grid, mode)
    a_xd = cross_af(x, d, k_grid, mode)
    a_dx = cross_af(d, x, k_grid, mode)

    k2 = abs(kappa) ** 2
    # the squared sum of the four terms, one block of lag rows at a time
    real = np.finfo(np.result_type(a_x, a_xd, a_dx, a_d, kappa)).dtype
    recombined = np.empty(a_x.shape, real)
    for rows in _lag_rows(a_x.shape[-2], a_x[..., 0, :].size):
        a_s = (k2 * a_x[..., rows, :] + kappa * a_xd[..., rows, :]
               + np.conj(kappa) * a_dx[..., rows, :] + a_d[..., rows, :])
        recombined[..., rows, :] = np.abs(a_s) ** 2
    return BussgangAfTerms(
        a_x=a_x, a_xd=a_xd, a_dx=a_dx, a_d=a_d, kappa=kappa, recombined=recombined
    )


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


def _clip_weights(cfg: PaConfig, rho: LagCorrelation, n: int, mode: AfMode):
    """Per-lag weights (both-below, one-clipped, both-clipped) on the mode's
    lag axis, each at the correlation of the lag's distance: ``|l|``
    aperiodic, ``min(l, n - l)`` periodic.  Lag 0 has correlation 1."""
    lags = _lags(n, mode)
    distance = np.minimum(lags, n - lags) if mode is AfMode.PERIODIC else np.abs(lags)
    y = cfg.y
    p_bb = _joint_below_vector(y, rho.values[distance])
    p_below = 1.0 - math.exp(-y * y)
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


def sel_zero_doppler_cut(
    x: np.ndarray, cfg: PaConfig, rho: LagCorrelation
) -> np.ndarray:
    """Clipping-conditioned model of the aperiodic zero-Doppler cut.

    Evaluates, for the pre-amplifier realization ``x`` (batches allowed on
    leading axes), the probability-weighted combination of the undistorted
    autocorrelation, the pair of one-sample-clipped cross sums, and the
    both-clipped phase sum (:func:`_conditioned_cut`).  Lag axis:
    ``1-n..n-1``.

    Known faults: the one-clipped weight is doubled here, so the weights sum
    to ``p_bb + 4 p_mixed + p_above``, not 1; and the kernel's second cross
    sum lacks a conjugate (see :func:`_conditioned_cut`).
    """
    n = x.shape[-1]
    if rho.values.shape[0] < n + 1:
        raise ConfigError(
            f"lag correlation covers lags up to {rho.values.shape[0] - 1}, need {n}"
        )
    p_bb, w_mixed, w_above = _clip_weights(cfg, rho, n, AfMode.APERIODIC)
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
    rng_rho, rng_mc = rng.spawn(2)
    rho = lag_correlation(constellation, basis, max(trials, 4096), rng_rho)

    weights = _clip_weights(cfg, rho, n, mode)
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

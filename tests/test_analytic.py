import math

import numpy as np
import pytest

from isacsim import (
    ConfigError,
    average_af,
    clip_probabilities,
    draw_symbols,
    estimate_bussgang,
    joint_below_prob,
    lag_correlation,
    parse_basis,
    parse_constellation,
    sel_amplify,
    sidelobe_metrics,
    synthesize,
    to_db,
)
from isacsim.ambiguity import AfMode, cross_af
from isacsim.analytic import (
    LagCorrelation,
    bussgang_af_decompose,
    expected_zero_doppler_bussgang,
    sel_eisl,
    sel_zero_delay_cut,
    sel_zero_doppler_cut,
)
from isacsim.seeding import derive_rng

from conftest import pa_compression, pa_limiter, scaled_linear_generator, tx_generator


# ------------------------------------------------- joint clip probabilities

def test_probability_closure_on_grid():
    for y in np.linspace(0.3, 3.0, 10):
        for rho in np.linspace(0.0, 0.99, 10):
            assert clip_probabilities(float(y), float(rho)).closure_defect() < 1e-9


def test_uncorrelated_pair_factorizes():
    for y in (0.5, 1.0, 2.0):
        marginal = 1.0 - math.exp(-y * y)
        assert abs(joint_below_prob(y, 0.0) - marginal**2) < 1e-8


def test_fully_correlated_pair_collapses_to_marginal():
    for rho in (1.0, 1.0 - 1e-13):
        assert joint_below_prob(1.0, rho) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )


def test_weight_triple_at_unit_threshold():
    p = clip_probabilities(1.0, 0.0)
    assert p.p_below_both == pytest.approx(0.39957640089372803, abs=1e-9)
    assert p.p_mixed == pytest.approx(0.23254415793482963, abs=1e-9)
    assert p.p_above_both == pytest.approx(0.1353352832366127, abs=1e-9)


def test_joint_below_prob_validation():
    with pytest.raises(ConfigError):
        joint_below_prob(0.0, 0.5)
    with pytest.raises(ConfigError):
        joint_below_prob(1.0, -0.1)
    with pytest.raises(ConfigError):
        joint_below_prob(1.0, 1.1)


def test_joint_below_prob_against_envelope_pairs():
    # 1e7 correlated Rayleigh pairs; squared-envelope correlation |c|^2
    y, rho = 1.0, 0.5
    c = math.sqrt(rho)
    rng = derive_rng(70, "an")
    hits = 0
    total = 10_000_000
    chunk = 500_000
    for _ in range(total // chunk):
        u = (rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)) / math.sqrt(2)
        w = (rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)) / math.sqrt(2)
        v = c * u + math.sqrt(1 - rho) * w
        hits += int(np.count_nonzero((np.abs(u) < y) & (np.abs(v) < y)))
    p_hat = hits / total
    p = joint_below_prob(y, rho)
    se = math.sqrt(p * (1 - p) / total)
    assert abs(p_hat - p) < 3 * se


# --------------------------------------------------------- lag correlations

def test_lag_correlation_flat_spectrum_psk():
    basis = parse_basis("ofdm", 32)
    rho = lag_correlation(parse_constellation("16-PSK"), basis, 32, 3000, derive_rng(71, "an"))
    assert rho.values.shape == (33,)
    assert rho.values[0] == 1.0
    assert rho.values[32] == 0.0
    np.testing.assert_allclose(rho.values[1:32], 0.0, atol=1e-12)
    assert not rho.degenerate
    assert rho.at(-5) == rho.values[5]


def test_lag_correlation_constant_envelope_is_degenerate():
    basis = parse_basis("sc", 16)
    rho = lag_correlation(parse_constellation("16-PSK"), basis, 16, 500, derive_rng(72, "an"))
    assert rho.degenerate


# ------------------------------------------------------ realization algebra

@pytest.mark.parametrize("mode", [AfMode.PERIODIC, AfMode.APERIODIC])
@pytest.mark.parametrize("n", [16, 64])
def test_four_term_split_recombines_exactly(mode, n):
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    cfg = pa_limiter(0.0)
    kappa = estimate_bussgang(cfg, basis, const, 200, derive_rng(74, "an")).kappa
    x = synthesize(basis, draw_symbols(const, (1, n), derive_rng(75, "an", n)))[0]
    d = sel_amplify(x, cfg) - kappa * x
    terms = bussgang_af_decompose(x, d, kappa, k_grid=8, mode=mode)
    direct = np.abs(cross_af(kappa * x + d, k_grid=8, mode=mode)) ** 2
    np.testing.assert_allclose(terms.recombined, direct, rtol=1e-9, atol=1e-12)


def test_split_without_distortion_collapses():
    n = 16
    basis = parse_basis("ofdm", n)
    x = synthesize(basis, draw_symbols(parse_constellation("16-PSK"), (1, n), derive_rng(76, "an")))[0]
    terms = bussgang_af_decompose(x, np.zeros(n, dtype=complex), 0.9, k_grid=4)
    assert np.all(terms.a_d == 0)
    assert np.all(terms.a_xd == 0)
    np.testing.assert_allclose(
        terms.recombined, 0.9**4 * np.abs(terms.a_x) ** 2, rtol=1e-12
    )


def test_cross_terms_average_away():
    n = 64
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    cfg = pa_limiter(0.0)
    kappa = estimate_bussgang(cfg, basis, const, 400, derive_rng(40, "an")).kappa
    rng = derive_rng(41, "an")
    trials = 300
    vals = np.empty((trials, n - 1))
    for t in range(trials):
        x = synthesize(basis, draw_symbols(const, (1, n), rng))[0]
        d = sel_amplify(x, cfg) - kappa * x
        terms = bussgang_af_decompose(x, d, kappa, k_grid=1)
        cross = 2 * np.real(kappa**2 * terms.a_x[:, 0] * np.conj(terms.a_d[:, 0]))
        vals[t] = cross[1:]
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(mean) <= 3 * se)


# ------------------------------------------------- expected-level bookkeeping

def test_expected_zero_doppler_bussgang_values():
    pred = expected_zero_doppler_bussgang(1.0, 1.0, 1.0, 64)
    assert pred.per_lag == pytest.approx(2.0, rel=1e-14)
    assert pred.eisl == pytest.approx(126 * 2.0, rel=1e-14)
    assert pred.mainlobe == pytest.approx(2.0 + 2 * 64, rel=1e-14)
    lin = expected_zero_doppler_bussgang(0.5, 2.0, 0.0, 16)
    assert lin.per_lag == pytest.approx(0.5**4 * 4.0, rel=1e-14)
    with pytest.raises(ConfigError):
        expected_zero_doppler_bussgang(1.0, 1.0, 1.0, 1)


def test_iid_sidelobe_formula_against_averaged_surface():
    # 16-QAM OFDM N=64 at 1 dB compression back-off: the i.i.d.-sample model
    # should predict the unnormalized expected ISL within 5% of the
    # Monte-Carlo average when fed MC-estimated linearization stats.
    n = 64
    pa = pa_compression(1.0)
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    st = estimate_bussgang(pa, basis, const, 400, derive_rng(64, "an"))
    pred = expected_zero_doppler_bussgang(st.kappa, 1.0, st.sigma_d2, n, d4=st.d4)
    surf = average_af(
        tx_generator("16-QAM", "ofdm", n, pa=pa),
        10_000,
        k_grid=1,
        mode=AfMode.APERIODIC,
        rng=derive_rng(65, "an"),
        normalize=False,
    )
    mc_eisl = sidelobe_metrics(surf).eisl
    rel = abs(mc_eisl - pred.eisl) / mc_eisl
    assert rel < 0.05, (
        f"i.i.d. model eisl={pred.eisl:.2f} vs MC {mc_eisl:.2f} "
        f"(rel err {rel:.1%}); the model ignores the deterministic "
        f"autocorrelation structure the subcarrier synthesis imposes"
    )


# ------------------------------------------------- conditioned zero-Doppler

def _averaged_model_cut(const_name, n, pa, rho, trials, rng):
    basis = parse_basis("ofdm", n)
    const = parse_constellation(const_name)
    acc = np.zeros(2 * n - 1)
    for _ in range(trials):
        x = synthesize(basis, draw_symbols(const, (1, n), rng))[0]
        acc += np.abs(sel_zero_doppler_cut(x, pa, rho)) ** 2
    return acc / trials


def test_conditioned_cut_negligible_clipping_is_linear():
    n = 64
    cfg = pa_limiter(10 * math.log10(64.0))
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    rho = lag_correlation(const, basis, n, 4000, derive_rng(42, "an"))
    x = synthesize(basis, draw_symbols(const, (1, n), derive_rng(43, "an")))[0]
    model = sel_zero_doppler_cut(x, cfg, rho)
    lin = cross_af(cfg.g * cfg.alpha * x, k_grid=1, mode=AfMode.APERIODIC)[:, 0]
    np.testing.assert_allclose(model, lin, rtol=1e-6)


def test_conditioned_cut_requires_full_lag_table():
    short = LagCorrelation(np.array([1.0, 0.0, 0.0]))
    x = np.ones(8, dtype=complex)
    with pytest.raises(ConfigError):
        sel_zero_doppler_cut(x, pa_limiter(0.0), short)


def test_conditioned_cut_tracks_averaged_empirical_cut():
    # 16-PSK OFDM N=64 at 1 dB compression back-off: averaged model cut vs
    # MC-averaged empirical cut, compared in dB at all lags above -50 dB.
    n = 64
    pa = pa_compression(1.0)
    basis = parse_basis("ofdm", n)
    psk = parse_constellation("16-PSK")
    rho = lag_correlation(psk, basis, n, 4000, derive_rng(61, "an"))
    mc = average_af(
        tx_generator("16-PSK", "ofdm", n, pa=pa),
        4000,
        k_grid=1,
        mode=AfMode.APERIODIC,
        rng=derive_rng(62, "an"),
        normalize=False,
    ).values[:, 0]
    model = _averaged_model_cut("16-PSK", n, pa, rho, 400, derive_rng(63, "an"))
    mc_db = to_db(mc / mc.max())
    model_db = to_db(model / model.max())
    mask = mc_db > -50.0
    resid = np.abs(model_db - mc_db)[mask]
    assert resid.max() <= 1.5, (
        f"max |model - MC| = {resid.max():.2f} dB over {int(mask.sum())} lags "
        f"(median {np.median(resid):.2f} dB)"
    )


# ------------------------------------------------------- expected-ISL model

def test_sel_eisl_negligible_clipping_matches_linear_mc():
    cfg = pa_limiter(10 * math.log10(64.0))
    const = parse_constellation("16-QAM")
    est = sel_eisl(cfg, const, parse_basis("ofdm", 32), 32, 2000, derive_rng(44, "an"))
    gen = scaled_linear_generator("16-QAM", "ofdm", 32, cfg)
    mc = sidelobe_metrics(
        average_af(gen, 2000, k_grid=1, mode=AfMode.APERIODIC,
                   rng=derive_rng(45, "an"), normalize=False)
    ).eisl
    assert abs(est.eisl - mc) / mc < 0.05


def test_sel_eisl_grows_with_subcarrier_count():
    pa = pa_compression(1.0)
    const = parse_constellation("16-QAM")
    values = [
        sel_eisl(pa, const, parse_basis("ofdm", n), n, 1500, derive_rng(46, "an", i)).eisl
        for i, n in enumerate((32, 64, 128))
    ]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("const_name", ["16-PSK", "16-QAM"])
def test_sel_eisl_rises_as_backoff_shrinks(const_name):
    const = parse_constellation(const_name)
    values = [
        sel_eisl(pa_compression(db), const, parse_basis("ofdm", 64), 64, 1000,
                 derive_rng(47, "an", int(db))).eisl
        for db in (8.0, 4.0, 1.0)
    ]
    assert values[0] < values[1] < values[2]


def test_sel_eisl_validation():
    const = parse_constellation("16-QAM")
    with pytest.raises(ConfigError):
        sel_eisl(pa_limiter(0.0), const, parse_basis("ofdm", 64), 32, 100, derive_rng(0, "an"))
    with pytest.raises(ConfigError):
        sel_eisl(pa_limiter(0.0), const, parse_basis("ofdm", 32), 32, 0, derive_rng(0, "an"))


def test_prefix_extension_can_exceed_unprefixed_sidelobes():
    # at deep clipping a cyclically extended constant-alphabet frame can
    # integrate more sidelobe energy than a bare QAM frame of the same core
    # length: the prefix keeps symbol boundaries coherent at long lags
    pa = pa_compression(1.0)
    cp = sidelobe_metrics(
        average_af(tx_generator("16-PSK", "ofdm", 64, pa=pa, cp_len=32), 2500,
                   k_grid=1, mode=AfMode.APERIODIC, rng=derive_rng(50, "an"),
                   normalize=False)
    ).eisl
    bare = sidelobe_metrics(
        average_af(tx_generator("16-QAM", "ofdm", 64, pa=pa), 2500,
                   k_grid=1, mode=AfMode.APERIODIC, rng=derive_rng(51, "an"),
                   normalize=False)
    ).eisl
    assert cp > 1.1 * bare


# ------------------------------------------------------- empirical orderings

def _mean_sidelobe_db(const_name, pa, seed):
    gen = tx_generator(const_name, "ofdm", 64, pa=pa)
    m = sidelobe_metrics(average_af(gen, 1500, k_grid=1, rng=derive_rng(seed, "an")))
    return float(to_db(np.array([m.eisl / (2 * 63)]))[0])


def test_distortion_rise_larger_for_psk_but_qam_stays_above():
    pa = pa_compression(1.0)
    psk_lin = _mean_sidelobe_db("16-PSK", None, 52)
    psk_nl = _mean_sidelobe_db("16-PSK", pa, 53)
    qam_lin = _mean_sidelobe_db("16-QAM", None, 54)
    qam_nl = _mean_sidelobe_db("16-QAM", pa, 55)
    assert psk_nl - psk_lin > qam_nl - qam_lin
    assert qam_nl >= psk_nl


# ----------------------------------------------------------- zero-delay cut

def test_zero_delay_negligible_clipping_reduces_to_power_spectrum():
    n = 64
    basis = parse_basis("ofdm", n)
    cfg = pa_limiter(10 * math.log10(64.0))
    x = synthesize(basis, draw_symbols(parse_constellation("16-QAM"), (1, n), derive_rng(60, "an")))[0]
    model = sel_zero_delay_cut(x, cfg)
    u = cfg.g * cfg.alpha * x
    np.testing.assert_allclose(model, np.fft.fft(np.abs(u) ** 2) / math.sqrt(n), atol=1e-12)


def _averaged_zero_delay_db(pa, const_name, trials, rng):
    basis = parse_basis("ofdm", 64)
    const = parse_constellation(const_name)
    acc = np.zeros(64)
    for _ in range(trials):
        x = synthesize(basis, draw_symbols(const, (1, 64), rng))[0]
        acc += np.abs(sel_zero_delay_cut(x, pa)) ** 2
    return to_db(acc / acc[0])


def test_heavier_clipping_lowers_normalized_doppler_sidelobes():
    # paired draws: the same realizations feed both operating points, so the
    # per-bin comparison isolates the deterministic mainlobe boost
    rng = derive_rng(56, "an")
    basis = parse_basis("ofdm", 64)
    const = parse_constellation("16-QAM")
    cfg0, cfg8 = pa_limiter(0.0), pa_limiter(8.0)
    acc0, acc8 = np.zeros(64), np.zeros(64)
    for _ in range(1000):
        x = synthesize(basis, draw_symbols(const, (1, 64), rng))[0]
        acc0 += np.abs(sel_zero_delay_cut(x, cfg0)) ** 2
        acc8 += np.abs(sel_zero_delay_cut(x, cfg8)) ** 2
    c0 = to_db(acc0 / acc0[0])
    c8 = to_db(acc8 / acc8[0])
    assert np.all(c0[1:] < c8[1:])


def test_zero_delay_constellation_insensitive_at_moderate_backoff():
    pa = pa_compression(4.0)
    psk = _averaged_zero_delay_db(pa, "16-PSK", 4000, derive_rng(58, "an"))
    qam = _averaged_zero_delay_db(pa, "16-QAM", 4000, derive_rng(59, "an"))
    assert np.max(np.abs(psk - qam)) < 0.5

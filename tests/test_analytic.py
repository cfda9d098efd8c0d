import math

import numpy as np
import pytest

from isacsim import (
    ConfigError,
    NumericError,
    PaConfig,
    average_af,
    clip_probabilities,
    draw_symbols,
    estimate_bussgang,
    joint_below_prob,
    lag_correlation,
    limiter_compression_power,
    parse_basis,
    parse_constellation,
    sel_amplify,
    sidelobe_metrics,
    synthesize,
    to_db,
)
from isacsim import ambiguity, analytic
from isacsim.ambiguity import AfMode, _lags, cross_af
from isacsim.analytic import (
    LagCorrelation,
    _clip_weights,
    _joint_below_vector,
    bussgang_af_decompose,
    expected_zero_doppler_bussgang,
    sel_eisl,
    sel_zero_delay_cut,
    sel_zero_doppler_cut,
)
from isacsim.seeding import chunk_rngs, derive_rng
from isacsim.signaling import _MC_BLOCK_CELLS

from conftest import (
    full_tensor_af,
    gathered_lag_products,
    pa_compression,
    pa_limiter,
    scaled_linear_generator,
    traced_peak_bytes,
    tx_generator,
)


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


def test_joint_below_vector_on_repeated_correlations_matches_per_value_loop():
    # lag grids repeat their correlations; each distinct one is integrated
    # once, and every entry must equal the value it gets on its own
    distinct = np.linspace(0.0, 0.9, 17)
    rho = np.concatenate([distinct, distinct[::-1], [1.0, 0.3, 0.3, 0.0]])
    expected = np.array([joint_below_prob(1.1, float(r)) for r in rho])
    np.testing.assert_array_equal(_joint_below_vector(1.1, rho), expected)


def test_joint_below_prob_raises_when_grid_doubling_disagrees():
    # just below the exact-collapse cut-off the integrand is too sharply
    # peaked for the theta grid, and doubling the grid shows it
    with pytest.raises(NumericError, match="did not converge"):
        joint_below_prob(1.0, 0.999999)


def test_joint_below_vector_memory_bounded_on_aperiodic_lags():
    # 255 aperiodic lags on the doubled theta grid take 17 MB per temporary
    # when integrated all at once
    rho = np.linspace(0.0, 0.9, 128)[np.abs(np.arange(-127, 128))]
    assert traced_peak_bytes(_joint_below_vector, 1.1, rho) < 4e6


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
    rho = lag_correlation(parse_constellation("16-PSK"), basis, 3000, derive_rng(71, "an"))
    assert rho.values.shape == (33,)
    assert rho.values[0] == 1.0
    assert rho.values[32] == 0.0
    np.testing.assert_allclose(rho.values[1:32], 0.0, atol=1e-12)
    assert not rho.degenerate


def test_lag_correlation_constant_envelope_is_degenerate():
    basis = parse_basis("sc", 16)
    rho = lag_correlation(parse_constellation("16-PSK"), basis, 500, derive_rng(72, "an"))
    assert rho.degenerate


@pytest.mark.parametrize("basis_name", ["ofdm", "sc", "cdma"])
def test_lag_correlation_blocks_match_one_shot_estimate(basis_name):
    # 4097 trials end in a ragged block; the streamed estimate must equal,
    # bit for bit, the one computed over all frames at once
    n, trials = 64, 4097
    const, basis = parse_constellation("16-QAM"), parse_basis(basis_name, n)
    assert trials % (_MC_BLOCK_CELLS // n) != 0
    rho = lag_correlation(const, basis, trials, derive_rng(81, "an"))
    x = synthesize(basis, draw_symbols(const, (trials, n), derive_rng(81, "an")))
    power = np.abs(x) ** 2
    spec = np.abs(np.fft.fft(power - power.mean(), axis=-1)) ** 2
    acov = (np.fft.ifft(spec, axis=-1).real / n).mean(axis=0)
    expected = np.zeros(n + 1)
    expected[0] = 1.0
    expected[1:n] = np.clip(acov[1:n] / acov[0], 0.0, 1.0)
    np.testing.assert_array_equal(rho.values, expected)
    assert not rho.degenerate


def test_lag_correlation_memory_does_not_grow_with_temporaries():
    # the one-shot estimate pushed all 4096 frames through about six
    # same-size complex temporaries (46 MB); only the 4 MB power array is
    # held whole now
    const, basis = parse_constellation("16-QAM"), parse_basis("ofdm", 128)
    peak = traced_peak_bytes(lag_correlation, const, basis, 4096, derive_rng(82, "an"))
    assert peak < 8e6


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


def _whole_array_recombination(a_x, a_xd, a_dx, a_d, kappa):
    """The recombination as one expression over whole surfaces."""
    return np.abs(abs(kappa) ** 2 * a_x + kappa * a_xd + np.conj(kappa) * a_dx + a_d) ** 2


@pytest.mark.parametrize("block_cells", [None, 300])
def test_four_term_split_equals_whole_array_evaluation_bit_for_bit(block_cells, monkeypatch):
    # N=256 aperiodic spans several blocks at the real size, with a ragged
    # last one; the small size splits every case, batch axes included
    if block_cells is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_CELLS", block_cells)
    cfg = pa_limiter(0.0)
    rng = derive_rng(77, "an")
    for n, batch, k, mode, kappa in [
        (256, 1, None, AfMode.APERIODIC, 0.83 - 0.05j),
        (64, 1, 24, AfMode.PERIODIC, 0.9),
        (16, 3, 40, AfMode.APERIODIC, 0.8 + 0.1j),
    ]:
        x = synthesize(parse_basis("ofdm", n), draw_symbols(parse_constellation("16-QAM"), (batch, n), rng))
        if batch == 1:
            x = x[0]
        d = sel_amplify(x, cfg) - kappa * x
        terms = bussgang_af_decompose(x, d, kappa, k, mode)
        kk = n if k is None else k
        want = {
            "a_x": full_tensor_af(x, x, kk, mode),
            "a_d": full_tensor_af(d, d, kk, mode),
            "a_xd": full_tensor_af(x, d, kk, mode),
            "a_dx": full_tensor_af(d, x, kk, mode),
        }
        want["recombined"] = _whole_array_recombination(
            want["a_x"], want["a_xd"], want["a_dx"], want["a_d"], kappa
        )
        for name, value in want.items():
            got = getattr(terms, name)
            assert got.dtype == value.dtype, name
            assert np.array_equal(got, value), name
        assert terms.kappa == kappa


def test_four_term_split_memory_is_outputs_plus_one_block():
    # the whole-array recombination held about ten surface-sized temporaries
    # (19.9 MB peak at N=256 aperiodic); only the five outputs are whole now
    n = 256
    rng = derive_rng(78, "an")
    x = synthesize(parse_basis("ofdm", n), draw_symbols(parse_constellation("16-QAM"), (1, n), rng))[0]
    d = sel_amplify(x, pa_limiter(0.0)) - 0.83 * x
    peak = traced_peak_bytes(bussgang_af_decompose, x, d, 0.83, None, AfMode.APERIODIC)
    outputs = 4 * (2 * n - 1) * n * 16 + (2 * n - 1) * n * 8
    assert peak < outputs + 2.5e6


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
    pred = expected_zero_doppler_bussgang(1.0, 1.0, 64)
    assert pred.per_lag == pytest.approx(2.0, rel=1e-14)
    assert pred.eisl == pytest.approx(126 * 2.0, rel=1e-14)
    assert pred.mainlobe == pytest.approx(2.0 + 2 * 64, rel=1e-14)
    lin = expected_zero_doppler_bussgang(0.5, 0.0, 16)
    assert lin.per_lag == pytest.approx(0.5**4, rel=1e-14)
    with pytest.raises(ConfigError):
        expected_zero_doppler_bussgang(1.0, 1.0, 1)


def test_iid_sidelobe_formula_against_averaged_surface():
    # 16-QAM OFDM N=64 at 1 dB compression back-off: the i.i.d.-sample model
    # should predict the unnormalized expected ISL within 5% of the
    # Monte-Carlo average when fed MC-estimated linearization stats.
    n = 64
    pa = pa_compression(1.0)
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    st = estimate_bussgang(pa, basis, const, 400, derive_rng(64, "an"))
    pred = expected_zero_doppler_bussgang(st.kappa, st.sigma_d2, n, d4=st.d4)
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
    rho = lag_correlation(const, basis, 4000, derive_rng(42, "an"))
    x = synthesize(basis, draw_symbols(const, (1, n), derive_rng(43, "an")))[0]
    model = sel_zero_doppler_cut(x, cfg, rho)
    lin = cross_af(cfg.alpha * x, k_grid=1, mode=AfMode.APERIODIC)[:, 0]
    np.testing.assert_allclose(model, lin, rtol=1e-6)


def test_conditioned_cut_requires_full_lag_table():
    short = LagCorrelation(np.array([1.0, 0.0, 0.0]))
    x = np.ones(8, dtype=complex)
    with pytest.raises(ConfigError):
        sel_zero_doppler_cut(x, pa_limiter(0.0), short)


def test_phase_signal_maps_exact_zero_to_one(monkeypatch):
    # antipodal symbols spread by the Hadamard basis cancel exactly in some chips
    basis = parse_basis("cdma", 8)
    x = synthesize(basis, np.array([[1, 1, 1, 1, -1, -1, -1, -1]], dtype=complex))[0]
    cfg = pa_limiter(0.0)
    u = cfg.alpha * x
    zero = u == 0
    assert zero.any() and not zero.all()
    phi = analytic._phase_signal(u)
    np.testing.assert_array_equal(phi[zero], 1.0)
    np.testing.assert_allclose(phi[~zero], np.exp(1j * np.angle(u[~zero])),
                               rtol=0, atol=4 * np.finfo(float).eps)
    # the conditioned cut of such a frame is the one the angle formula gives
    rho = LagCorrelation(np.linspace(1.0, 0.0, 9))
    cut = sel_zero_doppler_cut(x, cfg, rho)
    monkeypatch.setattr(analytic, "_phase_signal", lambda v: np.exp(1j * np.angle(v)))
    by_angle = sel_zero_doppler_cut(x, cfg, rho)
    assert np.all(np.isfinite(cut))
    np.testing.assert_allclose(cut, by_angle, rtol=0, atol=1e-12 * np.abs(by_angle).max())


@pytest.mark.parametrize("mode", [AfMode.PERIODIC, AfMode.APERIODIC])
def test_clip_weights_match_pairwise_probabilities(mode):
    # each lag reads the correlation at its distance: |l| aperiodic, the
    # circular min(l, n - l) periodic; a sample paired with itself is
    # below-both exactly when it is below
    n = 12
    rho = LagCorrelation(np.linspace(1.0, 0.0, n + 1))
    lags = _lags(n, mode)
    # deep clipping at y = 1/3 and 1/2: v_sat = y at unit drive (alpha = 1)
    cfgs = (*(PaConfig(v_sat=y, ibo=y**2) for y in (1 / 3, 1 / 2)),
            pa_limiter(0.0), pa_limiter(6.0))
    assert len({cfg.y for cfg in cfgs}) == 4
    for cfg in cfgs:
        y = cfg.y
        p_bb, w_mixed, w_above = _clip_weights(cfg, rho, n, mode)
        assert p_bb.shape == lags.shape
        for lag, got in zip(lags, zip(p_bb, w_mixed, w_above)):
            distance = min(lag, n - lag) if mode is AfMode.PERIODIC else abs(lag)
            if distance == 0:
                assert got[0] == 1.0 - math.exp(-y * y)
                assert got[1] == 0.0
            else:
                want = clip_probabilities(y, float(rho.values[distance]))
                assert got == (want.p_below_both, want.p_mixed, want.p_above_both)


def _written_out_conditioned_sum(x, cfg, rho, mode, mixed_scale):
    """The four-term conditioned sum with every term spelled out: below-both
    ``sum u(p) u*(p-l)``, the one-clipped ``sum u(p) phi*(p-l)`` and
    ``sum phi(p) u(p-l)``, both-clipped ``sum phi(p) phi*(p-l)``, each
    weighted by its pairwise probability at the lag's correlation distance
    (``|l|`` aperiodic, ``min(l, n - l)`` periodic); ``mixed_scale``
    multiplies the one-clipped weight."""
    n = x.shape[-1]
    u = cfg.alpha * x
    phi = np.exp(1j * np.angle(u))
    lags = _lags(n, mode)
    dist = np.minimum(lags, n - lags) if mode is AfMode.PERIODIC else np.abs(lags)
    probs = [clip_probabilities(cfg.y, float(rho.values[d])) for d in dist]
    p_bb, p_mixed, p_above = (np.array([getattr(p, f) for p in probs])
                              for f in ("p_below_both", "p_mixed", "p_above_both"))

    def corr(a, b):  # sum_p a(p) b*(p - l), from an index table
        return gathered_lag_products(a, b, mode).sum(axis=-1)

    v = cfg.v_sat
    return (p_bb * corr(u, u)
            + mixed_scale * p_mixed * v * (corr(u, phi) + corr(phi, np.conj(u)))
            + p_above * v * v * corr(phi, phi)) / math.sqrt(n)


@pytest.mark.parametrize("n", [16, 64])
def test_conditioned_models_equal_written_out_four_term_sums(n):
    # the model as it stands, including the two recorded faults: the cut
    # weights each one-clipped sum by twice the one-clipped probability, and
    # both functions correlate phi with u unconjugated (sum phi(p) u(p-l))
    const, basis = parse_constellation("16-QAM"), parse_basis("ofdm", n)
    cfg = PaConfig(1.0, 10 ** 0.1, p1db=limiter_compression_power(1.0))
    rho = lag_correlation(const, basis, 4096, derive_rng(90, "an", n))
    x = synthesize(basis, draw_symbols(const, (3, n), derive_rng(91, "an", n)))
    want = _written_out_conditioned_sum(x, cfg, rho, AfMode.APERIODIC, 2.0)
    got = sel_zero_doppler_cut(x, cfg, rho)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    trials = 70  # two chunks of sel_eisl's 64 trials, the last ragged
    for mode in (AfMode.PERIODIC, AfMode.APERIODIC):
        est = sel_eisl(cfg, const, basis, trials, derive_rng(92, "an", n), mode)
        rng_rho, rng_mc = derive_rng(92, "an", n).spawn(2)
        rho_mc = lag_correlation(const, basis, 4096, rng_rho)
        per_lag = np.zeros(_lags(n, mode).size)
        for size, r in chunk_rngs(rng_mc, trials, 64):
            frames = synthesize(basis, draw_symbols(const, (size, n), r))
            w = _written_out_conditioned_sum(frames, cfg, rho_mc, mode, 1.0)
            per_lag += (np.abs(w) ** 2).sum(axis=0)
        per_lag /= trials
        if mode is AfMode.PERIODIC:
            eisl = 2.0 * per_lag[1:].sum()
        else:
            eisl = per_lag.sum() - per_lag[n - 1]
        assert est.mode is mode
        np.testing.assert_array_equal(est.lags, _lags(n, mode))
        np.testing.assert_allclose(est.per_lag, per_lag, rtol=0, atol=1e-12 * per_lag.max())
        assert abs(est.eisl - eisl) <= 1e-12 * eisl


def test_conditioned_cut_tracks_averaged_empirical_cut():
    # 16-PSK OFDM N=64 at 1 dB compression back-off: averaged model cut vs
    # MC-averaged empirical cut, compared in dB at all lags above -50 dB.
    n = 64
    pa = pa_compression(1.0)
    basis = parse_basis("ofdm", n)
    psk = parse_constellation("16-PSK")
    rho = lag_correlation(psk, basis, 4000, derive_rng(61, "an"))
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
    est = sel_eisl(cfg, const, parse_basis("ofdm", 32), 2000, derive_rng(44, "an"))
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
        sel_eisl(pa, const, parse_basis("ofdm", n), 1500, derive_rng(46, "an", i)).eisl
        for i, n in enumerate((32, 64, 128))
    ]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("const_name", ["16-PSK", "16-QAM"])
def test_sel_eisl_rises_as_backoff_shrinks(const_name):
    const = parse_constellation(const_name)
    values = [
        sel_eisl(pa_compression(db), const, parse_basis("ofdm", 64), 1000,
                 derive_rng(47, "an", int(db))).eisl
        for db in (8.0, 4.0, 1.0)
    ]
    assert values[0] < values[1] < values[2]


def test_sel_eisl_validation():
    const = parse_constellation("16-QAM")
    with pytest.raises(ConfigError):
        sel_eisl(pa_limiter(0.0), const, parse_basis("ofdm", 32), 0, derive_rng(0, "an"))


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
    u = cfg.alpha * x
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

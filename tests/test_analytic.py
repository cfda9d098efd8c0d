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
from isacsim import analytic, seeding
from isacsim.ambiguity import AfMode, _lags, cross_af
from isacsim.analytic import (
    _clip_weights,
    bussgang_af_decompose,
    expected_zero_doppler_bussgang,
    sel_eisl,
    sel_zero_delay_cut,
    sel_zero_doppler_cut,
)
from isacsim.seeding import chunk_rngs, derive_rng

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


def test_joint_below_prob_raises_when_grid_doubling_disagrees():
    # just below the exact-collapse cut-off the integrand is too sharply
    # peaked for the theta grid, and doubling the grid shows it
    with pytest.raises(NumericError, match="did not converge"):
        joint_below_prob(1.0, 0.999999)


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
    # constant-modulus symbols (m4 = 1) over a flat-spectrum basis: the
    # frame energy is fixed, so every lag correlates at -1/(n - 1), which
    # the clip to [0, 1] turns into uncorrelated weights
    for order in (4, 16):
        for n in (16, 32, 64):
            rho = lag_correlation(parse_constellation(f"{order}-PSK"), parse_basis("ofdm", n))
            assert rho == pytest.approx(-1.0 / (n - 1), rel=1e-12)


def test_lag_correlation_is_zero_on_single_carrier():
    # single-carrier samples are the i.i.d. symbols; constant-envelope PSK
    # frames have no envelope variance at all
    for name in ("2-PSK", "16-PSK", "16-QAM", "64-QAM"):
        assert lag_correlation(parse_constellation(name), parse_basis("sc", 16)) == 0.0


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("basis_name", ["ofdm", "cdma"])
@pytest.mark.parametrize("const_name", ["16-PSK", "16-QAM", "64-QAM"])
def test_lag_correlation_matches_raw_monte_carlo(const_name, basis_name, n):
    # the unclipped per-lag correlation of |x|^2 over 16,000 frames, with
    # the known mean 1; the bound of 5 standard errors per lag was fixed
    # before measuring (about 560 lags over the 12 cases)
    const, basis = parse_constellation(const_name), parse_basis(basis_name, n)
    frames, rng = 16_000, derive_rng(83, f"an/{const_name}/{basis_name}", n)
    blocks = []  # per-frame circular autocovariance of the power
    for _ in range(frames // 4000):
        power = np.abs(synthesize(basis, draw_symbols(const, (4000, n), rng))) ** 2
        spec = np.abs(np.fft.fft(power - 1.0, axis=-1)) ** 2
        blocks.append(np.fft.ifft(spec, axis=-1).real / n)
    acov = np.concatenate(blocks)
    var = acov[:, 0].mean()
    rho_hat = acov[:, 1:].mean(axis=0) / var
    se = (acov[:, 1:] - rho_hat * acov[:, :1]).std(axis=0, ddof=1) / (math.sqrt(frames) * var)
    rho = lag_correlation(const, basis)
    assert rho < 0
    z = np.abs(rho_hat - rho) / se
    worst = int(z.argmax())
    assert z[worst] < 5.0, f"lag {worst + 1}: MC {rho_hat[worst]:.5f} vs closed form {rho:.5f}"


@pytest.mark.parametrize("name", [*(f"{2 ** b}-PSK" for b in range(1, 11)),
                                  *(f"{4 ** b}-QAM" for b in range(1, 6))])
def test_lag_correlation_is_negative_for_every_psk_and_square_qam(name):
    # the fact behind the closed-form clip weights: no PSK or square QAM up
    # to order 1024 correlates its squared envelopes positively at any lag
    const = parse_constellation(name)
    for n in (2, 8, 64, 1024):
        for basis in ("ofdm", "cdma"):
            assert lag_correlation(const, parse_basis(basis, n)) < 0
        assert lag_correlation(const, parse_basis("sc", n)) == 0


def test_clip_weights_are_uncorrelated_for_every_psk_and_qam():
    # the clipped correlation is 0 at every non-zero lag, so the closed-form
    # weights there are the quadrature oracle's at rho = 0; lag 0 pairs a
    # sample with itself, which is below-both exactly when it is below.
    # Deep clipping at y = 1/3 and 1/2: v_sat = y at unit drive (alpha = 1)
    cfgs = (*(PaConfig(v_sat=y, ibo=y**2) for y in (1 / 3, 1 / 2)),
            pa_limiter(0.0), pa_limiter(6.0), pa_limiter(15.0))
    assert len({cfg.y for cfg in cfgs}) == 5
    for cfg in cfgs:
        y = cfg.y
        zero = clip_probabilities(y, 1.0)
        for name in ("2-PSK", "8-PSK", "16-PSK", "4-QAM", "16-QAM", "64-QAM", "256-QAM"):
            for basis in (parse_basis("ofdm", 8), parse_basis("cdma", 16), parse_basis("sc", 8)):
                side = clip_probabilities(y, max(lag_correlation(parse_constellation(name), basis),
                                                 0.0))
                for mode in (AfMode.PERIODIC, AfMode.APERIODIC):
                    weights = _clip_weights(cfg, basis.n, mode)
                    lags = _lags(basis.n, mode)
                    assert [w[lags == 0][0] for w in weights] == [
                        1.0 - math.exp(-y * y), 0.0, zero.p_above_both]
                    want = (side.p_below_both, side.p_mixed, side.p_above_both)
                    for got, value in zip(weights, want):
                        assert got.shape == lags.shape
                        np.testing.assert_allclose(got[lags != 0], value, rtol=0, atol=1e-15)


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
        monkeypatch.setattr(seeding, "BLOCK_CELLS", block_cells)
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


def test_four_term_split_recombined_alone_is_output_plus_blocks():
    # the four complex terms were built up front (8.4 MB at N=256
    # aperiodic); unread, none is built now, and the recombination holds
    # one block of each term at a time
    n = 256
    const, basis = parse_constellation("16-QAM"), parse_basis("ofdm", n)
    x = synthesize(basis, draw_symbols(const, n, derive_rng(79, "an")))
    d = sel_amplify(x, pa_limiter(0.0)) - 0.83 * x
    peak = traced_peak_bytes(
        lambda: bussgang_af_decompose(x, d, 0.83, None, AfMode.APERIODIC).recombined
    )
    output = (2 * n - 1) * n * 8
    assert peak < output + 1e6


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
    mc_eisl = sidelobe_metrics(surf).isl
    rel = abs(mc_eisl - pred.eisl) / mc_eisl
    assert rel < 0.05, (
        f"i.i.d. model eisl={pred.eisl:.2f} vs MC {mc_eisl:.2f} "
        f"(rel err {rel:.1%}); the model ignores the deterministic "
        f"autocorrelation structure the subcarrier synthesis imposes"
    )


# ------------------------------------------------- conditioned zero-Doppler

def _averaged_model_cut(const_name, n, pa, trials, rng):
    basis = parse_basis("ofdm", n)
    const = parse_constellation(const_name)
    acc = np.zeros(2 * n - 1)
    for _ in range(trials):
        x = synthesize(basis, draw_symbols(const, (1, n), rng))[0]
        acc += np.abs(sel_zero_doppler_cut(x, pa)) ** 2
    return acc / trials


def test_conditioned_cut_negligible_clipping_is_linear():
    n = 64
    cfg = pa_limiter(10 * math.log10(64.0))
    basis = parse_basis("ofdm", n)
    const = parse_constellation("16-QAM")
    x = synthesize(basis, draw_symbols(const, (1, n), derive_rng(43, "an")))[0]
    model = sel_zero_doppler_cut(x, cfg)
    lin = cross_af(cfg.alpha * x, k_grid=1, mode=AfMode.APERIODIC)[:, 0]
    np.testing.assert_allclose(model, lin, rtol=1e-6)


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
    cut = sel_zero_doppler_cut(x, cfg)
    monkeypatch.setattr(analytic, "_phase_signal", lambda v: np.exp(1j * np.angle(v)))
    by_angle = sel_zero_doppler_cut(x, cfg)
    assert np.all(np.isfinite(cut))
    np.testing.assert_allclose(cut, by_angle, rtol=0, atol=1e-12 * np.abs(by_angle).max())


def _written_out_conditioned_sum(x, cfg, rho, mode, mixed_scale):
    """The four-term conditioned sum with every term spelled out: below-both
    ``sum u(p) u*(p-l)``, the one-clipped ``sum u(p) phi*(p-l)`` and
    ``sum phi(p) u(p-l)``, both-clipped ``sum phi(p) phi*(p-l)``, each
    weighted by its pairwise probability at correlation 1 (lag 0) or
    ``rho`` (every other lag); ``mixed_scale`` multiplies the one-clipped
    weight."""
    n = x.shape[-1]
    u = cfg.alpha * x
    phi = np.exp(1j * np.angle(u))
    lags = _lags(n, mode)
    probs = [clip_probabilities(cfg.y, 1.0 if lag == 0 else rho) for lag in lags]
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
    rho = max(lag_correlation(const, basis), 0.0)
    x = synthesize(basis, draw_symbols(const, (3, n), derive_rng(91, "an", n)))
    want = _written_out_conditioned_sum(x, cfg, rho, AfMode.APERIODIC, 2.0)
    got = sel_zero_doppler_cut(x, cfg)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    trials = 70  # two chunks of sel_eisl's 64 trials, the last ragged
    for mode in (AfMode.PERIODIC, AfMode.APERIODIC):
        est = sel_eisl(cfg, const, basis, trials, derive_rng(92, "an", n), mode)
        _, rng_mc = derive_rng(92, "an", n).spawn(2)
        per_lag = np.zeros(_lags(n, mode).size)
        for size, r in chunk_rngs(rng_mc, trials, 64):
            frames = synthesize(basis, draw_symbols(const, (size, n), r))
            w = _written_out_conditioned_sum(frames, cfg, rho, mode, 1.0)
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
    mc = average_af(
        tx_generator("16-PSK", "ofdm", n, pa=pa),
        4000,
        k_grid=1,
        mode=AfMode.APERIODIC,
        rng=derive_rng(62, "an"),
        normalize=False,
    ).values[:, 0]
    model = _averaged_model_cut("16-PSK", n, pa, 400, derive_rng(63, "an"))
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
    ).isl
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
    ).isl
    bare = sidelobe_metrics(
        average_af(tx_generator("16-QAM", "ofdm", 64, pa=pa), 2500,
                   k_grid=1, mode=AfMode.APERIODIC, rng=derive_rng(51, "an"),
                   normalize=False)
    ).isl
    assert cp > 1.1 * bare


# ------------------------------------------------------- empirical orderings

def _mean_sidelobe_db(const_name, pa, seed):
    gen = tx_generator(const_name, "ofdm", 64, pa=pa)
    m = sidelobe_metrics(average_af(gen, 1500, k_grid=1, rng=derive_rng(seed, "an")))
    return float(to_db(np.array([m.isl / (2 * 63)]))[0])


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

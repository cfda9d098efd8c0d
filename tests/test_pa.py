import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import (
    ConfigError,
    PaConfig,
    backoff_coefficient,
    draw_symbols,
    estimate_bussgang,
    kappa_gaussian,
    limiter_compression_power,
    output_power_gaussian,
    parse_basis,
    parse_constellation,
    sdr,
    sel_amplify,
    snr_eff,
    synthesize,
)
from isacsim.seeding import chunk_seeds, derive_rng

from conftest import pa_compression, pa_limiter, traced_peak_bytes

KAPPA_Y1 = 0.7715233514688886  # closed form at threshold == RMS
POWER_Y1 = 1.0 - math.exp(-1.0)
SIGMA_D2_Y1 = POWER_Y1 - KAPPA_Y1**2


def _kappa_quadrature(y):
    # E[min(r, y) r] over the unit-power Rayleigh envelope density 2 r e^{-r^2}
    val, _ = scipy.integrate.quad(
        lambda r: min(r, y) * r * 2 * r * math.exp(-r * r), 0, 12, limit=200
    )
    return val


# ---------------------------------------------------------------- back-off

def test_backoff_coefficient_examples():
    assert backoff_coefficient(1.0, 1.0) == 1.0
    assert abs(backoff_coefficient(1.0, 10**0.4) - 10**-0.2) < 1e-15


def test_backoff_rejects_drive_above_reference():
    with pytest.raises(ConfigError):
        backoff_coefficient(1.0, 0.5)


def test_limiter_compression_power_is_one_db_above_saturation():
    assert abs(limiter_compression_power(1.0) - 10**0.1) < 1e-15
    assert abs(limiter_compression_power(2.0) - 4 * 10**0.1) < 1e-14


def test_operating_point_threshold():
    # compression-referenced back-off of 1 dB and saturation-referenced 0 dB
    # both put the clip threshold exactly at the RMS amplitude
    assert abs(pa_compression(1.0).y - 1.0) < 1e-12
    assert abs(pa_limiter(0.0).y - 1.0) < 1e-15
    assert abs(pa_limiter(10.0).y - math.sqrt(10.0)) < 1e-12


def test_operating_point_rejects_alpha_above_one():
    with pytest.raises(ConfigError):
        pa_compression(0.5)
    with pytest.raises(ConfigError):
        pa_limiter(-1.0)


def test_pa_config_validation():
    with pytest.raises(ConfigError):
        PaConfig(v_sat=0.0, ibo=1.0)
    with pytest.raises(ConfigError):
        PaConfig(v_sat=1.0, ibo=0.0)


# ------------------------------------------------- Gaussian limiter moments

def test_kappa_gaussian_against_quadrature():
    for y in (0.3, 1.0, 2.0):
        assert abs(kappa_gaussian(y) - _kappa_quadrature(y)) < 1e-8


def test_kappa_gaussian_matches_scipy_erfc_formula():
    # math.erfc and scipy.special.erfc may differ in the last ulp
    for y in np.linspace(0.0, 4.0, 401):
        ref = 1.0 - math.exp(-y * y) + 0.5 * math.sqrt(math.pi) * y * scipy.special.erfc(y)
        assert abs(kappa_gaussian(float(y)) - ref) <= 2 * np.spacing(ref)


def test_kappa_gaussian_frozen_value_at_unit_threshold():
    assert abs(kappa_gaussian(1.0) - KAPPA_Y1) < 1e-14


def test_kappa_gaussian_limits():
    assert abs(kappa_gaussian(8.0) - 1.0) < 1e-12
    # deep clipping: min(r, y) ~ y, so kappa/y -> E[r] = sqrt(pi)/2
    assert abs(kappa_gaussian(1e-5) / 1e-5 - math.sqrt(math.pi) / 2) < 1e-6


def test_kappa_gaussian_monotone():
    grid = np.linspace(0.1, 3.0, 30)
    vals = [kappa_gaussian(y) for y in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_output_power_gaussian():
    assert abs(output_power_gaussian(1.0) - POWER_Y1) < 1e-15
    assert abs(output_power_gaussian(8.0) - 1.0) < 1e-12
    # residual distortion power shrinks as the threshold rises past its
    # peak (sigma_d^2 is hump-shaped with a maximum near y = 0.8)
    sig = [output_power_gaussian(y) - kappa_gaussian(y) ** 2 for y in (1, 1.5, 2, 2.5, 3)]
    assert all(b < a for a, b in zip(sig, sig[1:]))
    assert abs(sig[0] - SIGMA_D2_Y1) < 1e-14


# ----------------------------------------------------------- limiter action

def test_sel_amplify_linear_region_exact():
    cfg = pa_limiter(10.0)  # threshold sqrt(10), alpha = 1/sqrt(10)
    x = np.array([0.5 + 0.25j, -1.0j, 0.1])
    np.testing.assert_array_equal(sel_amplify(x, cfg), cfg.alpha * x)


def test_sel_amplify_clips_envelope_preserves_phase():
    cfg = PaConfig(v_sat=2.0, ibo=4.0)
    x = np.array([10.0 * np.exp(1j * 0.7), 5.0 * np.exp(-1j * 2.1)])
    out = sel_amplify(x, cfg)
    np.testing.assert_allclose(np.abs(out), 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.angle(out), np.angle(x), rtol=0, atol=1e-15)


def test_sel_amplify_idempotent_at_unit_operating_point():
    cfg = PaConfig(v_sat=1.0, ibo=1.0)
    rng = derive_rng(4, "pa")
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    once = sel_amplify(x, cfg)
    np.testing.assert_array_equal(sel_amplify(once, cfg), once)


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
               min_size=1, max_size=32),
    v_sat=st.floats(0.1, 3.0),
    drive=st.floats(1.0, 100.0),
)
def test_sel_amplify_bounds_envelope_and_keeps_gain_phase(x, v_sat, drive):
    cfg = PaConfig(v_sat=v_sat, ibo=drive * v_sat**2)
    x = np.asarray(x, dtype=complex)
    out = sel_amplify(x, cfg)
    linear = cfg.alpha * x
    assert np.all(np.abs(out) <= v_sat * (1 + 1e-14))
    kept = np.abs(linear) <= v_sat
    np.testing.assert_array_equal(out[kept], linear[kept])
    clipped = ~kept
    np.testing.assert_allclose(out[clipped] / np.abs(out[clipped]),
                               linear[clipped] / np.abs(linear[clipped]), rtol=0, atol=1e-12)


_SAMPLES = st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@settings(max_examples=300, deadline=None)
@given(x=_SAMPLES, v_sat=st.floats(0.1, 3.0))
def test_sel_amplify_idempotent_at_unit_gain_property(dtype, x, v_sat):
    cfg = PaConfig(v_sat=v_sat, ibo=v_sat**2)
    assert cfg.alpha == 1.0
    once = sel_amplify(np.asarray(x, dtype=dtype), cfg)
    assert once.dtype == dtype
    np.testing.assert_array_equal(sel_amplify(once, cfg), once)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@settings(max_examples=300, deadline=None)
@given(x=_SAMPLES, v_sat=st.floats(0.1, 3.0), drive=st.floats(1.0, 100.0))
def test_sel_amplify_exact_envelope_bound_and_phase_formula(dtype, x, v_sat, drive):
    cfg = PaConfig(v_sat=v_sat, ibo=drive * v_sat**2)
    x = np.asarray(x, dtype=dtype)
    out = sel_amplify(x, cfg)
    assert out.dtype == dtype
    # the bound holds in the output's own precision, against v_sat rounded to it
    assert np.all(np.abs(out) <= out.real.dtype.type(v_sat))
    # clipped samples lie a few ulps of the envelope from the phase formula:
    # each side rounds its magnitude and phase
    clipped = np.abs(cfg.alpha * x) > v_sat
    by_angle = cfg.v_sat * np.exp(1j * np.angle(x[clipped]))
    eps = np.finfo(out.real.dtype).eps
    assert np.all(np.abs(out[clipped] - by_angle) <= 4 * eps * v_sat)


@pytest.mark.parametrize("x, v_sat", [
    (np.array([1e300 + 3e299j, -2e305j, 7e307 - 7e307j]), 1.0),  # |a| near the top of float64
    (np.array([1.5e308 + 1.5e308j, -1.7e308]), 2.0),  # |a| overflows float64
    (np.array([1e37 - 2e36j, 3e38 + 3e38j], dtype=np.complex64), 1.0),  # overflows float32
    (np.array([1 + 1j, 3 - 0.1j, -2e-310 + 1e-311j]), 1e-310),  # subnormal envelope
])
def test_sel_amplify_guard_ends_on_extreme_magnitudes(x, v_sat):
    cfg = PaConfig(v_sat=v_sat, ibo=1.0, p1db=1.0)  # unit gain
    out = sel_amplify(x, cfg)
    assert out.dtype == x.dtype
    assert np.all(np.abs(out) <= out.real.dtype.type(v_sat))
    np.testing.assert_allclose(np.angle(out), np.angle(x), rtol=0, atol=1e-6)
    np.testing.assert_allclose(np.abs(out), v_sat, rtol=1e-6)


def test_sel_amplify_preserves_shape_and_input():
    cfg = pa_limiter(0.0)
    x = (derive_rng(5, "pa").standard_normal((3, 8)) + 0j) * 2
    x_orig = x.copy()
    out = sel_amplify(x, cfg)
    assert out.shape == x.shape
    np.testing.assert_array_equal(x, x_orig)


# ------------------------------------------------------ measured statistics

@pytest.fixture(scope="module")
def qam_ofdm_stats():
    cfg = pa_limiter(0.0)
    return estimate_bussgang(
        cfg,
        parse_basis("ofdm", 1024),
        parse_constellation("16-QAM"),
        400,
        derive_rng(21, "bussgang"),
    )


def test_estimate_bussgang_matches_gaussian_closed_forms(qam_ofdm_stats):
    st = qam_ofdm_stats
    assert abs(abs(st.kappa) - KAPPA_Y1) / KAPPA_Y1 < 0.005
    assert abs(st.sigma_d2 - SIGMA_D2_Y1) / SIGMA_D2_Y1 < 0.02
    assert abs(st.kappa.imag) < 1e-3
    assert pa_limiter(0.0).y == 1.0


def test_estimate_bussgang_linear_regime_recovers_scale():
    cfg = pa_limiter(10 * math.log10(64.0))  # threshold at 8 RMS: no clipping
    st = estimate_bussgang(
        cfg,
        parse_basis("ofdm", 256),
        parse_constellation("16-PSK"),
        50,
        derive_rng(22, "bussgang"),
    )
    assert abs(st.kappa - cfg.alpha) < 1e-6
    assert st.sigma_d2 < 1e-12


def test_distortion_orthogonal_to_input():
    # freeze kappa on one run, then check E[d x*] on fresh draws
    cfg = pa_limiter(0.0)
    basis = parse_basis("ofdm", 256)
    const = parse_constellation("16-QAM")
    kappa = estimate_bussgang(cfg, basis, const, 400, derive_rng(30, "bg")).kappa
    rng = derive_rng(31, "bg")
    sym = draw_symbols(const, (400, 256), rng)
    x = synthesize(basis, sym)
    d = sel_amplify(x, cfg) - kappa * x
    corr = np.vdot(x, d) / math.sqrt(
        np.sum(np.abs(x) ** 2) * np.sum(np.abs(d) ** 2)
    )
    assert abs(corr) < 0.01


def test_psk_and_qam_distortion_agree_at_deep_clipping():
    cfg = pa_compression(1.0)
    basis = parse_basis("ofdm", 1024)
    rng = derive_rng(33, "bg")
    out = {}
    for name in ("16-PSK", "16-QAM"):
        st = estimate_bussgang(cfg, basis, parse_constellation(name), 300, rng)
        out[name] = st.sigma_d2
    gap_db = abs(10 * math.log10(out["16-PSK"] / out["16-QAM"]))
    assert gap_db < 0.5


def test_distortion_power_falls_with_backoff():
    basis = parse_basis("ofdm", 1024)
    levels = []
    for ibo_db in (1.0, 4.0, 8.0):
        st = estimate_bussgang(
            pa_compression(ibo_db),
            basis,
            parse_constellation("16-QAM"),
            100,
            derive_rng(34, "bg", int(ibo_db)),
        )
        levels.append(st.sigma_d2)
    assert levels[0] > levels[1] > levels[2]


def test_bussgang_trend_in_threshold():
    # kappa up, distortion down, across five operating points
    basis = parse_basis("ofdm", 512)
    const = parse_constellation("16-QAM")
    kappas, sigmas = [], []
    for i, ibo_db in enumerate((0.0, 2.0, 4.0, 6.0, 8.0)):
        st = estimate_bussgang(
            pa_limiter(ibo_db), basis, const, 150, derive_rng(35, "bg", i)
        )
        kappas.append(abs(st.kappa) / pa_limiter(ibo_db).alpha)
        sigmas.append(st.sigma_d2)
    assert all(b > a for a, b in zip(kappas, kappas[1:]))
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def _replayed_bussgang(cfg, basis, const, trials, rng):
    """Two-pass oracle: kappa from a pass over every chunk, then each chunk
    redrawn from its stream's seed sequence and ``s - kappa x`` measured
    sample by sample.  Also counts the samples the limiter clipped."""
    chunks = chunk_seeds(rng, trials)

    def draw(rows, seed):
        r = np.random.Generator(type(rng.bit_generator)(seed))
        x = synthesize(basis, draw_symbols(const, (rows, basis.n), r))
        return x, sel_amplify(x, cfg)

    cross, power, clipped = 0j, 0.0, 0
    for rows, seed in chunks:
        x, s = draw(rows, seed)
        cross += complex(np.sum(np.conj(x) * s))
        power += float(np.sum(np.abs(x) ** 2))
        clipped += int(np.count_nonzero(np.abs(cfg.alpha * x) > cfg.v_sat))
    kappa = cross / power
    d2 = d4 = 0.0
    for rows, seed in chunks:
        x, s = draw(rows, seed)
        p = np.abs(s - kappa * x) ** 2
        d2 += float(np.sum(p))
        d4 += float(np.sum(p * p))
    return kappa, d2 / (trials * basis.n), d4 / (trials * basis.n), clipped


@pytest.mark.parametrize("n, trials", [(64, 150), (64, 4000), (256, 150), (1024, 150)])
@pytest.mark.parametrize("name", ["16-PSK", "16-QAM", "64-QAM"])
def test_one_pass_bussgang_matches_replayed_two_pass(n, trials, name):
    # 150 trials end in a ragged chunk, and at n = 1024 a chunk is two blocks;
    # the block moments shifted to the pooled kappa must give the replayed
    # residual sums to 1e-12.  At 10 dB a short run may clip no sample, and
    # its residual is rounding noise (see the test below)
    basis, const = parse_basis("ofdm", n), parse_constellation(name)
    for i, ibo_db in enumerate((0.0, 4.0, 10.0)):
        cfg = pa_limiter(ibo_db)
        st = estimate_bussgang(cfg, basis, const, trials, derive_rng(38, "bg", i))
        kappa, sigma_d2, d4, clipped = _replayed_bussgang(cfg, basis, const, trials,
                                                          derive_rng(38, "bg", i))
        assert abs(st.kappa - kappa) <= 1e-12 * abs(kappa)
        assert st.sigma_d2 >= 0.0 and st.d4 >= 0.0
        if clipped or ibo_db < 10.0:
            assert abs(st.sigma_d2 - sigma_d2) <= 1e-12 * sigma_d2
            assert abs(st.d4 - d4) <= 1e-12 * d4


@pytest.mark.parametrize("basis_name, name, ibo_db", [
    ("ofdm", "16-QAM", 40.0),  # threshold at 100 RMS, above any 64-sample peak
    ("sc", "16-PSK", 4.0),  # constant envelope under a threshold of 1.58 RMS
])
def test_one_pass_bussgang_without_clipping(basis_name, name, ibo_db):
    # the residual is rounding noise here, so only kappa is compared; the
    # shifted sums must stay non-negative and at rounding level
    cfg = pa_limiter(ibo_db)
    basis, const = parse_basis(basis_name, 64), parse_constellation(name)
    st = estimate_bussgang(cfg, basis, const, 150, derive_rng(39, "bg"))
    kappa, _, _, clipped = _replayed_bussgang(cfg, basis, const, 150, derive_rng(39, "bg"))
    assert clipped == 0
    assert abs(st.kappa - kappa) <= 1e-12 * abs(kappa)
    assert 0.0 <= st.sigma_d2 < 1e-24
    assert 0.0 <= st.d4 < 1e-48
    assert sdr(st.sigma_d2, cfg) > 1e20


def test_estimate_bussgang_memory_does_not_grow_with_trials():
    # one pass over 32-row blocks; the replay design peaked at 6.7 MB on its
    # 64-row chunk arrays, and a design that held chunks for a second pass
    # would grow with the trial count
    cfg, basis, const = pa_limiter(0.0), parse_basis("ofdm", 1024), parse_constellation("16-QAM")
    peaks = [traced_peak_bytes(estimate_bussgang, cfg, basis, const, trials, derive_rng(40, "bg"))
             for trials in (150, 1000)]
    assert peaks[1] < 3.5e6
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


# ------------------------------------------------------------------ ratios

def test_sdr_infinite_without_distortion():
    assert sdr(0.0, pa_limiter(10.0)) == math.inf


def test_sdr_rejects_negative_distortion():
    with pytest.raises(ConfigError):
        sdr(-1e-3, pa_limiter(0.0))


def test_sdr_two_way_identity(qam_ofdm_stats):
    cfg = pa_limiter(0.0)
    direct = sdr(qam_ofdm_stats.sigma_d2, cfg)
    via_p1db = cfg.p1db / (cfg.ibo * qam_ofdm_stats.sigma_d2)
    assert direct == pytest.approx(via_p1db, rel=1e-12)


def test_sdr_non_decreasing_in_backoff():
    basis = parse_basis("ofdm", 1024)
    const = parse_constellation("16-QAM")
    values = []
    for i, ibo_db in enumerate(np.arange(0.0, 10.5, 2.5)):
        cfg = pa_limiter(float(ibo_db))
        st = estimate_bussgang(cfg, basis, const, 150, derive_rng(36, "bg", i))
        values.append(sdr(st.sigma_d2, cfg))
    for a, b in zip(values, values[1:]):
        assert b > 0.98 * a


def test_snr_eff_examples():
    assert snr_eff(5.0, math.inf) == 5.0
    s = 17.3
    assert abs(snr_eff(1e6 * s, s) - s) / s < 1e-5
    assert snr_eff(s, s) == pytest.approx(s / 2, rel=1e-14)


def test_snr_eff_bounded_by_both_branches():
    for snr0, s in [(3.0, 40.0), (40.0, 3.0), (10.0, 10.0)]:
        assert snr_eff(snr0, s) <= min(snr0, s)


def test_snr_eff_validation():
    with pytest.raises(ConfigError):
        snr_eff(-1.0, 10.0)
    with pytest.raises(ConfigError):
        snr_eff(10.0, -1.0)

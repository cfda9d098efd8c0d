import numpy as np
import pytest

from isacsim import (
    ChannelConfig,
    ConfigError,
    NumericError,
    Target,
    add_cp,
    analyze,
    apply_channel,
    division_filter,
    draw_symbols,
    parse_basis,
    parse_constellation,
    periodogram,
    snr_per,
    synthesize,
)
from isacsim.radar import range_cut
from isacsim.seeding import derive_rng

from conftest import pa_compression


def _tx(n=8, m=4, cp_len=2, const="16-QAM", seed=90):
    basis = parse_basis("ofdm", n)
    spec = parse_constellation(const)
    sym = draw_symbols(spec, (m, n), derive_rng(seed, "rad"))
    payload = synthesize(basis, sym)
    return add_cp(payload, cp_len), sym, basis


def test_division_filter_identity():
    frame, sym, _ = _tx()
    hhat = division_filter(frame, sym, 2)
    np.testing.assert_allclose(hhat, np.ones((8, 4)), atol=1e-12)
    assert hhat.shape == (8, 4)  # subcarriers by symbols


def test_division_filter_delay_ramp():
    frame, sym, _ = _tx(cp_len=3)
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=2, doppler=0.0),), noise_var=0.0)
    rx = apply_channel(frame, cfg, 8, derive_rng(0, "rad"))
    hhat = division_filter(rx, sym, 3)
    k = np.arange(8)
    ramp = np.exp(-2j * np.pi * k * 2 / 8)
    np.testing.assert_allclose(hhat, ramp[:, None] * np.ones((1, 4)), atol=1e-10)


def test_division_filter_componentwise_oracle():
    # build s = b * (circshift(x) + d) by hand; the ratio spectrum must be
    # b * ramp_k + b * D(k)/X(k) with the subcarrier-domain distortion D
    frame, sym, basis = _tx(n=16, m=2, cp_len=4, seed=91)
    rng = derive_rng(92, "rad")
    d = 0.01 * (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
    payload = frame[:, 4:]
    b, lag = 0.7 - 0.4j, 3
    shifted = np.stack([np.roll(p + d[i], lag) for i, p in enumerate(payload)])
    rx = add_cp(b * shifted, 4)
    hhat = division_filter(rx, sym, 4)
    ramp = np.exp(-2j * np.pi * np.arange(16) * lag / 16)
    dtilde = analyze(basis, d)
    expected = b * ramp[:, None] * (1 + dtilde / sym).T
    np.testing.assert_allclose(hhat, expected, atol=1e-10)


def test_division_filter_validation():
    frame, sym, _ = _tx()
    with pytest.raises(ConfigError):
        division_filter(frame, sym[:, :4], 2)
    zero_sym = sym.copy()
    zero_sym[0, 0] = 0.0
    with pytest.raises(NumericError):
        division_filter(frame, zero_sym, 2)


def test_periodogram_all_ones_peak():
    n, m = 8, 4
    hhat = np.ones((n, m), dtype=complex)
    per = periodogram(hhat)
    peak = per.values[0, per.doppler_bins.tolist().index(0)]
    assert peak == pytest.approx(n * m, rel=1e-12)
    rest = per.values.copy()
    rest[0, per.doppler_bins.tolist().index(0)] = 0.0
    assert np.max(rest) < 1e-12
    assert per.values.shape == (n, m)
    np.testing.assert_array_equal(per.delay_bins, np.arange(n))


def test_periodogram_localizes_delay_and_doppler():
    n, m, cp = 16, 8, 4
    frame, sym, _ = _tx(n=n, m=m, cp_len=cp, seed=93)
    block = n + cp
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=3, doppler=0.0),), noise_var=0.0)
    rx = apply_channel(frame, cfg, n, derive_rng(0, "rad"))
    per = periodogram(division_filter(rx, sym, cp))
    idx = np.unravel_index(np.argmax(per.values), per.values.shape)
    assert per.delay_bins[idx[0]] == 3
    assert per.doppler_bins[idx[1]] == 0
    # integer Doppler bin: one cycle across the frame corresponds to
    # doppler = k / (block/n * m) in subcarrier-spacing units
    k_bin = 2
    dop = k_bin * n / (block * m)
    cfg2 = ChannelConfig(targets=(Target(b=1.0, delay=0, doppler=dop),), noise_var=0.0)
    rx2 = apply_channel(frame, cfg2, n, derive_rng(0, "rad"))
    per2 = periodogram(division_filter(rx2, sym, cp))
    idx2 = np.unravel_index(np.argmax(per2.values), per2.values.shape)
    assert per2.delay_bins[idx2[0]] == 0
    assert per2.doppler_bins[idx2[1]] == k_bin


def test_periodogram_zero_padding_scales_delay_bin():
    n, m = 16, 4
    frame, sym, _ = _tx(n=n, m=m, cp_len=4, seed=94)
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=2, doppler=0.0),), noise_var=0.0)
    rx = apply_channel(frame, cfg, n, derive_rng(0, "rad"))
    per = periodogram(division_filter(rx, sym, 4), n_per=4 * n)
    idx = np.unravel_index(np.argmax(per.values), per.values.shape)
    assert per.delay_bins[idx[0]] == 8
    assert per.values.shape == (64, 4)


def test_range_cut_is_zero_doppler_column():
    rng = derive_rng(98, "rad")
    hhat = rng.standard_normal((3, 16, 5)) + 1j * rng.standard_normal((3, 16, 5))
    for n_per in (16, 64):
        cuts = range_cut(hhat, n_per)
        assert cuts.shape == (3, n_per)
        for i in range(3):
            per = periodogram(hhat[i], n_per=n_per)
            column = per.values[:, per.doppler_bins.tolist().index(0)]
            np.testing.assert_allclose(cuts[i], column, rtol=1e-12)
    # a delay grid shorter than the subcarrier count would truncate the cut
    with pytest.raises(ConfigError):
        range_cut(hhat, 8)


def test_periodogram_validation():
    hhat = np.ones((8, 4), dtype=complex)
    with pytest.raises(ConfigError):
        periodogram(hhat, n_per=4)
    with pytest.raises(ConfigError):
        periodogram(hhat, m_per=2)


def test_two_target_power_ratio():
    n, m, cp = 32, 30, 8
    basis = parse_basis("ofdm", n)
    spec = parse_constellation("16-QAM")
    b_weak = 10 ** (-10 / 20)  # 10 dB below the strong return
    cfg = ChannelConfig(
        targets=(
            Target(b=1.0, delay=2, doppler=0.0),
            Target(b=b_weak, delay=6, doppler=0.0),
        ),
        noise_var=10 ** (-20 / 10),
    )
    rng = derive_rng(95, "rad")
    acc = np.zeros((n, m))
    for _ in range(30):
        sym = draw_symbols(spec, (m, n), rng)
        rx = apply_channel(add_cp(synthesize(basis, sym), cp), cfg, n, rng)
        acc += periodogram(division_filter(rx, sym, cp)).values
    acc /= 30
    cut = acc[:, np.argmax(acc.sum(axis=0))]  # zero-Doppler column holds both
    ratio_db = 10 * np.log10(cut[2] / cut[6])
    assert abs(ratio_db - 10.0) < 0.5


def test_snr_per_values():
    assert snr_per(1.0, 64, 64) == pytest.approx(36.12359947967774, abs=1e-12)
    assert snr_per(1.0, 1, 1) == 0.0
    assert snr_per(1.0, 2, 1) - snr_per(1.0, 1, 1) == pytest.approx(
        10 * np.log10(2), abs=1e-12
    )
    with pytest.raises(ConfigError):
        snr_per(0.0, 8, 8)
    with pytest.raises(ConfigError):
        snr_per(1.0, 0, 8)


def test_clipping_raises_periodogram_floor():
    n, m, cp = 64, 8, 16
    basis = parse_basis("ofdm", n)
    spec = parse_constellation("16-PSK")
    pa = pa_compression(1.0)
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=4, doppler=0.0),), noise_var=0.0)
    rng = derive_rng(96, "rad")
    floors = {}
    for label, amplify in (("linear", False), ("clipped", True)):
        acc = np.zeros((n, m))
        for _ in range(10):
            sym = draw_symbols(spec, (m, n), rng)
            payload = synthesize(basis, sym)
            if amplify:
                from isacsim import sel_amplify

                payload = sel_amplify(payload, pa)
            rx = apply_channel(add_cp(payload, cp), cfg, n, rng)
            acc += periodogram(division_filter(rx, sym, cp)).values
        cut = acc[:, m // 2] / 10  # zero-Doppler column after centering
        floors[label] = np.median(np.delete(cut, 4))
    assert floors["clipped"] > 100 * floors["linear"]


def test_division_noise_enhancement_by_constellation():
    # noise-only frames: the ratio spectrum inflates noise by E[1/|X|^2],
    # about 1.89 for 16-QAM and exactly 1 for any PSK
    n, m = 64, 16
    noise_var = 0.01
    rng = derive_rng(97, "rad")
    out = {}
    for cname in ("16-QAM", "16-PSK"):
        spec = parse_constellation(cname)
        gain = []
        for _ in range(60):
            sym = draw_symbols(spec, (m, n), rng)
            noise = np.sqrt(noise_var / 2) * (
                rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            )
            hhat = division_filter(noise, sym, 0)
            gain.append(np.mean(np.abs(hhat) ** 2) / noise_var)
        out[cname] = float(np.mean(gain))
    assert 1.7 < out["16-QAM"] < 2.1
    assert abs(out["16-PSK"] - 1.0) < 0.03

import math

import numpy as np
import pytest

from isacsim import (
    CfarConfig,
    ConfigError,
    FrameConfig,
    Target,
    calibrate_cfar,
    draw_symbols,
    parse_basis,
    parse_constellation,
    pd_experiment,
    so_cfar,
)
from isacsim.detect import (
    PdPipeline,
    noise_only_false_alarm_rate,
    sense,
    wilson_halfwidth,
)
from isacsim.seeding import derive_rng

from conftest import pa_compression

FROZEN_FACTOR = 13.078164525370887


@pytest.fixture(scope="module")
def cal_factor():
    return calibrate_cfar(CfarConfig(), 4_000_000, derive_rng(7, "cal"))


def _pipeline(cname, factor, linear=False, dl=False):
    return PdPipeline(
        constellation=parse_constellation(cname),
        basis=parse_basis("ofdm", 64),
        frame=FrameConfig(n=64, m=3, cp_len=16),
        pa=pa_compression(1.0),
        cfar=CfarConfig(factor=factor),
        targets=(
            Target(b=1.0, delay=4, doppler=0.0),
            Target(b=0.1, delay=8, doppler=0.0),
        ),
        weak_bin=8,
        linear=linear,
        distortion_limited=dl,
    )


# ------------------------------------------------------------------ so-cfar

def test_flat_cut_raises_no_alarms(cal_factor):
    cfg = CfarConfig(factor=cal_factor)
    assert len(so_cfar(np.ones(64), cfg).detected_bins) == 0


def test_spike_detected_at_its_bin(cal_factor):
    cut = np.ones(64)
    cut[32] = 100.0
    report = so_cfar(cut, CfarConfig(factor=cal_factor))
    assert list(report.detected_bins) == [32]
    assert report.thresholds.shape == (64,)
    assert report.decisions[32]
    assert report.decisions.sum() == 1


def test_edge_spike_uses_single_sided_window(cal_factor):
    cut = np.ones(64)
    cut[3] = 100.0
    assert list(so_cfar(cut, CfarConfig(factor=cal_factor)).detected_bins) == [3]


def test_cut_length_bound(cal_factor):
    cfg = CfarConfig(factor=cal_factor)  # needs 2*(16+2)+1 = 37 < len
    with pytest.raises(ConfigError):
        so_cfar(np.ones(37), cfg)
    assert len(so_cfar(np.ones(38), cfg).detected_bins) == 0


def test_so_cfar_requires_factor_and_1d():
    with pytest.raises(ConfigError):
        so_cfar(np.ones(64), CfarConfig())
    with pytest.raises(ConfigError):
        so_cfar(np.ones((8, 8)), CfarConfig(factor=10.0))


def test_cfar_config_validation():
    with pytest.raises(ConfigError):
        CfarConfig(window=0)
    with pytest.raises(ConfigError):
        CfarConfig(guard=-1)
    with pytest.raises(ConfigError):
        CfarConfig(p_fa=0.0)
    with pytest.raises(ConfigError):
        CfarConfig(p_fa=1.0)
    with pytest.raises(ConfigError):
        CfarConfig(factor=0.0)


# -------------------------------------------------------------- calibration

def test_calibration_regression_and_determinism(cal_factor):
    assert cal_factor == FROZEN_FACTOR
    again = calibrate_cfar(CfarConfig(), 4_000_000, derive_rng(7, "cal"))
    assert again == cal_factor


def test_calibration_cross_seed_stability(cal_factor):
    other = calibrate_cfar(CfarConfig(), 4_000_000, derive_rng(8, "cal"))
    assert abs(other - cal_factor) / cal_factor < 0.02


def test_calibration_factor_monotone_in_target_rate():
    loose = calibrate_cfar(CfarConfig(p_fa=1e-3), 1_000_000, derive_rng(9, "cal"))
    tight = calibrate_cfar(CfarConfig(p_fa=1e-4), 1_000_000, derive_rng(9, "cal"))
    assert tight > loose


def test_calibration_order_unity_at_even_odds():
    f = calibrate_cfar(CfarConfig(p_fa=0.5), 10_000, derive_rng(10, "cal"))
    assert 0.2 < f < 3.0


def test_calibration_validation():
    with pytest.raises(ConfigError):
        calibrate_cfar(CfarConfig(), 100_000, derive_rng(0, "cal"))  # too few tails
    with pytest.raises(ConfigError):
        calibrate_cfar(CfarConfig(p_fa=0.5), 10_000, derive_rng(0, "cal"), noise_model="gaussian")
    with pytest.raises(ConfigError):
        calibrate_cfar(CfarConfig(p_fa=0.5), 10_000, derive_rng(0, "cal"), cut_len=16)


def test_calibrated_threshold_honest_on_fresh_noise(cal_factor):
    # 2443 cuts of 4096 cells = 1e7 cells
    rng = derive_rng(100, "det")
    cfg = CfarConfig(factor=cal_factor)
    cells = 0
    alarms = 0
    for _ in range(2443):
        cut = rng.exponential(1.0, 4096)
        alarms += len(so_cfar(cut, cfg).detected_bins)
        cells += 4096
    rate = alarms / cells
    assert 0.5e-4 < rate < 2e-4


# ------------------------------------------------------------ wilson bounds

def test_wilson_halfwidth_closed_form():
    z = 1.959963984540054
    for s, t in [(5, 10), (0, 100), (100, 100), (37, 400)]:
        p = s / t
        expected = (
            z * math.sqrt(p * (1 - p) / t + z * z / (4 * t * t)) / (1 + z * z / t)
        )
        assert wilson_halfwidth(s, t) == pytest.approx(expected, rel=1e-12)


def test_wilson_halfwidth_validation():
    with pytest.raises(ConfigError):
        wilson_halfwidth(0, 0)


# ------------------------------------------------------- detection pipeline

def test_pipeline_requires_calibrated_factor():
    with pytest.raises(ConfigError):
        pd_experiment(
            _pipeline("16-PSK", None, linear=True), [10.0], 10, derive_rng(0, "det")
        )


def test_pipeline_requires_target_at_weak_bin(cal_factor):
    p = PdPipeline(
        constellation=parse_constellation("16-PSK"),
        basis=parse_basis("ofdm", 64),
        frame=FrameConfig(n=64, m=3, cp_len=16),
        pa=pa_compression(1.0),
        cfar=CfarConfig(factor=cal_factor),
        targets=(Target(b=1.0, delay=4, doppler=0.0),),
        weak_bin=8,
        linear=True,
    )
    with pytest.raises(ConfigError):
        pd_experiment(p, [10.0], 10, derive_rng(0, "det"))


@pytest.mark.parametrize("linear", [True, False])
def test_sense_batch_matches_frame_loop(linear):
    # one call over a (batch, m, n) symbol stack equals a loop over its frames
    pipe = _pipeline("16-QAM", None, linear=linear, dl=True)
    sym = draw_symbols(pipe.constellation, (4, 3, 64), derive_rng(102, "det"))
    batch = sense(pipe, sym, 1.0, derive_rng(103, "det"), pipe.targets)
    loop = np.stack(
        [sense(pipe, s, 1.0, derive_rng(0, "det"), pipe.targets) for s in sym]
    )
    assert batch.shape == (4, 64, 3)
    np.testing.assert_allclose(batch, loop, atol=1e-12)


def test_linear_high_snr_detects_always(cal_factor):
    curve = pd_experiment(
        _pipeline("16-PSK", cal_factor, linear=True), [25.0], 200, derive_rng(101, "det")
    )
    assert curve.pd[0] == 1.0
    assert curve.trials == 200
    np.testing.assert_array_equal(curve.snr_db, [25.0])


def test_distortion_limited_ceilings_order_and_flatness(cal_factor):
    pds = {}
    for cname in ("16-PSK", "16-QAM", "64-QAM"):
        curve = pd_experiment(
            _pipeline(cname, cal_factor, dl=True), [10.0, 20.0], 1000, derive_rng(102, "det")
        )
        pds[cname] = curve
        # noise-free: the ceiling is already reached, so the curve is flat
        assert abs(curve.pd[0] - curve.pd[1]) <= curve.ci_halfwidth.max() * 2
    assert pds["16-PSK"].pd[0] > 0.97
    assert pds["16-QAM"].pd[0] < 1.0 - 2 * pds["16-QAM"].ci_halfwidth[0]
    assert pds["64-QAM"].pd[0] < 1.0 - 2 * pds["64-QAM"].ci_halfwidth[0]
    assert (
        pds["16-PSK"].pd[0] - pds["16-QAM"].pd[0]
        > pds["16-PSK"].ci_halfwidth[0] + pds["16-QAM"].ci_halfwidth[0]
    )
    assert (
        pds["16-QAM"].pd[0] - pds["64-QAM"].pd[0]
        > pds["16-QAM"].ci_halfwidth[0] + pds["64-QAM"].ci_halfwidth[0]
    )


def test_linear_dominates_nonlinear(cal_factor):
    lin = pd_experiment(
        _pipeline("16-QAM", cal_factor, linear=True), [10.0, 14.0], 800, derive_rng(104, "det")
    )
    nl = pd_experiment(_pipeline("16-QAM", cal_factor), [10.0, 14.0], 800, derive_rng(105, "det"))
    se = np.sqrt(lin.pd * (1 - lin.pd) / 800) + np.sqrt(nl.pd * (1 - nl.pd) / 800)
    assert np.all(lin.pd - nl.pd >= -2 * se)


def test_crossover_between_linear_qam_and_clipped_psk(cal_factor):
    grid = [7.0, 8.0, 10.0, 12.0, 13.0]
    lq = pd_experiment(
        _pipeline("16-QAM", cal_factor, linear=True), grid, 600, derive_rng(106, "det")
    )
    npsk = pd_experiment(_pipeline("16-PSK", cal_factor), grid, 600, derive_rng(107, "det"))
    diff = lq.pd - npsk.pd
    se = np.sqrt(lq.pd * (1 - lq.pd) / 600) + np.sqrt(npsk.pd * (1 - npsk.pd) / 600)
    separated = diff > np.maximum(2 * se, 0.05)
    tied = ~separated
    crossover = [
        i for i in range(1, len(grid)) if separated[i] and tied[:i].any()
    ]
    assert crossover, f"no crossover on {grid}: diff={diff}, se={se}"


def test_noise_only_rate_matches_design_level(cal_factor):
    rate = noise_only_false_alarm_rate(
        _pipeline("16-PSK", cal_factor, linear=True), 10.0, 6000, derive_rng(103, "det")
    )
    assert 1e-4 / 3 < rate < 3 * 1e-4


def test_noise_only_requires_factor():
    with pytest.raises(ConfigError):
        noise_only_false_alarm_rate(
            _pipeline("16-PSK", None, linear=True), 10.0, 100, derive_rng(0, "det")
        )

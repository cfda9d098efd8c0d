import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import (
    CfarConfig,
    ChannelConfig,
    ConfigError,
    FrameConfig,
    Target,
    add_cp,
    apply_channel,
    calibrate_cfar,
    division_filter,
    draw_symbols,
    parse_basis,
    parse_constellation,
    pd_experiment,
    sel_amplify,
    so_cfar,
    synthesize,
)
from isacsim import detect
from isacsim.detect import (
    PdPipeline,
    _noise_levels,
    noise_only_false_alarm_rate,
    sense,
    wilson_halfwidth,
)
from isacsim.experiments import DEFAULT_TARGETS
from isacsim.seeding import derive_rng

from conftest import pa_compression, traced_peak_bytes

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


def _noise_levels_loop(cut, window, guard):
    """Per-cell smallest-of noise level, one training window at a time."""
    length = len(cut)
    out = np.full(length, np.inf)
    for i in range(length):
        if i - guard - window >= 0:
            out[i] = cut[i - guard - window:i - guard].mean()
        if i + guard + window < length:
            out[i] = min(out[i], cut[i + guard + 1:i + guard + 1 + window].mean())
    return out


@settings(max_examples=100, deadline=None)
@given(
    window=st.integers(1, 20),
    guard=st.integers(0, 8),
    extra=st.integers(0, 40),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_levels_match_per_cell_loop(window, guard, extra, batch, seed):
    length = 2 * (window + guard) + 2 + extra
    cuts = np.random.default_rng(seed).exponential(size=(*batch, length))
    got = _noise_levels(cuts, window, guard)
    assert got.shape == cuts.shape
    for idx in np.ndindex(*batch):
        # each running sum is off by at most length * eps * (sum of the cut)
        atol = 2 * length * np.finfo(float).eps * cuts[idx].sum()
        np.testing.assert_allclose(got[idx], _noise_levels_loop(cuts[idx], window, guard),
                                   rtol=0, atol=atol)


@pytest.mark.parametrize("window,guard", [(1, 0), (16, 2), (5, 7)])
def test_noise_levels_equal_the_inf_fill_formula(window, guard):
    # the level before the edge cells were written straight from the window
    # means: an inf fill, the lead means, then the minimum with the lag means
    rng = np.random.default_rng(window * 100 + guard)
    for length in (2 * (window + guard) + 2, 64, 131):
        cuts = rng.exponential(size=(4, 3, length))
        cs = np.zeros(cuts.shape[:-1] + (length + 1,))
        np.cumsum(cuts, axis=-1, out=cs[..., 1:])
        means = (cs[..., window:] - cs[..., :-window]) / window
        reach = guard + window
        want = np.full(cuts.shape, np.inf)
        want[..., reach:] = means[..., :length - reach]
        want[..., :length - reach] = np.minimum(want[..., :length - reach],
                                                means[..., guard + 1:])
        assert np.array_equal(_noise_levels(cuts, window, guard), want)


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


def test_calibration_blocks_match_single_block():
    # the order statistic of the streamed candidates equals that of all the
    # ratios drawn at once: with a ragged last block (1e5 cells), with more
    # candidates than a block holds (P_fa 0.5 keeps 500,001 ratios), and with
    # a tail compacted six times over 62 blocks (4e6 cells at 1e-4)
    cut_len = 64
    batch = detect._CAL_BLOCK_CELLS // cut_len
    for cfg, trials, seed in ((CfarConfig(p_fa=1e-3), 100_000, 11),
                              (CfarConfig(p_fa=0.5), 1_000_000, 12),
                              (CfarConfig(), 4_000_000, 13)):
        rows = math.ceil(trials / cut_len)
        assert rows % batch != 0  # last block is ragged
        factor = calibrate_cfar(cfg, trials, derive_rng(seed, "cal"))
        cells = derive_rng(seed, "cal").exponential(1.0, size=(rows, cut_len))
        ratios = np.sort((cells / detect._noise_levels(cells, cfg.window, cfg.guard)).ravel())
        total = ratios.size
        allowed = max(a for a in range(total + 1) if a / total <= cfg.p_fa)
        assert factor == ratios[total - allowed - 1]


def test_blockwise_standard_exponential_equals_one_exponential_draw():
    # calibrate_cfar refills one block with standard_exponential(out=); the
    # cells must be the draws of a single exponential(1.0, size) call
    rows, cut_len = 2500, 64
    expected = derive_rng(14, "cal").exponential(1.0, size=(rows, cut_len))
    rng = derive_rng(14, "cal")
    block = np.empty((detect._CAL_BLOCK_CELLS // cut_len, cut_len))
    assert rows > len(block) and rows % len(block) != 0  # last block is ragged
    got = [rng.standard_exponential(out=block[:min(len(block), rows - start)]).copy()
           for start in range(0, rows, len(block))]
    np.testing.assert_array_equal(np.concatenate(got), expected)


def test_calibration_memory_does_not_grow_with_cells():
    # holding every ratio of 4e6 cells takes 32 MB; the streamed calibration
    # keeps one 65,536-cell block and the 401 largest ratios
    peak = traced_peak_bytes(calibrate_cfar, CfarConfig(), 4_000_000, derive_rng(7, "cal"))
    assert peak < 4e6


def test_calibration_order_unity_at_even_odds():
    f = calibrate_cfar(CfarConfig(p_fa=0.5), 10_000, derive_rng(10, "cal"))
    assert 0.2 < f < 3.0


def test_calibration_validation():
    with pytest.raises(ConfigError):
        calibrate_cfar(CfarConfig(), 100_000, derive_rng(0, "cal"))  # too few tails
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
        linear=True,
    )
    with pytest.raises(ConfigError):
        pd_experiment(p, [10.0], 10, derive_rng(0, "det"))


@pytest.mark.parametrize("linear", [True, False])
def test_sense_batch_matches_frame_loop(linear):
    # one call over a (batch, m, n) symbol stack equals a loop over its frames
    pipe = _pipeline("16-QAM", None, linear=linear, dl=True)
    sym = draw_symbols(pipe.constellation, (4, 3, 64), derive_rng(102, "det"))
    batch = sense(pipe, sym, 1.0, derive_rng(103, "det"))
    loop = np.stack([sense(pipe, s, 1.0, derive_rng(0, "det")) for s in sym])
    assert batch.shape == (4, 64, 3)
    np.testing.assert_allclose(batch, loop, atol=1e-12)


# the chain is OFDM-only; test_pipeline_rejects_a_basis_that_is_not_ofdm
# checks that other bases are rejected
@pytest.mark.parametrize("basis", ["ofdm"])
@pytest.mark.parametrize("linear", [True, False])
def test_sense_equals_the_public_layer_chain(basis, linear):
    # the buffered chain gives the bits of the public functions it replaces,
    # with noise and a second, Doppler-shifted target writing its echo
    pipe = replace(_pipeline("16-QAM", None, linear=linear), basis=parse_basis(basis, 64),
                   targets=(Target(b=1.0, delay=4), Target(b=0.3, delay=8, doppler=0.2)))
    sym = draw_symbols(pipe.constellation, (5, 3, 64), derive_rng(104, "det"))
    snr = 10.0
    x = synthesize(pipe.basis, sym)
    pa = pipe.pa
    tx = pa.g * pa.alpha * x if linear else sel_amplify(x, pa)
    chan = ChannelConfig(targets=pipe.targets, noise_var=abs(pa.g) ** 2 * pa.alpha**2 / snr)
    rx = apply_channel(add_cp(tx, 16), chan, 64, derive_rng(105, "det"))
    want = division_filter(rx, sym, 16)
    got = sense(pipe, sym, snr, derive_rng(105, "det"))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    with pytest.raises(ConfigError, match="symbol length"):
        sense(pipe, sym[..., :32], snr, derive_rng(105, "det"))


@pytest.mark.parametrize("basis", ["sc", "cdma"])
def test_pipeline_rejects_a_basis_that_is_not_ofdm(basis):
    # the division filter undoes the channel only for OFDM frames
    with pytest.raises(ConfigError, match="OFDM"):
        replace(_pipeline("16-QAM", None), basis=parse_basis(basis, 64))


def test_pipeline_rejects_a_basis_size_other_than_the_frame():
    with pytest.raises(ConfigError, match="n=64, got ofdm of n=32"):
        replace(_pipeline("16-QAM", None), basis=parse_basis("ofdm", 32))


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


def test_noise_only_rate_ignores_the_pipeline_targets(cal_factor):
    # 120 trials run as chunks of 50, 50 and 20
    pipe = _pipeline("16-QAM", cal_factor)
    rates = [
        noise_only_false_alarm_rate(replace(pipe, targets=targets), 10.0, 120,
                                    derive_rng(8, "det"), workers=w)
        for w in (1, 2) for targets in (DEFAULT_TARGETS, ())
    ]
    assert rates[0] > 0
    assert rates == [rates[0]] * 4


def test_noise_only_requires_factor():
    with pytest.raises(ConfigError):
        noise_only_false_alarm_rate(
            _pipeline("16-PSK", None, linear=True), 10.0, 100, derive_rng(0, "det")
        )


# ----------------------------------------------------------------- fan-out

def test_pd_curve_starts_one_pool(cal_factor, monkeypatch):
    starts = []

    def counting_pool(*args, **kwargs):
        starts.append(kwargs)
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(detect, "ProcessPoolExecutor", counting_pool)
    pd_experiment(_pipeline("16-PSK", cal_factor), [0.0, 10.0, 20.0], 60,
                  derive_rng(5, "det"), workers=2)
    assert len(starts) == 1


def test_pd_curves_equal_separate_pd_experiments(cal_factor):
    # two jobs of different pipelines, grid sizes and streams; 70 trials run as
    # chunks of 50 and 20, so a count credited to the wrong point or job shows
    def jobs():
        return [
            (_pipeline("16-QAM", cal_factor), [10.0, 15.0, 20.0], derive_rng(9, "det", 0)),
            (_pipeline("16-PSK", cal_factor, linear=True), [6.0, 9.0], derive_rng(9, "det", 1)),
        ]

    expected = [pd_experiment(p, grid, 70, r) for p, grid, r in jobs()]
    assert len({*expected[0].pd, *expected[1].pd}) >= 4
    for workers in (1, 2):
        curves = detect.pd_curves(jobs(), 70, workers)
        assert len(curves) == 2
        for got, want in zip(curves, expected):
            assert np.array_equal(got.snr_db, want.snr_db)
            assert np.array_equal(got.pd, want.pd)
            assert np.array_equal(got.ci_halfwidth, want.ci_halfwidth)
            assert got.trials == want.trials == 70


def test_one_pd_curves_call_equals_each_job_alone(cal_factor):
    # the buffer shapes change from job to job: small, larger (longer frames,
    # a finer range grid, a Doppler target), small and larger again; 123
    # trials run as chunks of 50, 50 and a ragged 23
    fine = replace(_pipeline("16-PSK", cal_factor, linear=True),
                   frame=FrameConfig(n=64, m=4, cp_len=16), n_per=128,
                   targets=(Target(b=1.0, delay=4, doppler=0.3), Target(b=0.1, delay=8)))
    pipes = [
        _pipeline("16-QAM", cal_factor),
        fine,
        _pipeline("16-QAM", cal_factor, dl=True),
        replace(fine, constellation=parse_constellation("16-QAM"), linear=False),
    ]
    grids = [[8.0, 14.0], [4.0, 8.0], [10.0], [6.0, 12.0]]

    def jobs():
        return [(p, g, derive_rng(11, "det", i)) for i, (p, g) in enumerate(zip(pipes, grids))]

    alone = [pd_experiment(p, g, 123, r) for p, g, r in jobs()]
    assert len({pd for curve in alone for pd in curve.pd}) >= 5
    for workers in (1, 2):
        for got, want in zip(detect.pd_curves(jobs(), 123, workers), alone, strict=True):
            assert np.array_equal(got.snr_db, want.snr_db)
            assert np.array_equal(got.pd, want.pd)
            assert np.array_equal(got.ci_halfwidth, want.ci_halfwidth)
    rates = [noise_only_false_alarm_rate(fine, 0.0, 123, derive_rng(12, "det"), workers=w)
             for w in (1, 2)]
    assert rates[0] > 0
    assert rates[0] == rates[1]


def test_chunk_args_carry_seed_sequences_not_generators(cal_factor):
    # 120 trials run as chunks of 50, 50 and 20; each chunk builds its own
    # generator, which must draw the stream ``rng.spawn`` would have given it
    args = detect._chunk_args(_pipeline("16-QAM", cal_factor), 10.0, 120, derive_rng(6, "det"))
    assert len(args) == 3
    assert not any(isinstance(a, np.random.Generator) for chunk in args for a in chunk)
    for (*_, bit_generator, seed), want in zip(args, derive_rng(6, "det").spawn(3)):
        assert isinstance(seed, np.random.SeedSequence)
        got = np.random.Generator(bit_generator(seed))
        assert np.array_equal(got.standard_normal(16), want.standard_normal(16))


def test_results_do_not_depend_on_workers(cal_factor):
    # 120 trials run as chunks of 50, 50 and 20
    pipe = _pipeline("16-QAM", cal_factor)
    curves = [
        pd_experiment(pipe, [10.0, 15.0, 20.0], 120, derive_rng(6, "det"), workers=w)
        for w in (1, 2)
    ]
    assert len(set(curves[0].pd)) == 3
    assert np.array_equal(curves[0].pd, curves[1].pd)
    assert np.array_equal(curves[0].ci_halfwidth, curves[1].ci_halfwidth)
    rates = [
        noise_only_false_alarm_rate(pipe, 10.0, 120, derive_rng(8, "det"), workers=w)
        for w in (1, 2)
    ]
    assert rates[0] > 0
    assert rates[0] == rates[1]


def test_zero_trials_rejected(cal_factor):
    pipe = _pipeline("16-PSK", cal_factor)
    with pytest.raises(ConfigError):
        pd_experiment(pipe, [10.0], 0, derive_rng(0, "det"))
    with pytest.raises(ConfigError):
        noise_only_false_alarm_rate(pipe, 10.0, 0, derive_rng(0, "det"))


@pytest.mark.parametrize("workers", [0, -3])
def test_bad_worker_count_rejected(cal_factor, workers):
    pipe = _pipeline("16-PSK", cal_factor)
    with pytest.raises(ConfigError):
        pd_experiment(pipe, [10.0], 10, derive_rng(0, "det"), workers=workers)
    with pytest.raises(ConfigError):
        noise_only_false_alarm_rate(pipe, 10.0, 10, derive_rng(0, "det"), workers=workers)

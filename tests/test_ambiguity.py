import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import (
    ConfigError,
    aaf,
    average_af,
    draw_symbols,
    paf,
    parse_basis,
    parse_constellation,
    sidelobe_metrics,
    synthesize,
    to_db,
    zero_delay_cut,
    zero_doppler_cut,
)
from isacsim import ambiguity
from isacsim.ambiguity import AfMode, _delayed_conj, _lag_products, _mc_chunk_size, cross_af
from isacsim.seeding import derive_rng

from conftest import (
    brute_force_af,
    full_tensor_af,
    gathered_lag_products,
    pa_compression,
    traced_peak_bytes,
    tx_generator,
    zadoff_chu,
)


# ------------------------------------------------------------ exact algebra

@pytest.mark.parametrize("mode", [AfMode.PERIODIC, AfMode.APERIODIC])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_matches_direct_evaluation(mode, n):
    rng = derive_rng(1, "af", n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = brute_force_af(x, k_grid=n, mode=mode)
    got = cross_af(x, k_grid=n, mode=mode)
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_matches_direct_evaluation_off_grid_doppler():
    rng = derive_rng(2, "af")
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for k_grid in (3, 8, 13):
        ref = brute_force_af(x, k_grid=k_grid, mode=AfMode.APERIODIC)
        np.testing.assert_allclose(
            cross_af(x, k_grid=k_grid, mode=AfMode.APERIODIC), ref, atol=1e-10
        )


@pytest.mark.parametrize("mode", [AfMode.PERIODIC, AfMode.APERIODIC])
@pytest.mark.parametrize("n", [7, 12])
def test_zero_doppler_cut_matches_direct_evaluation(mode, n):
    # K = 1 runs through the FFT correlation, not the lag-product tensor
    rng = derive_rng(14, "af", n)
    u = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    v = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    self_af = cross_af(u, k_grid=1, mode=mode)
    cross = cross_af(u, v, k_grid=1, mode=mode)
    n_lags = n if mode is AfMode.PERIODIC else 2 * n - 1
    assert self_af.shape == cross.shape == (3, n_lags, 1)
    for i in range(3):
        np.testing.assert_allclose(
            self_af[i], brute_force_af(u[i], k_grid=1, mode=mode), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            cross[i], brute_force_af(u[i], k_grid=1, mode=mode, y=v[i]), rtol=0, atol=1e-12
        )


@st.composite
def _af_cases(draw):
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["one", "below", "equal", "above"]))
    if kind == "one":
        k = 1
    elif kind == "below":
        k = draw(st.integers(1, n - 1))
    elif kind == "equal":
        k = n
    else:
        k = draw(st.integers(n + 1, 2 * n + 2))
    mode = draw(st.sampled_from(list(AfMode)))
    batch = tuple(draw(st.lists(st.integers(1, 2), max_size=2)))
    cross = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return n, k, mode, batch, cross, seed


@settings(max_examples=150, deadline=None)
@given(case=_af_cases())
def test_cross_af_matches_brute_force_property(case):
    # every Doppler-grid regime (K = 1, K < n, K = n, K > n), both modes,
    # self and cross AF, over leading batch axes, row by row against the loops
    n, k, mode, batch, cross, seed = case
    rng = np.random.default_rng(seed)
    shape = batch + (n,)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape) if cross else None
    got = cross_af(u, v, k, mode)
    n_lags = n if mode is AfMode.PERIODIC else 2 * n - 1
    assert got.shape == batch + (n_lags, k)
    for idx in np.ndindex(*batch):
        want = brute_force_af(u[idx], k_grid=k, mode=mode, y=None if v is None else v[idx])
        np.testing.assert_allclose(got[idx], want, rtol=0, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_aperiodic_symmetry_random_lengths(n, data, seed):
    # |A(-l, k)| = |A(l, -k mod K)| for a self AF on any Doppler grid
    k = data.draw(st.integers(1, 2 * n + 2))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mag = np.abs(cross_af(x, k_grid=k, mode=AfMode.APERIODIC))
    mirrored = mag[::-1][:, (-np.arange(k)) % k]
    np.testing.assert_allclose(mag, mirrored, rtol=0, atol=1e-10)


def _random_pair(rng, shape, dtype):
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        u = u + 1j * rng.standard_normal(shape)
        v = v + 1j * rng.standard_normal(shape)
    return u.astype(dtype), v.astype(dtype)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
@pytest.mark.parametrize("mode", [AfMode.PERIODIC, AfMode.APERIODIC])
def test_lag_products_equal_gathered_products_bit_for_bit(mode, dtype):
    # every lag, and slices of lag rows as the surface blocks take them
    rng = derive_rng(15, "af")
    for n, batch in [(2, ()), (5, (3,)), (16, (2, 2)), (33, ())]:
        u, v = _random_pair(rng, batch + (n,), dtype)
        n_lags = n if mode is AfMode.PERIODIC else 2 * n - 1
        for other in (u, v):
            want = gathered_lag_products(u, other, mode)
            delayed = _delayed_conj(other, mode)
            cases = [(_lag_products(u, delayed), want)]  # the default: every lag
            for lags in (slice(0, 1), slice(1, n_lags - 1), slice(n_lags - 1, None)):
                cases.append((_lag_products(u, delayed, lags), want[..., lags, :]))
            for got, expected in cases:
                assert got.dtype == expected.dtype == dtype
                assert np.array_equal(got, expected)


@pytest.mark.parametrize("block_cells", [None, 50])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64, np.float32])
def test_cross_af_blocks_equal_full_tensor_bit_for_bit(dtype, block_cells, monkeypatch):
    # the real block size, and one small enough that every case spans several
    # blocks; N=256 aperiodic has 511 lags, so its last block is ragged
    if block_cells is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_CELLS", block_cells)
    rng = derive_rng(16, "af")
    for n, batch in [(256, ()), (24, (3,)), (13, (2, 2))]:
        u, v = _random_pair(rng, batch + (n,), dtype)
        for mode in AfMode:
            for k in (5, n, n + 9):
                for other in (None, v):
                    got = cross_af(u, other, k, mode)
                    want = full_tensor_af(u, u if other is None else other, k, mode)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)


@pytest.mark.parametrize("block_cells", [None, 50])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
def test_surfaces_equal_squared_full_tensor_bit_for_bit(dtype, block_cells, monkeypatch):
    # paf/aaf square block by block what np.abs(cross_af(...)) ** 2 squared
    # whole; K=1 is the one FFT-correlation block
    if block_cells is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_CELLS", block_cells)
    rng = derive_rng(19, "af")
    for n, batch in [(256, ()), (24, (3,))]:
        u, _ = _random_pair(rng, batch + (n,), dtype)
        for surface, mode in ((paf, AfMode.PERIODIC), (aaf, AfMode.APERIODIC)):
            for k in (1, 5, n, n + 9):
                got = surface(u, k).values
                want = np.abs(cross_af(u, None, k, mode)) ** 2
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", [AfMode.PERIODIC, AfMode.APERIODIC])
def test_average_af_full_doppler_multi_chunk_equals_full_tensor_sums(mode):
    # 150 trials at K=N in chunks of 64, 64 and 22, each surface built in blocks
    n, trials = 64, 150
    gen = tx_generator("16-QAM", "ofdm", n, pa=pa_compression(1.0))
    got = average_af(gen, trials, mode=mode, rng=derive_rng(17, "af"), normalize=False)
    sizes = (64, 64, 22)
    assert _mc_chunk_size(n, mode, n) == 64
    accum = None
    for size, r in zip(sizes, derive_rng(17, "af").spawn(len(sizes))):
        batch = gen(r, size)
        part = np.sum(np.abs(full_tensor_af(batch, batch, n, mode)) ** 2, axis=0)
        accum = part if accum is None else accum + part
    assert got.values.dtype == accum.dtype
    assert np.array_equal(got.values, accum / trials)


def test_average_af_full_doppler_memory_stays_within_blocks():
    # a 64-trial chunk at K=N=128 held its whole lag-product tensor and two
    # same-size surfaces (42.5 MB); the blocked chunk holds one block at a time
    gen = tx_generator("16-QAM", "ofdm", 128)
    peak = traced_peak_bytes(average_af, gen, 128, rng=derive_rng(18, "af"), normalize=False)
    assert peak < 5e6


def test_aaf_memory_is_output_plus_one_block():
    # the complex surface and two float surfaces were held whole (3.15 MB
    # peak at N=256 against 1.05 MB of output); each block is squared into
    # the output now
    n = 256
    x = synthesize(parse_basis("ofdm", n), draw_symbols(parse_constellation("16-QAM"), n,
                                                        derive_rng(20, "af")))
    output = (2 * n - 1) * n * 8
    assert traced_peak_bytes(aaf, x) < output + 0.5e6


def test_all_ones_gives_flat_ridge():
    s = paf(np.ones(8, dtype=complex))
    np.testing.assert_allclose(s.values[:, 0], 8.0, atol=1e-12)
    np.testing.assert_allclose(s.values[0, 1:], 0.0, atol=1e-12)


def test_impulse_aperiodic_surface_is_doppler_flat():
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    s = aaf(x)
    i0 = s.zero_delay_index
    np.testing.assert_allclose(s.values[i0, :], 1.0 / 8.0, atol=1e-15)
    off = np.delete(s.values, i0, axis=0)
    np.testing.assert_allclose(off, 0.0, atol=1e-15)


def test_aperiodic_symmetry():
    rng = derive_rng(3, "af")
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    a = cross_af(x, k_grid=10, mode=AfMode.APERIODIC)
    n = 10
    for li, lag in enumerate(range(1 - n, n)):
        for k in range(n):
            mi = (n - 1) - lag  # row index of -lag
            mk = (n - k) % n
            assert abs(abs(a[li, k]) - abs(a[mi, mk])) < 1e-10


def test_zadoff_chu_periodic_thumbtack():
    x = zadoff_chu(17)
    s = paf(x, k_grid=17)
    cut = s.values[:, 0]
    assert abs(cut[0] - 17.0) < 1e-10
    np.testing.assert_allclose(cut[1:], 0.0, atol=1e-18)
    # each lag row concentrates on a single Doppler bin
    for row in s.values:
        top = np.sort(row)[::-1]
        assert top[0] > 1.0
        assert top[1] < 1e-18
    assert abs(np.sum(cut) - 17.0) < 1e-9


def test_flat_spectrum_frame_is_exact_thumbtack():
    gen = tx_generator("16-PSK", "ofdm", 32)
    x = gen(derive_rng(4, "af"), 1)[0]
    cut = paf(x, k_grid=1).values[:, 0]
    assert abs(cut[0] - 32.0) < 1e-9
    np.testing.assert_allclose(cut[1:], 0.0, atol=1e-18)
    assert abs(np.sum(cut) - 32.0) < 1e-9


# ------------------------------------------------------- averaged surfaces

def test_average_af_single_trial_equals_single_surface():
    gen = tx_generator("16-QAM", "ofdm", 16)
    avg = average_af(gen, 1, k_grid=4, rng=derive_rng(6, "af"), normalize=False)
    x = gen(derive_rng(6, "af").spawn(1)[0], 1)[0]
    direct = paf(x, k_grid=4)
    np.testing.assert_allclose(avg.values, direct.values, rtol=1e-12)


def test_average_af_same_seed_reproduces():
    gen = tx_generator("16-QAM", "ofdm", 16)
    a = average_af(gen, 20, k_grid=4, rng=derive_rng(7, "af"))
    b = average_af(gen, 20, k_grid=4, rng=derive_rng(7, "af"))
    np.testing.assert_array_equal(a.values, b.values)


def test_average_af_normalization_modes():
    gen = tx_generator("16-QAM", "ofdm", 16)
    raw = average_af(gen, 30, k_grid=4, rng=derive_rng(8, "af"), normalize=False)
    unit = average_af(gen, 30, k_grid=4, rng=derive_rng(8, "af"), normalize=True)
    peak = raw.values[raw.zero_delay_index, 0]
    np.testing.assert_allclose(unit.values, raw.values / peak, rtol=1e-12)
    assert abs(unit.values[unit.zero_delay_index, 0] - 1.0) < 1e-12
    assert unit.normalized and not raw.normalized


def test_chunk_size_pins_stream_layout():
    assert _mc_chunk_size(256, AfMode.PERIODIC, 1) == 61
    assert _mc_chunk_size(128, AfMode.APERIODIC, 1) == 64


def test_average_af_zero_doppler_multi_chunk_matches_direct_sums():
    # 130 trials in chunks of 61, 61 and 8, each drawn from its own spawned stream
    n, trials = 256, 130
    gen = tx_generator("16-QAM", "ofdm", n)
    got = average_af(gen, trials, k_grid=1, rng=derive_rng(15, "af"), normalize=False)
    ref = np.zeros(n)
    for size, r in zip((61, 61, 8), derive_rng(15, "af").spawn(3)):
        for x in gen(r, size):
            lagged = np.array([np.roll(x, lag) for lag in range(n)])  # x(p - lag)
            ref += np.abs(np.sum(x * np.conj(lagged), axis=1)) ** 2 / n
    ref /= trials
    assert got.values.shape == (n, 1)
    np.testing.assert_allclose(got.values[:, 0], ref, rtol=0, atol=1e-12 * ref[0])


def test_average_af_aperiodic_layout():
    gen = tx_generator("16-PSK", "ofdm", 8)
    s = average_af(gen, 5, k_grid=2, mode=AfMode.APERIODIC, rng=derive_rng(9, "af"))
    assert s.values.shape == (15, 2)
    assert s.delays[s.zero_delay_index] == 0
    assert s.mode is AfMode.APERIODIC


# ------------------------------------------------------------------ metrics

def test_all_ones_metrics_freeze_pair_counting():
    m = sidelobe_metrics(paf(np.ones(8, dtype=complex)))
    assert m.mainlobe == pytest.approx(8.0, rel=1e-12)
    assert m.isl == pytest.approx(2 * 7 * 8.0, rel=1e-12)  # +l/-l counted separately
    assert m.eislr == pytest.approx(2 * 7.0, rel=1e-12)
    assert m.pslr == pytest.approx(1.0, rel=1e-12)


def test_aperiodic_metrics_sum_both_sides():
    x = np.zeros(6, dtype=complex)
    x[0] = 1.0
    x[1] = 1.0
    m = sidelobe_metrics(aaf(x))
    cut = zero_doppler_cut(aaf(x))
    i0 = len(cut) // 2
    expected = np.delete(cut, i0).sum()
    assert m.isl == pytest.approx(expected, rel=1e-12)


def test_clipping_raises_expected_sidelobe_level():
    n = 64
    lin = tx_generator("16-QAM", "ofdm", n)
    nl = tx_generator("16-QAM", "ofdm", n, pa=pa_compression(1.0))
    m_lin = sidelobe_metrics(average_af(lin, 400, k_grid=1, rng=derive_rng(10, "af")))
    m_nl = sidelobe_metrics(average_af(nl, 400, k_grid=1, rng=derive_rng(10, "af")))
    assert m_nl.eislr > m_lin.eislr


def test_expected_sidelobe_grows_linearly_with_length():
    pa = pa_compression(1.0)
    sizes = np.array([32, 64, 128, 256])
    eisl = []
    for n in sizes:
        gen = tx_generator("16-QAM", "ofdm", int(n), pa=pa)
        s = average_af(gen, 500, k_grid=1, rng=derive_rng(11, "af", int(n)), normalize=False)
        eisl.append(sidelobe_metrics(s).isl)
    eisl = np.asarray(eisl)
    coef = np.polyfit(sizes, eisl, 1)
    fit = np.polyval(coef, sizes)
    ss_res = np.sum((eisl - fit) ** 2)
    ss_tot = np.sum((eisl - eisl.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.99


def test_to_db_floor():
    out = to_db(np.array([1.0, 0.0, 1e-30]))
    assert out[0] == 0.0
    assert out[1] == -100.0
    assert out[2] == -100.0
    assert to_db(np.array([0.0]), floor=-60.0)[0] == -60.0


# ------------------------------------------------------------- error paths

def test_cross_af_validation():
    with pytest.raises(ConfigError):
        cross_af(np.ones(1, dtype=complex))
    with pytest.raises(ConfigError):
        cross_af(np.ones(4, dtype=complex), np.ones(5, dtype=complex))
    with pytest.raises(ConfigError):
        cross_af(np.ones(4, dtype=complex), k_grid=0)


def test_average_af_requires_positive_trials():
    gen = tx_generator("16-QAM", "ofdm", 8)
    with pytest.raises(ConfigError):
        average_af(gen, 0, rng=derive_rng(0, "af"))


@pytest.mark.parametrize("k_grid", [1, None])
def test_average_af_rejects_malformed_batches(k_grid):
    gen = tx_generator("16-QAM", "ofdm", 8)
    # a generator that ignores count past 4 (the probe passes, the chunk of 64
    # does not), and one that returns a 1-D batch
    capped = lambda rng, count: gen(rng, min(count, 4))  # noqa: E731
    flat = lambda rng, count: gen(rng, count).ravel()  # noqa: E731
    for bad in (capped, flat):
        with pytest.raises(ConfigError, match="returned shape"):
            average_af(bad, 100, k_grid, rng=derive_rng(0, "af"))


def test_batched_cross_af_matches_loop():
    rng = derive_rng(12, "af")
    x = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    batch = cross_af(x, k_grid=4)
    for i in range(3):
        np.testing.assert_allclose(batch[i], cross_af(x[i], k_grid=4), rtol=1e-13)


def test_cut_helpers_match_axes():
    rng = derive_rng(13, "af")
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    s = aaf(x, k_grid=6)
    np.testing.assert_array_equal(zero_doppler_cut(s), s.values[:, 0])
    np.testing.assert_array_equal(zero_delay_cut(s), s.values[s.zero_delay_index, :])

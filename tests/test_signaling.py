import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import (
    BasisKind,
    ConfigError,
    FrameConfig,
    Scheme,
    SignalingBasis,
    add_cp,
    analyze,
    draw_symbols,
    parse_basis,
    parse_constellation,
    synthesize,
)
from isacsim.seeding import derive_rng, row_blocks
from isacsim.signaling import _hadamard_unitary


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize(
    "text,scheme,order",
    [
        ("16-PSK", Scheme.PSK, 16),
        ("16psk", Scheme.PSK, 16),
        ("64_QAM", Scheme.QAM, 64),
        ("64qam", Scheme.QAM, 64),
        ("4-PSK", Scheme.PSK, 4),
    ],
)
def test_parse_constellation_variants(text, scheme, order):
    spec = parse_constellation(text)
    assert spec.scheme is scheme
    assert spec.order == order


@pytest.mark.parametrize("bad", ["8-qam", "0-psk", "foo", "qam", "-psk"])
def test_parse_constellation_rejects(bad):
    with pytest.raises(ConfigError):
        parse_constellation(bad)


def test_parse_basis_kinds():
    assert parse_basis("ofdm", 8).kind is BasisKind.OFDM_DFT
    assert parse_basis("sc", 8).kind is BasisKind.SC_IDENTITY
    assert parse_basis("cdma", 8).kind is BasisKind.CDMA_HADAMARD
    with pytest.raises(ConfigError):
        parse_basis("dft", 8)


# ---------------------------------------------------------- constellations

def test_qpsk_points_exact():
    pts = parse_constellation("4-PSK").points()
    expected = {
        (1 + 1j) / np.sqrt(2),
        (-1 + 1j) / np.sqrt(2),
        (-1 - 1j) / np.sqrt(2),
        (1 - 1j) / np.sqrt(2),
    }
    assert len(pts) == 4
    for p in pts:
        assert min(abs(p - e) for e in expected) < 1e-15


@pytest.mark.parametrize("order", [4, 8, 16, 64])
def test_psk_unit_modulus(order):
    pts = parse_constellation(f"{order}-PSK").points()
    np.testing.assert_allclose(np.abs(pts), 1.0, rtol=0, atol=1e-15)


def test_qam_unit_power_and_fourth_moment():
    for name, m4 in [("16-QAM", 1.32), ("64-QAM", 29.0 / 21.0)]:
        pts = parse_constellation(name).points()
        assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12
        assert abs(np.mean(np.abs(pts) ** 4) - m4) < 1e-12


def test_draw_symbols_power_and_membership():
    spec = parse_constellation("16-QAM")
    rng = derive_rng(3, "sig")
    sym = draw_symbols(spec, (200, 64), rng)
    assert sym.shape == (200, 64)
    assert abs(np.mean(np.abs(sym) ** 2) - 1.0) < 0.01
    pts = spec.points()
    dist = np.min(np.abs(sym[..., None] - pts), axis=-1)
    assert dist.max() < 1e-12


@pytest.mark.parametrize("name", ["4-PSK", "8-PSK", "16-PSK", "32-PSK", "64-PSK",
                                  "4-QAM", "16-QAM", "64-QAM"])
def test_draw_symbols_in_row_blocks_equals_one_draw(name):
    # the blocked Monte-Carlo draws rely on bounded-integer draws continuing
    # one stream from call to call, also across calls of odd length
    spec = parse_constellation(name)
    for rows, n, splits in ((1000, 48, [(r.stop - r.start) for r in row_blocks(1000, 48)]),
                            (10, 5, [1, 2, 4, 3])):
        assert len(set(splits)) > 1 and sum(splits) == rows
        whole = draw_symbols(spec, (rows, n), derive_rng(4, "sig", rows))
        rng = derive_rng(4, "sig", rows)
        blocks = [draw_symbols(spec, (k, n), rng) for k in splits]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)


# ----------------------------------------------------------------- bases

def test_ofdm_all_ones_synthesizes_impulse_column():
    basis = parse_basis("ofdm", 4)
    x = synthesize(basis, np.ones(4))
    np.testing.assert_allclose(x, [2, 0, 0, 0], atol=1e-12)


def test_sc_identity_passthrough():
    basis = parse_basis("sc", 6)
    sym = np.arange(6, dtype=complex)
    np.testing.assert_array_equal(synthesize(basis, sym), sym)


def test_cdma_first_column_spreads_evenly():
    basis = parse_basis("cdma", 4)
    x = synthesize(basis, np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(x, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_hadamard_matches_scipy_sylvester_order():
    # scipy is a test-only dependency; the package builds the matrix itself
    import scipy.linalg

    for k in range(11):
        n = 1 << k
        np.testing.assert_array_equal(_hadamard_unitary(n),
                                      scipy.linalg.hadamard(n) / np.sqrt(n))


def test_cdma_requires_power_of_two():
    with pytest.raises(ConfigError):
        SignalingBasis(BasisKind.CDMA_HADAMARD, 12)


@pytest.mark.parametrize("kind", ["ofdm", "sc", "cdma"])
@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_analysis_synthesis_roundtrip_and_unitarity(kind, n):
    basis = parse_basis(kind, n)
    rng = derive_rng(11, "sig", n)
    sym = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    x = synthesize(basis, sym)
    np.testing.assert_allclose(analyze(basis, x), sym, atol=1e-10)
    # unitary: total power preserved per row
    np.testing.assert_allclose(
        np.sum(np.abs(x) ** 2, axis=-1),
        np.sum(np.abs(sym) ** 2, axis=-1),
        rtol=1e-10,
    )


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["ofdm", "sc", "cdma"]),
    size=st.integers(1, 160),
    log2n=st.integers(0, 7),
    batch=st.lists(st.integers(1, 3), max_size=2),
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bases_are_unitary_round_trip_and_keep_precision(kind, size, log2n, batch, single, seed):
    n = 2**log2n if kind == "cdma" else size
    basis = parse_basis(kind, n)
    dtype = np.complex64 if single else np.complex128
    # bounds set from the dtype: the worst errors seen are about 2e-6 and 2e-15
    tol = 1e-4 if single else 1e-12
    rng = np.random.default_rng(seed)
    sym = (rng.standard_normal((*batch, n)) + 1j * rng.standard_normal((*batch, n))).astype(dtype)
    x = synthesize(basis, sym)
    back = analyze(basis, x)
    assert x.dtype == dtype and back.dtype == dtype
    assert x.shape == sym.shape and back.shape == sym.shape
    np.testing.assert_allclose(back, sym, rtol=0, atol=tol * 10)
    np.testing.assert_allclose(np.sum(np.abs(x) ** 2, axis=-1),
                               np.sum(np.abs(sym) ** 2, axis=-1), rtol=tol)
    # the map itself: the images of the unit vectors are orthonormal
    images = synthesize(basis, np.eye(n, dtype=dtype))
    np.testing.assert_allclose(images @ images.conj().T, np.eye(n), rtol=0, atol=tol)


@pytest.mark.parametrize("n", [48, 64, 100])
def test_ofdm_maps_equal_scaled_fft_bit_for_bit(n):
    # the in-place scaling must give the bits of the out-of-place expressions
    basis = parse_basis("ofdm", n)
    rng = derive_rng(12, "sig", n)
    sym = rng.standard_normal((4, 3, n)) + 1j * rng.standard_normal((4, 3, n))
    assert np.array_equal(synthesize(basis, sym), np.fft.ifft(sym, axis=-1) * np.sqrt(n))
    assert np.array_equal(analyze(basis, sym), np.fft.fft(sym, axis=-1) / np.sqrt(n))


def test_ofdm_output_is_near_gaussian():
    # |x|^4 / (|x|^2)^2 -> 2 for complex Gaussians
    basis = parse_basis("ofdm", 256)
    sym = draw_symbols(parse_constellation("16-PSK"), (400, 256), derive_rng(2, "g"))
    x = synthesize(basis, sym).ravel()
    kurt = np.mean(np.abs(x) ** 4) / np.mean(np.abs(x) ** 2) ** 2
    assert abs(kurt - 2.0) < 0.1


# --------------------------------------------------------------- prefixes

def test_add_remove_cp_roundtrip():
    x = np.array([[1, 2, 3, 4]], dtype=complex)
    ext = add_cp(x, 2)
    np.testing.assert_array_equal(ext, [[3, 4, 1, 2, 3, 4]])
    np.testing.assert_array_equal(ext[..., 2:], x)


def test_add_cp_batched():
    rng = derive_rng(9, "cp")
    x = rng.standard_normal((5, 8)) + 0j
    ext = add_cp(x, 3)
    assert ext.shape == (5, 11)
    np.testing.assert_array_equal(ext[:, :3], x[:, -3:])
    np.testing.assert_array_equal(ext[..., 3:], x)


# ------------------------------------------------------------ frame types

def test_frame_config_validation():
    cfg = FrameConfig(n=64, m=4, cp_len=16)
    assert cfg.block_len == 80
    with pytest.raises(ConfigError):
        FrameConfig(n=0, m=4)
    with pytest.raises(ConfigError):
        FrameConfig(n=64, m=0)
    with pytest.raises(ConfigError):
        FrameConfig(n=64, m=4, cp_len=65)
    with pytest.raises(ConfigError):
        FrameConfig(n=64, m=4, cp_len=-1)

import numpy as np
import pytest

from isacsim import (
    ChannelConfig,
    ConfigError,
    Target,
    add_cp,
    add_noise,
    apply_channel,
)
from isacsim.seeding import derive_rng


def _frame(n=8, m=3, cp_len=2, seed=80):
    """A random (m, n) payload and the same frame with its prefix attached."""
    rng = derive_rng(seed, "ch")
    payload = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return payload, add_cp(payload, cp_len)


def _reference_received(payload, cp_len, targets):
    """Per-symbol circulant oracle: with a prefix at least as long as every
    delay, each received payload is a circular shift of the transmitted one,
    rotated by the per-symbol Doppler phase."""
    m, n = payload.shape
    block = n + cp_len
    out = np.zeros_like(payload)
    for t in targets:
        shift = np.roll(np.eye(n), t.delay, axis=0)
        phases = np.exp(2j * np.pi * (block / n) * t.doppler * np.arange(m))
        for s in range(m):
            out[s] += t.b * phases[s] * (shift @ payload[s])
    return out


def test_identity_channel_is_exact():
    _, frame = _frame()
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=0, doppler=0.0),), noise_var=0.0)
    got = apply_channel(frame, cfg, 8, derive_rng(0, "ch"))
    np.testing.assert_array_equal(got, frame)


def test_single_delay_matches_circulant_oracle():
    payload, frame = _frame(cp_len=3)
    targets = (Target(b=0.7 - 0.2j, delay=2, doppler=0.0),)
    got = apply_channel(frame, ChannelConfig(targets=targets, noise_var=0.0), 8,
                        derive_rng(0, "ch"))
    np.testing.assert_allclose(
        got[:, 3:], _reference_received(payload, 3, targets), atol=1e-12
    )


def test_two_targets_with_doppler_match_circulant_oracle():
    payload, frame = _frame(n=16, m=5, cp_len=4, seed=81)
    targets = (
        Target(b=1.0, delay=1, doppler=0.35),
        Target(b=0.4 + 0.9j, delay=3, doppler=-1.2),
    )
    got = apply_channel(frame, ChannelConfig(targets=targets, noise_var=0.0), 16,
                        derive_rng(0, "ch"))
    np.testing.assert_allclose(
        got[:, 4:], _reference_received(payload, 4, targets), atol=1e-11
    )


def test_prefix_isolates_symbols():
    # changing one symbol must not leak into the next payload
    payload, base = _frame(n=8, m=3, cp_len=4, seed=82)
    bumped = payload.copy()
    bumped[0] += 1.0
    other = add_cp(bumped, 4)
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=3, doppler=0.0),), noise_var=0.0)
    r_base = apply_channel(base, cfg, 8, derive_rng(0, "ch"))[:, 4:]
    r_other = apply_channel(other, cfg, 8, derive_rng(0, "ch"))[:, 4:]
    assert np.max(np.abs(r_base[1] - r_other[1])) < 1e-12
    assert np.max(np.abs(r_base[0] - r_other[0])) > 0.1


def test_channel_is_linear_in_targets():
    _, frame = _frame(n=8, m=2, cp_len=3, seed=83)
    t1 = Target(b=0.5, delay=1, doppler=0.4)
    t2 = Target(b=0.3j, delay=2, doppler=-0.7)
    both = apply_channel(frame, ChannelConfig(targets=(t1, t2), noise_var=0.0), 8,
                         derive_rng(0, "ch"))
    r1 = apply_channel(frame, ChannelConfig(targets=(t1,), noise_var=0.0), 8, derive_rng(0, "ch"))
    r2 = apply_channel(frame, ChannelConfig(targets=(t2,), noise_var=0.0), 8, derive_rng(0, "ch"))
    np.testing.assert_allclose(both, r1 + r2, atol=1e-12)


def test_doppler_phase_advances_across_symbols():
    tx, frame = _frame(n=8, m=6, cp_len=2, seed=84)
    block = frame.shape[-1]
    doppler = 0.9
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=0, doppler=doppler),), noise_var=0.0)
    got = apply_channel(frame, cfg, 8, derive_rng(0, "ch"))[:, 2:]
    ratios = got / tx
    expected = np.exp(2j * np.pi * (block / 8) * doppler * np.arange(6))
    np.testing.assert_allclose(ratios, expected[:, None] * np.ones((1, 8)), atol=1e-9)


def test_validation_errors():
    with pytest.raises(ConfigError):
        Target(b=0.0, delay=0, doppler=0.0)
    with pytest.raises(ConfigError):
        Target(b=1.0, delay=-1, doppler=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(targets=(), noise_var=-1.0)
    _, frame = _frame(n=8, m=2, cp_len=2)
    cfg = ChannelConfig(targets=(Target(b=1.0, delay=2, doppler=0.0),), noise_var=0.0)
    with pytest.raises(ConfigError):
        apply_channel(frame, cfg, 8, derive_rng(0, "ch"))  # delay not < cp_len
    big = ChannelConfig(targets=(Target(b=1.0, delay=10, doppler=0.0),), noise_var=0.0)
    with pytest.raises(ConfigError):
        apply_channel(frame, big, 8, derive_rng(0, "ch"))


def test_add_noise_statistics_and_copy():
    rng = derive_rng(85, "ch")
    x = np.zeros((2000, 64), dtype=complex)
    y = add_noise(x, 0.25, rng)
    assert y is not x
    noise = y - x
    var = np.mean(np.abs(noise) ** 2)
    assert abs(var - 0.25) / 0.25 < 0.01
    # circular symmetry: pseudo-variance vanishes
    pseudo = np.mean(noise**2)
    assert abs(pseudo) < 0.005
    np.testing.assert_array_equal(add_noise(x, 0.0, rng), x)


def test_batch_matches_frame_loop():
    # one call over a (batch, m, block) stack equals a loop over its frames
    n, m, cp = 8, 3, 2
    rng = derive_rng(86, "ch")
    payloads = rng.standard_normal((4, m, n)) + 1j * rng.standard_normal((4, m, n))
    frames = add_cp(payloads, cp)
    cfg = ChannelConfig(
        targets=(Target(b=0.8, delay=1, doppler=0.5),), noise_var=0.0
    )
    batch = apply_channel(frames, cfg, n, derive_rng(87, "ch"))
    loop = np.stack(
        [apply_channel(frames[i], cfg, n, derive_rng(0, "ch")) for i in range(4)]
    )
    assert batch.shape == frames.shape
    np.testing.assert_allclose(batch, loop, atol=1e-12)


def test_batch_noise_variance():
    n, m, cp = 8, 3, 2
    frames = np.zeros((200, m, n + cp), dtype=complex)
    cfg = ChannelConfig(
        targets=(Target(b=1.0, delay=0, doppler=0.0),), noise_var=0.1
    )
    batch = apply_channel(frames, cfg, n, derive_rng(88, "ch"))
    var = np.mean(np.abs(batch) ** 2)
    assert abs(var - 0.1) / 0.1 < 0.05

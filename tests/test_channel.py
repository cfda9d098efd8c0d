import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _per_symbol_received(frames, n, targets):
    """Banded per-symbol oracle: each received block is its own block delayed,
    plus the tail of the previous block, rotated by the target's phase for that
    symbol.  Loops over the leading axes one frame at a time."""
    m, block = frames.shape[-2:]
    out = np.zeros(frames.shape, dtype=complex)
    for t in targets:
        own = np.eye(block, k=-t.delay)  # sample k takes sample k - delay
        prev = np.eye(block, k=block - t.delay)  # the first `delay` take the previous tail
        phases = np.exp(2j * np.pi * (block / n) * t.doppler * np.arange(m))
        for idx in np.ndindex(frames.shape[:-2]):
            f = frames[idx]
            for s in range(m):
                spill = prev @ f[s - 1] if s else 0.0
                out[idx + (s,)] += t.b * phases[s] * (own @ f[s] + spill)
    return out


def _zero_buffer_sum(frames, n, targets):
    """The channel written with a zeroed accumulator, a zeroed shift buffer per
    target and a per-sample phase vector."""
    m, block = frames.shape[-2:]
    serial = frames.reshape(frames.shape[:-2] + (m * block,))
    received = np.zeros_like(serial)
    for t in targets:
        shifted = np.zeros_like(serial)
        shifted[..., t.delay:] = serial[..., :serial.shape[-1] - t.delay]
        rot = np.repeat(np.exp(1j * (2.0 * np.pi * block / n) * t.doppler * np.arange(m)), block)
        received += t.b * rot * shifted
    return received.reshape(frames.shape)


@st.composite
def _channel_cases(draw):
    n = draw(st.integers(1, 24))
    cp_len = draw(st.integers(0, n))
    reach = cp_len or n  # in CP mode every delay stays inside the prefix
    target = st.builds(
        Target,
        b=st.floats(0.1, 2.0) | st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
        delay=st.integers(0, reach - 1),
        doppler=st.just(0.0) | st.floats(-2.0, 2.0),
    )
    return dict(
        n=n, m=draw(st.integers(1, 4)), cp_len=cp_len,
        targets=tuple(draw(st.lists(target, max_size=3))),
        batch=tuple(draw(st.lists(st.integers(1, 2), max_size=2))),
        noise_var=draw(st.just(0.0) | st.floats(0.01, 1.0)),
        seed=draw(st.integers(0, 2**32 - 2)),
    )


@settings(max_examples=100, deadline=None)
@given(case=_channel_cases())
def test_channel_matches_per_symbol_and_circulant_oracles(case):
    n, m, cp_len, targets, batch = (case[k] for k in ("n", "m", "cp_len", "targets", "batch"))
    rng = np.random.default_rng(case["seed"])
    payload = rng.standard_normal((*batch, m, n)) + 1j * rng.standard_normal((*batch, m, n))
    frames = add_cp(payload, cp_len)
    cfg = ChannelConfig(targets=targets, noise_var=case["noise_var"])
    got = apply_channel(frames, cfg, n, np.random.default_rng(case["seed"] + 1))
    assert got.shape == frames.shape
    # the noise is drawn from a twin stream: all real parts, then all imaginary parts
    twin = np.random.default_rng(case["seed"] + 1)
    noise = np.zeros(frames.shape, dtype=complex)
    if cfg.noise_var:
        noise = np.sqrt(cfg.noise_var / 2) * (twin.standard_normal(frames.shape)
                                              + 1j * twin.standard_normal(frames.shape))
    np.testing.assert_allclose(got - noise, _per_symbol_received(frames, n, targets),
                               rtol=0, atol=1e-11)
    if cp_len:
        for idx in np.ndindex(*batch):
            np.testing.assert_allclose((got - noise)[idx][:, cp_len:],
                                       _reference_received(payload[idx], cp_len, targets),
                                       rtol=0, atol=1e-11)


def test_noise_free_channel_equals_zero_buffer_sum_bit_for_bit():
    rng = derive_rng(89, "ch")
    n, m = 16, 4
    for cp_len, batch, targets in (
        (4, (), (Target(b=1.0, delay=0),)),
        (4, (3,), (Target(b=1.0, delay=3), Target(b=0.1, delay=1))),
        (0, (2, 2), (Target(b=0.7 - 0.2j, delay=5, doppler=0.3), Target(b=0.5, delay=0))),
        (6, (5,), (Target(b=0.4j, delay=2, doppler=-1.1), Target(b=2.0, delay=5, doppler=0.0),
                   Target(b=-0.3, delay=4, doppler=0.8))),
    ):
        payload = rng.standard_normal((*batch, m, n)) + 1j * rng.standard_normal((*batch, m, n))
        frames = add_cp(payload, cp_len)
        got = apply_channel(frames, ChannelConfig(targets=targets), n, derive_rng(0, "ch"))
        assert np.array_equal(got, _zero_buffer_sum(frames, n, targets))


def test_add_noise_equals_twin_generator_formula_bit_for_bit():
    rng = derive_rng(90, "ch")
    x = rng.standard_normal((3, 5, 17)) + 1j * rng.standard_normal((3, 5, 17))
    before = x.copy()
    got = add_noise(x, 0.3, derive_rng(91, "ch"))
    twin = derive_rng(91, "ch")
    a = twin.standard_normal(x.shape)
    b = twin.standard_normal(x.shape)
    assert np.array_equal(got, x + np.sqrt(0.3 / 2) * (a + 1j * b))
    assert np.array_equal(x, before)  # a new array; the input is left alone


def test_channel_keeps_single_precision():
    frames = add_cp(np.ones((2, 3, 8), dtype=np.complex64), 2)
    cfg = ChannelConfig(targets=(Target(b=0.5, delay=1, doppler=0.2),), noise_var=0.1)
    assert add_noise(frames, 0.1, derive_rng(0, "ch")).dtype == np.complex64
    assert apply_channel(frames, cfg, 8, derive_rng(0, "ch")).dtype == np.complex64


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

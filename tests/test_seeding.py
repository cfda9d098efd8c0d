import zlib

import numpy as np
import pytest

from isacsim.seeding import (
    DEFAULT_CHUNK,
    chunk_rngs,
    chunk_seeds,
    derive_rng,
    derive_seed,
    spawn_rngs,
    tag_code,
)


def test_same_arguments_reproduce():
    a = derive_rng(123, "pa", 4).standard_normal(16)
    b = derive_rng(123, "pa", 4).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_tag_base_and_index_all_decorrelate():
    ref = derive_rng(1, "af", 0).standard_normal(8)
    for other in (
        derive_rng(2, "af", 0),
        derive_rng(1, "pd", 0),
        derive_rng(1, "af", 1),
    ):
        assert not np.array_equal(ref, other.standard_normal(8))


def test_tag_code_is_crc32():
    assert tag_code("cal") == zlib.crc32(b"cal")
    assert tag_code("") == 0


def test_derive_rng_matches_seed_sequence_construction():
    expected = np.random.default_rng(
        np.random.SeedSequence((7, zlib.crc32(b"cal"), 3))
    )
    got = derive_rng(7, "cal", 3)
    np.testing.assert_array_equal(
        got.standard_normal(32), expected.standard_normal(32)
    )
    entropy = derive_seed(7, "cal", 3).entropy
    assert tuple(entropy) == (7, zlib.crc32(b"cal"), 3)


def _sizes(trials, chunk=DEFAULT_CHUNK):
    return [size for size, _ in chunk_seeds(derive_rng(5, "x"), trials, chunk)]


def test_chunk_seeds_partitions():
    assert _sizes(10, 4) == [4, 4, 2]
    assert _sizes(5) == [5]
    assert _sizes(128) == [64, 64]
    assert sum(_sizes(1000, 7)) == 1000
    assert DEFAULT_CHUNK == 64


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
def test_chunk_streams_equal_rng_spawn(bit_generator):
    # 10 trials in chunks of 4: two full chunks and a ragged one of 2
    def parent():
        return np.random.Generator(bit_generator(derive_seed(5, "x")))

    want = parent().spawn(3)
    seeds = chunk_seeds(parent(), 10, 4)
    rngs = chunk_rngs(parent(), 10, 4)
    assert [size for size, _ in seeds] == [size for size, _ in rngs] == [4, 4, 2]
    for (_, seed), (_, r), w in zip(seeds, rngs, want):
        assert type(r.bit_generator) is bit_generator
        assert seed.spawn_key == w.bit_generator.seed_seq.spawn_key
        draws = w.standard_normal(8)
        np.testing.assert_array_equal(r.standard_normal(8), draws)
        np.testing.assert_array_equal(
            np.random.Generator(bit_generator(seed)).standard_normal(8), draws)


def test_spawn_rngs_deterministic_and_distinct():
    kids_a = spawn_rngs(derive_rng(5, "x"), 3)
    kids_b = spawn_rngs(derive_rng(5, "x"), 3)
    draws_a = [k.standard_normal(8) for k in kids_a]
    draws_b = [k.standard_normal(8) for k in kids_b]
    for da, db in zip(draws_a, draws_b):
        np.testing.assert_array_equal(da, db)
    assert not np.array_equal(draws_a[0], draws_a[1])
    assert not np.array_equal(draws_a[1], draws_a[2])


def test_spawn_depends_only_on_lineage_position():
    parent = derive_rng(5, "x")
    parent.standard_normal(1000)  # consuming draws must not shift children
    kids = spawn_rngs(parent, 2)
    fresh = spawn_rngs(derive_rng(5, "x"), 2)
    np.testing.assert_array_equal(
        kids[0].standard_normal(4), fresh[0].standard_normal(4)
    )


def test_chunk_seeds_empty_for_no_trials():
    assert _sizes(0) == []
    assert _sizes(-3) == []
    assert chunk_rngs(derive_rng(5, "x"), 0) == []


@pytest.mark.parametrize("trials,chunk", [(64, 64), (65, 64), (63, 64)])
def test_chunk_shape_edges(trials, chunk):
    sizes = _sizes(trials, chunk)
    assert sum(sizes) == trials
    assert all(s == chunk for s in sizes[:-1])
    assert 0 < sizes[-1] <= chunk

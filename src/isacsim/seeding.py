"""Deterministic RNG stream derivation for Monte-Carlo work.

Every stochastic routine in the library draws from streams derived from a
single base seed plus a stable component tag, and long runs are split into
fixed-size chunks whose sub-streams come from ``Generator.spawn``.  Partial
results are always reduced in chunk order, so output is byte-identical
regardless of how many workers process the chunks.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError

#: Base seed of a run that names none.
DEFAULT_SEED = 20260815

#: Trials per reduction chunk.  Fixed (never derived from the worker count)
#: so that serial and parallel runs visit identical sub-streams.
DEFAULT_CHUNK = 64


def tag_code(tag: str) -> int:
    """Stable 32-bit code for a component tag string."""
    return zlib.crc32(tag.encode("utf-8"))


def derive_seed(base_seed: int, tag: str, index: int = 0) -> np.random.SeedSequence:
    if base_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {base_seed}")
    return np.random.SeedSequence((int(base_seed), tag_code(tag), int(index)))


def derive_rng(base_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Generator for component ``tag``, stream ``index``, under ``base_seed``."""
    return np.random.default_rng(derive_seed(base_seed, tag, index))


def spawn_rngs(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Children depend only on the generator's seed lineage and ``n``'s position
    in the spawn sequence, not on how much the parent has been used since
    creation, so calling this first thing keeps runs reproducible.
    """
    return rng.spawn(n)


def chunk_counts(trials: int, chunk: int = DEFAULT_CHUNK) -> list[int]:
    """Split ``trials`` into fixed-size chunks (last one ragged)."""
    if trials < 1:
        return []
    full, rest = divmod(int(trials), int(chunk))
    sizes = [chunk] * full
    if rest:
        sizes.append(rest)
    return sizes

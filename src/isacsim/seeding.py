"""Deterministic RNG stream derivation for Monte-Carlo work.

Every stochastic routine in the library draws from streams derived from a
single base seed plus a stable component tag, and long runs are split into
fixed-size chunks whose sub-streams come from ``Generator.spawn``, all
through :func:`chunk_seeds`.  Partial results are always reduced in chunk
order, so output is byte-identical regardless of how many workers process
the chunks.

Chunks fix the streams; blocks fix only the working set.  Every blocked
kernel (AF lag blocks, Bussgang moments, CFAR calibration) walks its rows in
the :func:`row_blocks` slices, and draws continue one stream across blocks.
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

#: Cells per block of a blocked kernel: a block's arrays fit a 2 MB L2 cache.
BLOCK_CELLS = 8_192


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
    """``rng.spawn(n)``.  Not called in the package; kept because
    ``bench/spans.py`` ``LAYERS`` wraps it by name."""
    return rng.spawn(n)


def chunk_seeds(rng: np.random.Generator, trials: int,
                chunk: int = DEFAULT_CHUNK) -> list[tuple[int, np.random.SeedSequence]]:
    """``(size, seed)`` of each ``chunk``-trial chunk of ``trials`` (the last
    one ragged; none for ``trials < 1``), the seeds in ``rng.spawn`` order:
    they depend on ``rng``'s seed lineage, not on how much it has drawn."""
    if trials < 1:
        return []
    full, rest = divmod(int(trials), int(chunk))
    sizes = [chunk] * full + ([rest] if rest else [])
    return list(zip(sizes, rng.bit_generator.seed_seq.spawn(len(sizes))))


def chunk_rngs(rng: np.random.Generator, trials: int,
               chunk: int = DEFAULT_CHUNK) -> list[tuple[int, np.random.Generator]]:
    """:func:`chunk_seeds` with each chunk's generator, built on ``rng``'s
    bit-generator type: the streams ``rng.spawn`` gives."""
    return [(size, np.random.Generator(type(rng.bit_generator)(seed)))
            for size, seed in chunk_seeds(rng, trials, chunk)]


def row_blocks(rows: int, row_cells: int) -> list[slice]:
    """Consecutive slices of ``rows`` rows of ``row_cells`` cells, each about
    ``BLOCK_CELLS`` cells (at least one row); the last is ragged."""
    step = max(1, BLOCK_CELLS // row_cells)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]

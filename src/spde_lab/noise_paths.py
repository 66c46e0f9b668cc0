"""Reproducible scalar Brownian increments with dyadic coarsening.

A path is sampled once at a finest dyadic level and coarsened by summing
blocks of fine increments, so every step size sees the same underlying
Brownian motion. Generation is counter-based (numpy Philox keyed by
(master_seed, sample_index)), which makes sample k bit-identical however
the samples are scheduled across workers.
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 24

#: Recorded in report metadata; the scheme is deterministic given the key.
RNG_METHOD = "philox4x64 keyed (master_seed, sample_index); ziggurat standard_normal"


def coarsen_increments(increments: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Sum blocks of 2^(from_level-to_level) sibling increments.

    Works on a single path (shape (2^L,)) or a batch (samples on the
    leading axis); the per-block reduction is identical either way. The
    last axis must hold the 2^from_level increments of a path.
    """
    if to_level < 0:
        raise ValueError(f"cannot coarsen level {from_level} to negative level {to_level}")
    if to_level > from_level:
        raise ValueError(f"cannot coarsen level {from_level} to finer level {to_level}")
    if increments.shape[-1:] != (2**from_level,):
        raise ValueError(f"cannot coarsen level {from_level} to level {to_level}: a path of "
                         f"level {from_level} has 2^{from_level} increments, got shape "
                         f"{increments.shape}")
    if to_level == from_level:
        return increments
    m = 2**to_level
    block = 2 ** (from_level - to_level)
    shape = increments.shape[:-1] + (m, block)
    return increments.reshape(shape).sum(axis=-1)


def check_key(name: str, value: int) -> None:
    """Raise unless ``value`` fits one 64-bit word of the Philox key."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")


def sample_path(T: float, level: int, master_seed: int, sample_index: int) -> np.ndarray:
    """The 2^level i.i.d. N(0, T/2^level) increments over [0, T] of one
    sample index, read-only: the one-row case of sample_increment_batch.

    Deterministic in (master_seed, sample_index): the same pair always
    yields bit-identical increments, independent of call order. Coarser
    levels come from coarsen_increments, beta(t) from np.cumsum.
    """
    (increments,) = sample_increment_batch(T, level, master_seed,
                                           range(sample_index, sample_index + 1))
    increments.setflags(write=False)
    return increments


def sample_increment_batch(
    T: float, level: int, master_seed: int, sample_indices: range
) -> np.ndarray:
    """Increments for a contiguous run of samples, stacked (len, 2^level).

    Row k holds the path of sample sample_indices[k]; seed and indices
    must each fit the 64-bit key, they are never wrapped.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {level}")
    check_key("seed", master_seed)
    for k in (min(sample_indices, default=0), max(sample_indices, default=0)):
        check_key("sample index", k)
    scale = np.sqrt(T / 2**level)
    out = np.empty((len(sample_indices), 2**level))
    for row, k in zip(out, sample_indices):
        # a uint64 array: a plain list of ints near 2^64 would pass through float64
        key = np.array([master_seed, k], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=row)
        row *= scale
    return out

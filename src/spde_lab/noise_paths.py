"""Reproducible scalar Brownian increments with dyadic coarsening.

A path is sampled once at a finest dyadic level and coarsened by summing
blocks of fine increments, so every step size sees the same underlying
Brownian motion. Generation is counter-based (numpy Philox keyed by
(master_seed, sample_index)), which makes sample k bit-identical however
the samples are scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 24

#: Recorded in report metadata; the scheme is deterministic given the key.
RNG_METHOD = "philox4x64 keyed (master_seed, sample_index); ziggurat standard_normal"


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """2^level i.i.d. N(0, T/2^level) increments over [0, T]."""

    T: float
    level: int
    increments: np.ndarray

    def __post_init__(self):
        if self.increments.size != 2**self.level:
            raise ValueError(
                f"expected 2^{self.level} increments, got {self.increments.size}"
            )
        self.increments.setflags(write=False)

    @property
    def tau_min(self) -> float:
        return self.T / 2**self.level

    def coarsen(self, level: int) -> np.ndarray:
        """Increments at a coarser dyadic level ``level`` <= path level.

        Coarse increment m is the sum of its 2^(L-level) fine children,
        blocks summed in a fixed deterministic order.
        """
        return coarsen_increments(self.increments, self.level, level)

    def partial_sums(self) -> np.ndarray:
        """beta(t) at the fine step times t_1..t_{2^L} (sequential cumsum)."""
        return np.cumsum(self.increments)


def coarsen_increments(increments: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Sum blocks of 2^(from_level-to_level) sibling increments.

    Works on a single path (shape (2^L,)) or a batch (samples on the
    leading axis); the per-block reduction is identical either way.
    """
    if to_level > from_level:
        raise ValueError(f"cannot coarsen level {from_level} to finer level {to_level}")
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


def sample_path(T: float, level: int, master_seed: int, sample_index: int) -> BrownianPath:
    """Draw the Brownian path for one sample index.

    Deterministic in (master_seed, sample_index): the same pair always
    yields bit-identical increments, independent of call order.
    """
    batch = sample_increment_batch(T, level, master_seed, range(sample_index, sample_index + 1))
    return BrownianPath(T, level, batch[0])


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

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

_MASK64 = (1 << 64) - 1


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


def _generator(master_seed: int, sample_index: int) -> np.random.Generator:
    key = np.array(
        [master_seed & _MASK64, sample_index & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def sample_path(T: float, level: int, master_seed: int, sample_index: int) -> BrownianPath:
    """Draw the Brownian path for one sample index.

    Deterministic in (master_seed, sample_index): the same pair always
    yields bit-identical increments, independent of call order.
    """
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {level}")
    rng = _generator(master_seed, sample_index)
    tau_min = T / 2**level
    incr = rng.standard_normal(2**level) * np.sqrt(tau_min)
    return BrownianPath(T, level, incr)


def sample_increment_batch(
    T: float, level: int, master_seed: int, sample_indices: range
) -> np.ndarray:
    """Increments for a contiguous run of samples, stacked (len, 2^level).

    Row k is bit-identical to sample_path(..., sample_indices[k]).increments.
    """
    out = np.empty((len(sample_indices), 2**level))
    for row, k in enumerate(sample_indices):
        out[row] = sample_path(T, level, master_seed, k).increments
    return out

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spde_lab.experiments import CensusConfig, ConvergenceConfig
from spde_lab.noise_paths import (
    MAX_LEVEL,
    coarsen_increments,
    sample_increment_batch,
    sample_path,
)

# key words near both ends of [0, 2^64), and just outside it
IN_KEY = st.one_of(st.integers(0, 2**8), st.integers(2**64 - 2**8, 2**64 - 1))
OUTSIDE_KEY = st.one_of(st.integers(-(2**8), -1), st.integers(2**64, 2**64 + 2**8))


def test_determinism():
    a = sample_path(1.0, 10, master_seed=42, sample_index=5)
    b = sample_path(1.0, 10, master_seed=42, sample_index=5)
    assert np.array_equal(a, b)


def test_distinct_sample_indices_differ():
    a = sample_path(1.0, 10, 42, 0)
    b = sample_path(1.0, 10, 42, 1)
    assert not np.array_equal(a, b)
    # streams should be essentially uncorrelated, not shifted copies
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.2


def test_count_and_variance():
    p = sample_path(1.0, 16, 7, 0)
    assert p.shape == (2**16,)
    assert not p.flags.writeable
    assert p.var() == pytest.approx(2.0**-16, rel=0.05)
    assert abs(p.mean()) <= 4 * np.sqrt(2.0**-16) / 2**8


def test_level_cap():
    with pytest.raises(ValueError):
        sample_path(1.0, MAX_LEVEL + 1, 0, 0)
    with pytest.raises(ValueError):
        sample_path(-1.0, 4, 0, 0)


def test_coarsen_pairs_exact():
    p = sample_path(2.0, 2, 3, 1)
    a, b, c, d = p
    assert np.array_equal(coarsen_increments(p, 2, 1), [a + b, c + d])
    assert np.array_equal(coarsen_increments(p, 2, 0), [(a + b) + (c + d)])


def test_coarsen_identity():
    p = sample_path(1.0, 8, 3, 2)
    assert np.array_equal(coarsen_increments(p, 8, 8), p)


def test_coarsen_rejects_finer_level():
    p = sample_path(1.0, 4, 0, 0)
    with pytest.raises(ValueError):
        coarsen_increments(p, 4, 5)


def test_coarsen_rejects_a_negative_level_and_a_path_of_another_level():
    p = sample_path(1.0, 5, 0, 0)
    with pytest.raises(ValueError, match="cannot coarsen level 5 to negative level -1"):
        coarsen_increments(p, 5, -1)
    message = re.escape("cannot coarsen level 6 to level 3: a path of level 6 has 2^6 "
                        "increments, got shape (32,)")
    with pytest.raises(ValueError, match=message):
        coarsen_increments(p, 6, 3)
    with pytest.raises(ValueError, match=re.escape("got shape (4, 32)")):
        coarsen_increments(np.ones((4, 32)), 4, 4)


def test_total_sum_telescopes():
    p = sample_path(1.0, 14, 11, 4)
    total = np.cumsum(p)[-1]
    for j in range(0, 15, 3):
        assert coarsen_increments(p, 14, j).sum() == pytest.approx(total, abs=1e-13)


def test_partial_sum_consistency():
    # coarse partial sums interleave with fine partial sums
    p = sample_path(1.0, 12, 5, 9)
    fine = np.cumsum(p)
    for j in (3, 6, 9, 11):
        block = 2 ** (12 - j)
        coarse = np.cumsum(coarsen_increments(p, 12, j))
        assert np.allclose(coarse, fine[block - 1 :: block], rtol=0, atol=1e-12)


def test_batch_rows_match_single_paths():
    batch = sample_increment_batch(0.5, 9, 42, range(3, 7))
    for row, k in enumerate(range(3, 7)):
        single = sample_path(0.5, 9, 42, k)
        assert np.array_equal(batch[row], single)


def test_batched_coarsening_matches_single():
    batch = sample_increment_batch(0.5, 10, 1, range(0, 4))
    coarse = coarsen_increments(batch, 10, 6)
    for row in range(4):
        assert np.array_equal(coarse[row], coarsen_increments(batch[row], 10, 6))


def test_increment_distribution_scaling():
    # variance scales with the horizon
    p = sample_path(4.0, 12, 123, 0)
    assert p.var() == pytest.approx(4.0 / 2**12, rel=0.1)


@given(level=st.integers(0, 4), seed=IN_KEY, start=IN_KEY, count=st.integers(1, 3))
def test_batch_rows_are_the_keyed_paths_at_both_ends_of_the_key(level, seed, start, count):
    indices = range(start, min(start + count, 2**64))
    batch = sample_increment_batch(0.5, level, seed, indices)
    for row, k in zip(batch, indices):
        assert np.array_equal(row, sample_path(0.5, level, seed, k))
        # the keyed draw built directly, both key words unwrapped
        key = np.array([seed, k], dtype=np.uint64)
        drawn = np.random.Generator(np.random.Philox(key=key)).standard_normal(2**level)
        assert np.array_equal(row, drawn * np.sqrt(0.5 / 2**level))


@given(bad=OUTSIDE_KEY, good=IN_KEY)
def test_keys_outside_64_bits_raise_the_same_error_everywhere(bad, good):
    seed_error = re.escape(f"seed must be in [0, 2^64), got {bad}")
    for make in (lambda: sample_path(1.0, 2, bad, good),
                 lambda: sample_increment_batch(1.0, 2, bad, range(good, good + 1)),
                 lambda: CensusConfig(master_seed=bad),
                 lambda: ConvergenceConfig(master_seed=bad)):
        with pytest.raises(ValueError, match=seed_error):
            make()
    index_error = re.escape(f"sample index must be in [0, 2^64), got {bad}")
    for make in (lambda: sample_path(1.0, 2, good, bad),
                 lambda: sample_increment_batch(1.0, 2, good, range(bad, bad + 1))):
        with pytest.raises(ValueError, match=index_error):
            make()


def test_negative_seed_is_not_wrapped():
    # drew the path of seed 2^64 - 5 when the key was masked to 64 bits
    with pytest.raises(ValueError, match=re.escape("seed must be in [0, 2^64), got -5")):
        sample_path(1.0, 4, -5, 0)


def test_negative_sample_index_is_not_wrapped():
    # drew the path of index 2^64 - 1 when the key was masked to 64 bits
    with pytest.raises(ValueError, match=re.escape("sample index must be in [0, 2^64), got -1")):
        sample_path(1.0, 4, 3, -1)


def test_batch_checks_its_first_and_last_index():
    with pytest.raises(ValueError, match=re.escape(f"sample index must be in [0, 2^64), got {2**64}")):
        sample_increment_batch(1.0, 4, 3, range(2**64 - 1, 2**64 + 1))
    with pytest.raises(ValueError, match=re.escape("sample index must be in [0, 2^64), got -1")):
        sample_increment_batch(1.0, 4, 3, range(-1, 2))
    assert sample_increment_batch(1.0, 4, 3, range(0)).shape == (0, 16)

"""Helpers that more than one test module uses."""

import math

import numpy as np


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def oracle_increments(B, M, poison=np.nan, tau=2.0**-5, seed=23):
    """B paths of M steps at tau: row 1 jumps by 1e300 at step 2, which
    clamps LT exponents and makes EM overflow within 24 steps at (1, 256),
    (1, 16) and (2, 16); row 2 takes ``poison`` at step 5."""
    incr = np.random.default_rng(seed).normal(0.0, math.sqrt(tau), (B, M))
    incr[1, 2] = 1e300
    incr[2, 5] = poison
    return incr

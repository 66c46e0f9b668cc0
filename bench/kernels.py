"""Per-call times of the step kernels at the batch shapes the drivers use.

    python3 bench/kernels.py SEED

Prints one JSON object ``{"kernel.<fn>.<d>d-N<N>-B<B>.us": microseconds}``.
Each value is the median over repeats of the mean time of a batch of calls,
on a positive field of B samples (the driver's initial data with a seeded
perturbation) and seeded Brownian increments at tau = 2^-5.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spde_lab import Grid, HeatOperator, StepContext, from_name  # noqa: E402
from spde_lab.integrators import UPDATES, IntegratorKind  # noqa: E402

SHAPES = ((1, 256, 50), (2, 16, 50), (1, 64, 50))
TAU = 2.0**-5
REPEATS = 7
BATCH_S = 0.01  # target length of one timed batch of calls


def _per_call_us(call) -> float:
    call()  # warm caches and lazy set-up
    t0 = time.perf_counter()
    call()
    single = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(BATCH_S / single))
    means = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        means.append((time.perf_counter() - t0) / n)
    return float(np.median(means)) * 1e6


def kernel_table(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for d, N, B in SHAPES:
        grid = Grid(d, N)
        op = HeatOperator(grid)
        ctx = StepContext(op, from_name("rational", 1.0), TAU)
        x = grid.axis_coords()
        base = np.sin(np.pi * x) if d == 1 else np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
        U = base * rng.uniform(0.5, 1.5, size=(B,) + grid.shape)
        db = rng.standard_normal(B) * np.sqrt(TAU)
        calls = {f"{kind.value}_update": (lambda f=UPDATES[kind]: f(ctx, U, db))
                 for kind in IntegratorKind}
        calls["semigroup_array"] = lambda: op.semigroup_array(U, ctx.semigroup_mult)
        calls["semigroup_array_noclamp"] = lambda: op.semigroup_array(
            U, ctx.semigroup_mult, clamp_nonneg=False)
        calls["sine_transform"] = lambda: op.sine_transform(U)
        calls["f"] = lambda: ctx.nl.f(U)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for fn, call in calls.items():
                out[f"kernel.{fn}.{d}d-N{N}-B{B}.us"] = _per_call_us(call)
    return out


if __name__ == "__main__":
    print(json.dumps(kernel_table(int(sys.argv[1]))))

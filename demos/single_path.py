#!/usr/bin/env python3
"""Anatomy of one sample path under the four integrators.

Runs a single Brownian path at a deliberately large step size and prints
the running minimum and sup norm per integrator: the splitting scheme's
minimum never leaves [0, inf), the comparators' do. Also demonstrates the
one-step API and the exactness of the splitting scheme for linear g.
"""

import numpy as np

from spde_lab import (
    Grid,
    HeatOperator,
    IntegratorKind,
    StepContext,
    from_name,
    run_path,
    sample_initial,
    sample_path,
    sine_initial,
)
from spde_lab.integrators import exact_linear_array

if __name__ == "__main__":
    grid = Grid(1, 2**6)
    op = HeatOperator(grid)
    u0 = sample_initial(sine_initial, grid)
    tau = 2.0 ** -5
    # 64 steps of size 2^-5
    increments = sample_path(T=2.0, level=6, master_seed=2024, sample_index=6)

    print("one path, g(v) = 2.5 v/(1+v^2), tau = 2^-5, N = 2^6:")
    ctx = StepContext(op, from_name("rational", 2.5), tau)
    for kind in IntegratorKind:
        rec = run_path(kind, ctx, u0, increments)
        flag = "nonnegative" if rec.running_min >= 0 else "went negative"
        print(
            f"  {kind.value:<5} running min {rec.running_min:>13.4e}  "
            f"final sup {rec.sup_norms[-1]:>10.4e}  -> {flag}"
        )

    # linear g: the splitting scheme reproduces the exact solution
    ctx_lin = StepContext(op, from_name("linear", 1.0), tau)
    rec = run_path(IntegratorKind.LT, ctx_lin, u0, increments)
    beta_T = float(np.sum(increments))
    exact = exact_linear_array(op, u0, 1.0, beta_T, 2.0)
    dev = float(np.max(np.abs(rec.final - exact)))
    print(f"\nlinear g: |LT - exact| after 64 coarse steps = {dev:.2e}")

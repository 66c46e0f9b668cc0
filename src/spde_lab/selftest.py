"""Fast invariant suite behind the ``selftest`` CLI subcommand.

Every check is deterministic, runs in well under half a minute in total,
and validates one structural property of the build: exact flows of the
heat operator, Brownian coarsening consistency, the f/g relation, and
agreement of all four one-step kernels with independently hand-coded
scalar formulas on the single-point grid N = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiments import CENSUS_G
from .heat_operator import HeatOperator
from .integrators import IntegratorKind, StepContext, run_path, step
from .mesh import Grid, GridField, min_value, sup_norm
from .nonlinearity import CLI_NAMES, from_name, zero
from .noise_paths import coarsen_increments, sample_path


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, err: float, tol: float, extra: str = "") -> CheckResult:
    detail = f"max deviation {err:.3e} (tol {tol:.0e}){extra}"
    return CheckResult(name, bool(err <= tol), detail)


def check_semigroup_law() -> CheckResult:
    rng = np.random.default_rng(101)
    worst = 0.0
    for grid in (Grid(1, 8), Grid(1, 64), Grid(2, 6)):
        op = HeatOperator(grid)
        for _ in range(5):
            v = GridField(grid, rng.standard_normal(grid.n_interior))
            s, t = rng.uniform(0.01, 1.0, size=2)
            a = op.apply_semigroup(s, op.apply_semigroup(t, v))
            b = op.apply_semigroup(s + t, v)
            scale = max(sup_norm(b), 1e-300)
            worst = max(worst, sup_norm(GridField(grid, a.values - b.values)) / scale)
    return _result("semigroup law e^sA e^tA = e^(s+t)A", worst, 1e-10)


def check_kernel_positivity() -> CheckResult:
    rng = np.random.default_rng(102)
    worst = 0.0
    for grid in (Grid(1, 16), Grid(1, 256), Grid(2, 8)):
        op = HeatOperator(grid)
        for _ in range(10):
            v = GridField(grid, rng.uniform(0.0, 2.0, grid.n_interior))
            tau = float(rng.uniform(1e-4, 2.0))
            out = op.apply_semigroup(tau, v)
            worst = min(worst, min_value(out))
    return _result("semigroup positivity on nonnegative fields", -worst, 0.0)


def check_contraction() -> CheckResult:
    rng = np.random.default_rng(103)
    worst = 0.0
    for grid in (Grid(1, 32), Grid(2, 8)):
        op = HeatOperator(grid)
        for _ in range(10):
            v = GridField(grid, rng.standard_normal(grid.n_interior))
            tau = float(rng.uniform(1e-4, 2.0))
            growth = sup_norm(op.apply_semigroup(tau, v)) - sup_norm(v)
            worst = max(worst, growth)
    return _result("semigroup sup-norm contraction", worst, 1e-13)


def check_spectral_vs_dense_expm() -> CheckResult:
    import scipy.linalg

    rng = np.random.default_rng(104)
    worst = 0.0
    for grid in [Grid(1, N) for N in range(2, 9)] + [Grid(2, N) for N in (2, 3, 5, 8)]:
        op = HeatOperator(grid)
        tau = float(rng.uniform(0.01, 1.0))
        E = scipy.linalg.expm(tau * op.dense_matrix())
        v = GridField(grid, rng.standard_normal(grid.n_interior))
        spectral = op.apply_semigroup(tau, v).values
        worst = max(worst, float(np.max(np.abs(spectral - E @ v.values))))
    return _result("spectral semigroup vs dense matrix exponential (N <= 8)", worst, 1e-10)


def check_implicit_residual() -> CheckResult:
    rng = np.random.default_rng(105)
    worst = 0.0
    for grid in (Grid(1, 8), Grid(1, 128), Grid(2, 8)):
        op = HeatOperator(grid)
        for _ in range(5):
            b = GridField(grid, rng.standard_normal(grid.n_interior))
            tau = float(rng.uniform(1e-3, 1.0))
            x = op.solve_implicit(tau, b)
            resid = x.values - tau * op.apply_laplacian(x).values - b.values
            worst = max(worst, float(np.max(np.abs(resid))) / max(sup_norm(b), 1e-300))
    return _result("implicit solve residual", worst, 1e-12)


def check_brownian_coarsening() -> CheckResult:
    path = sample_path(T=1.0, level=12, master_seed=7, sample_index=3)
    again = sample_path(T=1.0, level=12, master_seed=7, sample_index=3)
    if not np.array_equal(path, again):
        return CheckResult("Brownian coarsening consistency", False, "resampling not bit-identical")
    if not np.array_equal(coarsen_increments(path, 12, 12), path):
        return CheckResult("Brownian coarsening consistency", False, "identity coarsening differs")
    pairs = path.reshape(-1, 2)
    if not np.array_equal(coarsen_increments(path, 12, 11), pairs[:, 0] + pairs[:, 1]):
        return CheckResult("Brownian coarsening consistency", False, "pair sums differ")
    fine_partial = np.cumsum(path)
    worst = 0.0
    for j in (4, 7, 10):
        coarse = coarsen_increments(path, 12, j)
        block = 2 ** (12 - j)
        dev = np.abs(np.cumsum(coarse) - fine_partial[block - 1 :: block])
        worst = max(worst, float(dev.max()))
    return _result("Brownian coarsening consistency", worst, 1e-12)


# hand-coded (g, f) per census g; check_scalar_oracle fails on a missing one
_SCALAR_G = {
    "linear": (lambda lam, u: lam * u, lambda lam, u: lam),
    "rational": (lambda lam, u: lam * u / (1 + u * u), lambda lam, u: lam / (1 + u * u)),
    "sineplus": (
        lambda lam, u: lam * (math.sin(u) + u),
        lambda lam, u: lam * (math.sin(u) / u + 1.0),
    ),
    "log1p": (
        lambda lam, u: lam * math.log1p(u),
        lambda lam, u: lam * math.log1p(u) / u,
    ),
}


def check_scalar_oracle() -> CheckResult:
    """N = 2 reduces every integrator to a scalar map with mu = -8;
    compare against formulas written directly from the step definitions."""
    name = "scalar (N=2) one-step oracle, all integrators"
    rng = np.random.default_rng(106)
    grid = Grid(1, 2)
    op = HeatOperator(grid)
    tau, lam = 0.25, 2.5
    worst = 0.0
    for g_name in CENSUS_G:
        if g_name not in _SCALAR_G:
            return CheckResult(name, False, f"no scalar oracle for g = {g_name}")
        g_hand, f_hand = _SCALAR_G[g_name]
        ctx = StepContext(op, from_name(g_name, lam), tau)
        us = np.concatenate([rng.uniform(0.05, 2.0, 500), rng.uniform(-0.8, -0.05, 500)])
        dbs = rng.normal(0.0, math.sqrt(tau), 1000)
        for u, db in zip(us, dbs):
            fld = GridField(grid, [u])
            f = f_hand(lam, u)
            expect = {
                IntegratorKind.LT: math.exp(-8 * tau) * u * math.exp(f * db - f * f * tau / 2),
                IntegratorKind.EM: u + tau * (-8 * u) + g_hand(lam, u) * db,
                IntegratorKind.SEM: (u + g_hand(lam, u) * db) / (1 + 8 * tau),
                IntegratorKind.SEXP: math.exp(-8 * tau) * (u + g_hand(lam, u) * db),
            }
            for kind, ref in expect.items():
                dev = abs(float(step(kind, ctx, fld, db).values[0]) - ref) / max(1.0, abs(ref))
                worst = max(worst, dev)
    return _result(name, worst, 1e-13)


def check_ratio_consistency() -> CheckResult:
    vs = np.concatenate(
        [
            np.linspace(-10, 10, 2001),
            np.geomspace(1e-9, 1.0, 200),
            -np.geomspace(1e-9, 0.99, 200),
        ]
    )
    vs = vs[np.abs(vs) >= 1e-10]
    worst = 0.0
    for name in CLI_NAMES:
        nl = from_name(name, 2.5)
        g = nl.g(vs)
        dev = np.abs(vs * nl.f(vs) - g) / np.maximum(np.abs(g), 1e-300)
        dev = dev[np.abs(g) > 0]
        if dev.size:
            worst = max(worst, float(dev.max()))
    return _result("v * f(v) = g(v) consistency", worst, 1e-12)


def check_zero_reductions() -> CheckResult:
    rng = np.random.default_rng(107)
    for grid in (Grid(1, 16), Grid(2, 5)):
        op = HeatOperator(grid)
        ctx = StepContext(op, zero(), tau=0.125)
        u = GridField(grid, rng.uniform(0.0, 1.0, grid.n_interior))
        db = 0.7
        heat = op.apply_semigroup(0.125, u)
        if not np.array_equal(step(IntegratorKind.LT, ctx, u, db).values, heat.values):
            return CheckResult("zero-noise reductions", False, "LT != heat flow for g = 0")
        if not np.array_equal(step(IntegratorKind.SEXP, ctx, u, db).values, heat.values):
            return CheckResult("zero-noise reductions", False, "SEXP != heat flow for g = 0")
        euler = u.values + 0.125 * op.apply_laplacian(u).values
        if not np.array_equal(step(IntegratorKind.EM, ctx, u, db).values, euler):
            return CheckResult("zero-noise reductions", False, "EM != explicit Euler for g = 0")
        implicit = op.solve_implicit(0.125, u)
        if not np.array_equal(step(IntegratorKind.SEM, ctx, u, db).values, implicit.values):
            return CheckResult("zero-noise reductions", False, "SEM != implicit Euler for g = 0")
        # zero field is a fixed point of every integrator (g(0) = 0)
        z = GridField(grid, np.zeros(grid.n_interior))
        for name, ctx2 in (("zero", ctx), ("rational", StepContext(op, from_name("rational", 2.5), 0.125))):
            for kind in IntegratorKind:
                if np.any(step(kind, ctx2, z, db).values != 0.0):
                    return CheckResult(
                        "zero-noise reductions", False, f"0 not fixed under {kind.value} ({name})"
                    )
    return CheckResult("zero-noise reductions", True, "exact reductions and zero fixed point")


def check_lt_positivity_paths() -> CheckResult:
    """LT keeps every iterate nonnegative for any tau and mesh, no CFL."""
    rng = np.random.default_rng(108)
    worst = 0.0
    for grid, tau in ((Grid(1, 64), 0.5), (Grid(1, 16), 4.0), (Grid(2, 8), 1.0)):
        op = HeatOperator(grid)
        for name in CENSUS_G:
            ctx = StepContext(op, from_name(name, 2.5), tau)
            u0 = GridField(grid, rng.uniform(0.0, 1.5, grid.n_interior))
            incr = rng.normal(0.0, math.sqrt(tau), 16)
            rec = run_path(IntegratorKind.LT, ctx, u0, incr)
            worst = min(worst, rec.running_min)
    return _result("LT path positivity (no step-size restriction)", -worst, 0.0)


ALL_CHECKS = (
    check_semigroup_law,
    check_kernel_positivity,
    check_contraction,
    check_spectral_vs_dense_expm,
    check_implicit_residual,
    check_brownian_coarsening,
    check_scalar_oracle,
    check_ratio_consistency,
    check_zero_reductions,
    check_lt_positivity_paths,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]

"""The study and the census rebuilt on dense matrices: the check behind the
``selftest`` CLI subcommand and tests/test_dense_oracle.py.

The oracle builds N^2 D^N as a dense matrix A (a Kronecker sum in 2d) and
steps a batch of flattened fields one step at a time, in dense_checkpoints:

* the semigroup is scipy.linalg.expm(tau A), with its roundoff-negative
  entries set to zero (the heat kernel is entrywise nonnegative);
* SEM multiplies by the dense inverse of I - tau A;
* EM multiplies by A itself;
* LT is u * exp(f db - f^2 tau / 2), the exponent clamped at EXP_ARG_MAX.

It is independent of HeatOperator and the step kernels. It shares with the
package only what defines the experiment: the Brownian draws
(sample_increment_batch, coarsen_increments, path_level), the initial data
and the catalogue g and f. check_study and check_census are the package's
only comparison with it: study rows to 1e-10 relative, every oracle error
finite and > 0 and no sample diverged; census counts exact, LT keeping
every path of every g and some comparator losing one. check_scalar_oracle,
the package's one scalar oracle, checks one step of each integrator at
N = 2 against the step definitions: it steps one batch of 1000 one-point
fields per (g, integrator) through evolve. tests/test_integrators.py calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .experiments import (
    CENSUS_G,
    CensusConfig,
    ConvergenceConfig,
    mean_square_error_study,
    path_level,
    positivity_census,
)
from .heat_operator import HeatOperator
from .integrators import EXP_ARG_MAX, IntegratorKind, StepContext, evolve
from .mesh import Grid, sample_initial, sine_initial
from .noise_paths import coarsen_increments, sample_increment_batch
from .nonlinearity import from_name

LT, EM, SEM, SEXP = IntegratorKind


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def dense_laplacian(d: int, N: int) -> np.ndarray:
    """N^2 D^N as a dense matrix on the flattened interior."""
    n = N - 1
    A = N**2 * (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
                + np.diag(np.ones(n - 1), -1))
    if d == 1:
        return A
    eye = np.eye(n)
    return np.kron(A, eye) + np.kron(eye, A)


def dense_semigroup(A: np.ndarray, tau: float) -> np.ndarray:
    """expm(tau A) with its roundoff-negative entries set to zero."""
    E = scipy.linalg.expm(tau * A)
    return np.where(E < 0.0, 0.0, E)


class DenseSteps:
    """One step of each integrator on a batch (B, n) of flattened fields."""

    def __init__(self, A, nl, tau):
        self.A, self.nl, self.tau = A, nl, tau
        self.E = dense_semigroup(A, tau)
        self.Sinv = np.linalg.inv(np.eye(len(A)) - tau * A)

    def __call__(self, kind, U, db):
        db = db[:, None]
        if kind is LT:
            F = self.nl.f(U)
            arg = np.minimum(F * db - 0.5 * self.tau * F * F, EXP_ARG_MAX)
            return (U * np.exp(arg)) @ self.E.T
        if kind is EM:
            return U + self.tau * (U @ self.A.T) + self.nl.g(U) * db
        if kind is SEM:
            return (U + self.nl.g(U) * db) @ self.Sinv.T
        return (U + self.nl.g(U) * db) @ self.E.T


def initial_batch(cfg) -> np.ndarray:
    u0 = sample_initial(sine_initial, Grid(cfg.d, cfg.N)).reshape(-1)
    return np.tile(u0, (cfg.samples, 1))


def dense_census(cfg: CensusConfig) -> dict:
    """(integrator, g) -> (positive, diverged) over cfg.samples paths."""
    level = path_level(cfg.T, cfg.level)
    incr = sample_increment_batch(cfg.T, level, cfg.master_seed, range(cfg.samples))
    A = dense_laplacian(cfg.d, cfg.N)
    counts = {}
    for g in cfg.g_names:
        steps = DenseSteps(A, from_name(g, cfg.lam), cfg.tau)
        for kind in cfg.integrators:
            cps, finite = dense_checkpoints(steps, kind, initial_batch(cfg), incr, 1)
            positive = finite & (cps.min(axis=(1, 2)) >= 0.0)
            counts[kind.value, g] = (int(positive.sum()), int((~finite).sum()))
    return counts


def dense_checkpoints(steps, kind, U, incr, stride):
    """The fields at every stride-th step, the initial one included, and
    the samples finite at every checkpoint after it."""
    cps = [U]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m in range(incr.shape[1]):
            U = steps(kind, U, incr[:, m])
            if (m + 1) % stride == 0:
                cps.append(U)
    cps = np.stack(cps, axis=1)
    return cps, np.isfinite(cps[:, 1:]).all(axis=(1, 2))


def dense_study(cfg: ConvergenceConfig) -> dict:
    """(integrator, level) -> sup-over-(time, space) RMS error against LT
    at cfg.ref_level on the same paths."""
    fine = path_level(cfg.T, cfg.ref_level)
    incr = sample_increment_batch(cfg.T, fine, cfg.master_seed, range(cfg.samples))
    A = dense_laplacian(cfg.d, cfg.N)
    nl = from_name(cfg.g_name, cfg.lam)
    M0 = 2 ** path_level(cfg.T, cfg.levels[0])
    ref, ref_finite = dense_checkpoints(DenseSteps(A, nl, 2.0**-cfg.ref_level), LT,
                                        initial_batch(cfg), incr, incr.shape[1] // M0)
    errors = {}
    for j in cfg.levels:
        incr_j = coarsen_increments(incr, fine, path_level(cfg.T, j))
        steps = DenseSteps(A, nl, 2.0**-j)
        for kind in cfg.integrators:
            cps, finite = dense_checkpoints(steps, kind, initial_batch(cfg), incr_j,
                                            incr_j.shape[1] // M0)
            ok = finite & ref_finite
            diff = cps[ok] - ref[ok]
            sq = np.sum(diff * diff, axis=0)
            errors[kind.value, j] = math.sqrt(float(sq.max()) / ok.sum()) if ok.any() else math.nan
    return errors


STUDY = dict(T=0.5, levels=(2, 3, 4, 5), ref_level=9, samples=100, master_seed=42, lam=1.0)
CENSUS = dict(samples=100, master_seed=42)


def check_study(d: int, N: int) -> CheckResult:
    """mean_square_error_study against dense_study at STUDY."""
    name = f"study vs dense oracle, {d}d N = {N}"
    tol = 1e-10
    cfg = ConvergenceConfig(d=d, N=N, **STUDY)
    report = mean_square_error_study(cfg)
    got = {(row[0], row[5]): row[7] for row in report.rows}
    want = dense_study(cfg)
    if got.keys() != want.keys():
        return CheckResult(name, False, f"rows {sorted(got)} against {sorted(want)}")
    bad = sorted(key for key, e in want.items() if not (math.isfinite(e) and e > 0))
    if bad or report.diverged:
        return CheckResult(name, False, f"oracle errors {bad} not > 0, diverged {report.diverged}")
    # NaN propagates through max and fails the comparison
    worst = float(np.max([abs(got[key] - e) / e for key, e in want.items()]))
    detail = f"max relative deviation {worst:.3e} (tol {tol:.0e})"
    return CheckResult(name, bool(worst <= tol), detail)


def check_census(d: int, N: int) -> CheckResult:
    """positivity_census against dense_census at CENSUS, counts exact."""
    name = f"census vs dense oracle, {d}d N = {N}"
    cfg = CensusConfig(d=d, N=N, **CENSUS)
    got = {(row[0], row[1]): (row[7], row[8]) for row in positivity_census(cfg).rows}
    want = dense_census(cfg)
    differ = sorted(key for key in want.keys() | got.keys() if got.get(key) != want.get(key))
    if differ:
        return CheckResult(name, False, f"counts differ at {differ}")
    # the census tells the schemes apart: LT keeps every path at every g (a
    # positive path is finite, so it is at (samples, 0)), a comparator does not
    lost = sorted({kind for (kind, _), (n, _) in want.items() if n < cfg.samples})
    if LT.value in lost or not lost:
        return CheckResult(name, False, f"{lost} lost a path: LT must not, a comparator must")
    return CheckResult(name, True, f"{len(want)} (integrator, g) counts equal")


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
    """N = 2 reduces every integrator to a scalar map with mu = -8; step
    1000 one-point fields as one batch per (g, kind) through evolve and
    compare against formulas written directly from the step definitions."""
    name = "scalar (N=2) one-step oracle, all integrators"
    rng = np.random.default_rng(106)
    op = HeatOperator(Grid(1, 2))
    tau, lam, tol = 0.25, 2.5, 1e-13
    worst = 0.0
    for g_name in CENSUS_G:
        if g_name not in _SCALAR_G:
            return CheckResult(name, False, f"no scalar oracle for g = {g_name}")
        g_hand, f_hand = _SCALAR_G[g_name]
        ctx = StepContext(op, from_name(g_name, lam), tau)
        us = np.concatenate([rng.uniform(0.05, 2.0, 500), rng.uniform(-0.8, -0.05, 500)])
        dbs = rng.normal(0.0, math.sqrt(tau), 1000)
        expect = []  # rows (LT, EM, SEM, SEXP), one per point
        for u, db in zip(us.tolist(), dbs.tolist()):
            f, g = f_hand(lam, u), g_hand(lam, u)
            expect.append((math.exp(-8 * tau) * u * math.exp(f * db - f * f * tau / 2),
                           u + tau * (-8 * u) + g * db,
                           (u + g * db) / (1 + 8 * tau),
                           math.exp(-8 * tau) * (u + g * db)))
        for kind, ref in zip((LT, EM, SEM, SEXP), np.array(expect).T):
            fields = []
            evolve(ctx, kind, us[:, None], dbs[:, None], 1, lambda i, U: fields.append(U))
            dev = np.abs(fields[-1][:, 0] - ref) / np.maximum(1.0, np.abs(ref))
            worst = np.maximum(worst, dev.max())  # max() would drop a NaN dev
    return CheckResult(name, bool(worst <= tol), f"max deviation {worst:.3e} (tol {tol:.0e})")


def run_all() -> list[CheckResult]:
    """check_study and check_census at 1d N = 16 and 64 and 2d N = 8, then
    check_scalar_oracle; the module docstring says what each asserts."""
    sizes = ((1, 16), (1, 64), (2, 8))
    return ([check_study(d, N) for d, N in sizes] + [check_census(d, N) for d, N in sizes]
            + [check_scalar_oracle()])

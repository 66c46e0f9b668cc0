"""The study and the census rebuilt on dense matrices, without HeatOperator.

The oracle builds N^2 D^N as a dense matrix A (a Kronecker sum in 2d) and
steps a batch of flattened fields one step at a time:

* the semigroup is scipy.linalg.expm(tau A), with its roundoff-negative
  entries set to zero (the heat kernel is entrywise nonnegative);
* SEM multiplies by the dense inverse of I - tau A;
* EM multiplies by A itself;
* LT is u * exp(f db - f^2 tau / 2), the exponent clamped at EXP_ARG_MAX.

It shares with the package only what defines the experiment: the Brownian
draws (sample_increment_batch, coarsen_increments), the initial data and the
catalogue g and f. Study errors must agree with mean_square_error_study to
1e-10 relative, and census counts exactly.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from spde_lab.experiments import (
    ALL_INTEGRATORS,
    CensusConfig,
    ConvergenceConfig,
    mean_square_error_study,
    path_level,
    positivity_census,
)
from spde_lab.integrators import EXP_ARG_MAX, IntegratorKind
from spde_lab.mesh import Grid, sample_initial, sine_initial
from spde_lab.noise_paths import coarsen_increments, sample_increment_batch
from spde_lab.nonlinearity import from_name

LT, EM, SEM, SEXP = IntegratorKind.LT, IntegratorKind.EM, IntegratorKind.SEM, IntegratorKind.SEXP


def dense_laplacian(d, N):
    n = N - 1
    A = N**2 * (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
                + np.diag(np.ones(n - 1), -1))
    if d == 1:
        return A
    eye = np.eye(n)
    return np.kron(A, eye) + np.kron(eye, A)


class DenseSteps:
    """One step of each integrator on a batch (B, n) of flattened fields."""

    def __init__(self, A, nl, tau):
        self.A, self.nl, self.tau = A, nl, tau
        E = scipy.linalg.expm(tau * A)
        self.E = np.where(E < 0.0, 0.0, E)
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


def initial_batch(cfg):
    u0 = sample_initial(sine_initial, Grid(cfg.d, cfg.N)).reshape(-1)
    return np.tile(u0, (cfg.samples, 1))


def dense_census(cfg):
    """(integrator, g) -> (positive, diverged) over cfg.samples paths."""
    level = path_level(cfg.T, cfg.level)
    incr = sample_increment_batch(cfg.T, level, cfg.master_seed, range(cfg.samples))
    A = dense_laplacian(cfg.d, cfg.N)
    counts = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for g in cfg.g_names:
            steps = DenseSteps(A, from_name(g, cfg.lam), cfg.tau)
            for kind in cfg.integrators:
                U = initial_batch(cfg)
                low = U.min(axis=1)
                finite = np.ones(cfg.samples, dtype=bool)
                for m in range(incr.shape[1]):
                    U = steps(kind, U, incr[:, m])
                    low = np.minimum(low, U.min(axis=1))
                    finite &= np.isfinite(U).all(axis=1)
                positive = finite & (low >= 0.0)
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


def dense_study(cfg):
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
            errors[kind.value, j] = math.sqrt(float(sq.max()) / ok.sum())
    return errors


STUDY = dict(T=0.5, levels=(2, 3, 4, 5), ref_level=9, samples=100, master_seed=42, lam=1.0)


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8)])
def test_study_matches_dense_oracle(d, N):
    cfg = ConvergenceConfig(d=d, N=N, **STUDY)
    report = mean_square_error_study(cfg)
    got = {(row[0], row[5]): row[7] for row in report.rows}
    want = dense_study(cfg)
    assert got.keys() == want.keys()
    assert all(math.isfinite(e) and e > 0 for e in want.values())
    assert not report.diverged
    for key, e in want.items():
        assert got[key] == pytest.approx(e, rel=1e-10, abs=0), key


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8), (2, 16)])
def test_census_matches_dense_oracle(d, N):
    cfg = CensusConfig(d=d, N=N, samples=100, master_seed=42)
    assert cfg.integrators == ALL_INTEGRATORS
    report = positivity_census(cfg)
    got = {(row[0], row[1]): (row[7], row[8]) for row in report.rows}
    want = dense_census(cfg)
    assert got == want
    # the census tells the schemes apart: LT keeps every path nonnegative
    assert all(want["lt", g] == (cfg.samples, 0) for g in cfg.g_names)
    assert any(want[kind.value, g][0] < cfg.samples
               for kind in (EM, SEM, SEXP) for g in cfg.g_names)

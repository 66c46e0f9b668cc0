"""Time integrators for the semi-discrete stochastic heat equation.

The semi-discrete system is du = N^2 D^N u dt + g(u) dbeta(t). One step of
size tau from u with Brownian increment db:

* LT    positivity-preserving Lie-Trotter splitting. The noise subsystem
        dv = v f(u) dbeta is solved exactly (Ito):
        v = u * exp(f(u) db - f(u)^2 tau / 2), then the heat subsystem is
        solved exactly by the semigroup: u' = e^{tau N^2 D^N} v.
        Both subflows map nonnegative fields to nonnegative fields, for
        any tau, so the composition does too.
* EM    explicit Euler-Maruyama: u + tau N^2 D^N u + g(u) db.
* SEM   semi-implicit Euler-Maruyama: solve (I - tau N^2 D^N) u' = u + g(u) db.
* SEXP  stochastic exponential Euler: e^{tau N^2 D^N} (u + g(u) db).

For g(v) = lam*v the LT step is exact: the noise factor is the scalar
exp(lam db - lam^2 tau / 2), which commutes with the heat flow, so iterating
reproduces e^{t N^2 D^N} e^{lam beta(t) - lam^2 t / 2} u0 at every step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .heat_operator import HeatOperator
from .mesh import GridField, min_value, sup_norm
from .nonlinearity import Nonlinearity
from .noise_paths import SeedRecord

# Exponent guard: |f| <= Lip(g) makes f*db - f^2 tau/2 small at sane
# parameters; the clamp turns an astronomically rare overflow into data.
EXP_ARG_MAX = 700.0


class IntegratorKind(Enum):
    LT = "lt"
    EM = "em"
    SEM = "sem"
    SEXP = "sexp"


class StepContext:
    """Immutable per-(operator, nonlinearity, tau) data, reused across steps.

    Precomputes the semigroup spectral multipliers (LT, SEXP) and the
    factorized implicit solve (SEM) once. It holds no scratch buffers: every
    step allocates its own temporaries, so one context is safe to share
    across block threads.
    """

    def __init__(self, op: HeatOperator, nl: Nonlinearity, tau: float):
        if tau <= 0:
            raise ValueError(f"tau must be > 0, got {tau}")
        self.op = op
        self.nl = nl
        self.tau = tau
        self.semigroup_mult = op.semigroup_multipliers(tau)
        if op.grid.d == 1:
            self._cho_factor = op.implicit_banded_factor(tau)
            self._divisors = None
        else:
            self._cho_factor = None
            self._divisors = op.implicit_divisors(tau)

    def solve_implicit_array(self, rhs: np.ndarray) -> np.ndarray:
        if self._cho_factor is not None:
            if rhs.ndim == 1:
                return scipy.linalg.cho_solve_banded((self._cho_factor, False), rhs)
            flat = rhs.reshape(-1, rhs.shape[-1])
            out = scipy.linalg.cho_solve_banded((self._cho_factor, False), flat.T).T
            return out.reshape(rhs.shape)
        return self.op.sine_transform(self.op.sine_transform(rhs) / self._divisors)


def _expand_increment(dbeta, d: int):
    """Broadcast per-sample increments over the trailing d grid axes."""
    db = np.asarray(dbeta, dtype=np.float64)
    if db.ndim == 0:
        return db
    return db.reshape(db.shape + (1,) * d)


# -- array-level one-step kernels; batched over leading axes ---------------


def lt_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    """One LT step; returns (next field, number of clamped exponents).

    The arithmetic runs in place on fresh temporaries, in the order of
    u * exp(f db - f^2 tau/2); U, dbeta and the array f returns are only read.
    """
    db = _expand_increment(dbeta, ctx.op.grid.d)
    F = ctx.nl.f(U)
    arg = F * db
    sq = F * F
    sq *= 0.5 * ctx.tau
    arg -= sq
    clamped = 0
    # a NaN max takes this branch too; the count skips NaN entries and the
    # clamp keeps them, so one NaN sample cannot stop another's clamp
    if arg.size and not arg.max() <= EXP_ARG_MAX:
        clamped = int(np.count_nonzero(arg > EXP_ARG_MAX))
        np.minimum(arg, EXP_ARG_MAX, out=arg)
    np.exp(arg, out=arg)
    arg *= U
    return ctx.op.semigroup_array(arg, ctx.semigroup_mult), clamped


def em_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    db = _expand_increment(dbeta, ctx.op.grid.d)
    return U + ctx.tau * ctx.op.laplacian_array(U) + ctx.nl.g(U) * db, 0


def sem_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    db = _expand_increment(dbeta, ctx.op.grid.d)
    return ctx.solve_implicit_array(U + ctx.nl.g(U) * db), 0


def sexp_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    db = _expand_increment(dbeta, ctx.op.grid.d)
    V = ctx.nl.g(U) * db
    V += U
    return ctx.op.semigroup_array(V, ctx.semigroup_mult), 0


UPDATES = {
    IntegratorKind.LT: lt_update,
    IntegratorKind.EM: em_update,
    IntegratorKind.SEM: sem_update,
    IntegratorKind.SEXP: sexp_update,
}


# -- GridField-level steps ---------------------------------------------------


def _step(kind: IntegratorKind, ctx: StepContext, u: GridField, dbeta: float) -> GridField:
    if u.grid != ctx.op.grid:
        raise ValueError("field grid does not match the step context")
    out, _ = UPDATES[kind](ctx, u.values_nd(), float(dbeta))
    return GridField(u.grid, out.reshape(-1))


def step_lt(ctx: StepContext, u: GridField, dbeta: float) -> GridField:
    """Lie-Trotter splitting step; maps u >= 0 to u >= 0 for any tau."""
    return _step(IntegratorKind.LT, ctx, u, dbeta)


def step_em(ctx: StepContext, u: GridField, dbeta: float) -> GridField:
    """Explicit Euler-Maruyama step."""
    return _step(IntegratorKind.EM, ctx, u, dbeta)


def step_sem(ctx: StepContext, u: GridField, dbeta: float) -> GridField:
    """Semi-implicit Euler-Maruyama step (implicit in the heat part)."""
    return _step(IntegratorKind.SEM, ctx, u, dbeta)


def step_sexp(ctx: StepContext, u: GridField, dbeta: float) -> GridField:
    """Stochastic exponential Euler step."""
    return _step(IntegratorKind.SEXP, ctx, u, dbeta)


# -- full-path driver --------------------------------------------------------


@dataclass(eq=False)
class PathRecord:
    """Trace of one integrator run.

    running_min covers the initial field and every step; it is NaN if the
    path corrupted, which fails any >= 0 positivity check. Divergence
    (first non-finite value) is data, not an error.
    """

    kind: IntegratorKind
    step_count: int
    running_min: float
    sup_norms: np.ndarray
    final: GridField
    trajectory: list[GridField] | None = None
    diverged: bool = False
    diverged_step: int | None = None
    clamp_events: int = 0
    seed_record: SeedRecord | None = None

    @property
    def positive(self) -> bool:
        """Path classification for the positivity census: never diverged
        and no entry anywhere below zero (exactly zero tolerance)."""
        return (not self.diverged) and self.running_min >= 0.0


def run_path(
    kind: IntegratorKind,
    ctx: StepContext,
    u0: GridField,
    increments: np.ndarray,
    record_mode: str = "summary",
    seed_record: SeedRecord | None = None,
) -> PathRecord:
    """Iterate one integrator over a whole increment sequence.

    record_mode "summary" keeps the running minimum, per-step sup norms and
    the final field; "full" additionally stores every intermediate field.
    """
    if record_mode not in ("summary", "full"):
        raise ValueError(f"unknown record_mode {record_mode!r}")
    increments = np.asarray(increments, dtype=np.float64)
    M = increments.size
    if M < 1:
        raise ValueError("need at least one increment")
    if u0.grid != ctx.op.grid:
        raise ValueError("initial field grid does not match the step context")

    update = UPDATES[kind]
    U = u0.values_nd()
    running_min = min_value(u0)
    sup_norms = np.empty(M + 1)
    sup_norms[0] = sup_norm(u0)
    trajectory = [u0] if record_mode == "full" else None
    diverged_step = None
    clamp_events = 0

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m in range(M):
            U, clamped = update(ctx, U, increments[m])
            clamp_events += clamped
            if diverged_step is None and not np.isfinite(U).all():
                diverged_step = m
            # np.minimum propagates NaN, so a corrupted step poisons the min
            running_min = float(np.minimum(running_min, np.min(U)))
            sup_norms[m + 1] = np.max(np.abs(U))
            if trajectory is not None:
                trajectory.append(GridField(u0.grid, U.reshape(-1)))

    return PathRecord(
        kind=kind,
        step_count=M,
        running_min=running_min,
        sup_norms=sup_norms,
        final=GridField(u0.grid, U.reshape(-1)),
        trajectory=trajectory,
        diverged=diverged_step is not None,
        diverged_step=diverged_step,
        clamp_events=clamp_events,
        seed_record=seed_record,
    )


def exact_linear_solution(
    op: HeatOperator, u0: GridField, lam: float, beta: float, t: float
) -> GridField:
    """Exact semi-discrete solution for g(v) = lam*v at time t:
    e^{t N^2 D^N} e^{lam beta(t) - lam^2 t / 2} u0."""
    heat = op.apply_semigroup(t, u0)
    factor = float(np.exp(lam * beta - 0.5 * lam * lam * t))
    return GridField(op.grid, factor * heat.values)

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
from functools import cached_property
from typing import Callable

import numpy as np

from .heat_operator import HeatOperator
from .mesh import GridField
from .nonlinearity import Nonlinearity

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

    Holds the two per-tau precomputations of the operator: the semigroup
    spectral multipliers (LT, SEXP) and the implicit factor (SEM), which
    the steps hand to op.semigroup_array and op.solve_implicit_array. Each
    is built on the first step that reads it, so in 1d scipy.linalg is
    imported by the first SEM step and not at all by runs without SEM.
    """

    def __init__(self, op: HeatOperator, nl: Nonlinearity, tau: float):
        if tau <= 0:
            raise ValueError(f"tau must be > 0, got {tau}")
        self.op = op
        self.nl = nl
        self.tau = tau

    @cached_property
    def semigroup_mult(self) -> np.ndarray:
        return self.op.semigroup_multipliers(self.tau)

    @cached_property
    def implicit_factor(self) -> np.ndarray:
        return self.op.implicit_factor(self.tau)


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
    return ctx.op.solve_implicit_array(U + ctx.nl.g(U) * db, ctx.implicit_factor), 0


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


def evolve(ctx: StepContext, kind: IntegratorKind, U: np.ndarray, incr: np.ndarray,
           stride: int, visit: Callable[[int, np.ndarray], None]) -> int:
    """Step U along the last axis of incr: one field with incr (M,), or a
    batch (B, *grid) with incr (B, M). visit(0, U) sees the start field and
    visit(i, U) the field after every stride-th step i; it must not write
    into U. Overflow and NaN are data, not warnings. Returns the summed LT
    exponent-clamp count. UPDATES[kind] is looked up per call."""
    update = UPDATES[kind]
    clamped = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        visit(0, U)
        for m in range(incr.shape[-1]):
            U, c = update(ctx, U, incr[..., m])
            clamped += c
            if (m + 1) % stride == 0:
                visit(m + 1, U)
    return clamped


# -- GridField-level step and full-path driver --------------------------------


def step(kind: IntegratorKind, ctx: StepContext, u: GridField, dbeta: float) -> GridField:
    """One step of ``kind`` from the field u with the scalar increment dbeta;
    LT maps u >= 0 to u >= 0 for any tau."""
    if u.grid != ctx.op.grid:
        raise ValueError("field grid does not match the step context")
    out, _ = UPDATES[kind](ctx, u.values_nd(), float(dbeta))
    return GridField(u.grid, out.reshape(-1))


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
    diverged: bool = False
    diverged_step: int | None = None
    clamp_events: int = 0

    @property
    def positive(self) -> bool:
        """Path classification for the positivity census: never diverged
        and no entry anywhere below zero (exactly zero tolerance)."""
        return (not self.diverged) and self.running_min >= 0.0


def run_path(kind: IntegratorKind, ctx: StepContext, u0: GridField,
             increments: np.ndarray) -> PathRecord:
    """Iterate one integrator over a whole increment sequence, keeping the
    running minimum, per-step sup norms and the final field. evolve's
    visitor sees every intermediate field."""
    increments = np.asarray(increments, dtype=np.float64)
    M = increments.size
    if M < 1:
        raise ValueError("need at least one increment")
    if u0.grid != ctx.op.grid:
        raise ValueError("initial field grid does not match the step context")

    sup_norms = np.empty(M + 1)
    running_min = np.inf
    diverged_step = None
    final = u0.values_nd()

    def track(i: int, U: np.ndarray) -> None:
        nonlocal running_min, diverged_step, final
        if i and diverged_step is None and not np.isfinite(U).all():
            diverged_step = i - 1
        # np.minimum propagates NaN, so a corrupted step poisons the min
        running_min = float(np.minimum(running_min, np.min(U)))
        sup_norms[i] = np.max(np.abs(U))
        final = U

    # one path per call, bitwise as step: as a row of a larger batch it
    # would go through gemm, not gemv, on the 1d matmul path
    clamp_events = evolve(ctx, kind, u0.values_nd(), increments.reshape(-1), 1, track)
    return PathRecord(
        kind=kind,
        step_count=M,
        running_min=running_min,
        sup_norms=sup_norms,
        final=GridField(u0.grid, final.reshape(-1)),
        diverged=diverged_step is not None,
        diverged_step=diverged_step,
        clamp_events=clamp_events,
    )


def exact_linear_array(op: HeatOperator, u0: GridField, lam: float, beta, t) -> np.ndarray:
    """Exact semi-discrete solution for g(v) = lam*v,
    e^{t N^2 D^N} e^{lam beta(t) - lam^2 t / 2} u0, batched: t is a time or
    an array of times, beta(t) broadcasts against t, and the result has
    shape broadcast(beta, t).shape + grid shape."""
    t = np.asarray(t, dtype=np.float64)
    heat = np.stack([op.apply_semigroup(float(s), u0).values_nd() for s in t.reshape(-1)])
    factor = np.exp(lam * np.asarray(beta, dtype=np.float64) - 0.5 * lam**2 * t)
    return factor.reshape(factor.shape + (1,) * op.grid.d) * heat.reshape(t.shape + op.grid.shape)


def exact_linear_solution(
    op: HeatOperator, u0: GridField, lam: float, beta: float, t: float
) -> GridField:
    """exact_linear_array at one time t with beta = beta(t), as a field."""
    return GridField(op.grid, exact_linear_array(op, u0, lam, beta, t).reshape(-1))

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

The kernels in UPDATES have one caller, evolve, which steps a field or a
batch under one contract (see its docstring, which says what it rejects).
run_path goes through evolve, and one step of a field is run_path over one
increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .heat_operator import HeatFlow, HeatOperator
from .mesh import check_int
from .nonlinearity import Nonlinearity

# Exponent guard: |f| <= Lip(g) makes f*db - f^2 tau/2 small at sane
# parameters; the clamp turns an astronomically rare overflow into data.
EXP_ARG_MAX = 700.0


class IntegratorKind(Enum):
    LT = "lt"
    EM = "em"
    SEM = "sem"
    SEXP = "sexp"


class StepContext(HeatFlow):
    """The heat flow at tau plus the nonlinearity: everything a step reads.
    In 1d scipy.linalg is imported by the first SEM step, if any."""

    def __init__(self, op: HeatOperator, nl: Nonlinearity, tau: float):
        super().__init__(op, tau)
        self.nl = nl


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
        # both terms overflowed (inf - inf, or inf * 0 at db = 0): f^2 tau/2
        # outgrows f db, so the exact exponent is -inf there
        arg[np.isnan(arg) & ~np.isnan(F) & ~np.isnan(db)] = -np.inf
        clamped = int(np.count_nonzero(arg > EXP_ARG_MAX))
        np.minimum(arg, EXP_ARG_MAX, out=arg)
    np.exp(arg, out=arg)
    arg *= U
    return ctx.heat(arg), clamped


def em_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    db = _expand_increment(dbeta, ctx.op.grid.d)
    return U + ctx.tau * ctx.op.laplacian_array(U) + ctx.nl.g(U) * db, 0


def sem_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    db = _expand_increment(dbeta, ctx.op.grid.d)
    return ctx.solve(U + ctx.nl.g(U) * db), 0


def sexp_update(ctx: StepContext, U: np.ndarray, dbeta) -> tuple[np.ndarray, int]:
    db = _expand_increment(dbeta, ctx.op.grid.d)
    V = ctx.nl.g(U) * db
    V += U
    return ctx.heat(V), 0


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
    into U. Raises ValueError, before any step, unless incr's leading shape
    is U's batch shape and stride is an int >= 1. The updates see incr
    read-only, so one that writes into it raises ValueError. Overflow and
    NaN are data, not warnings. Returns the summed LT exponent-clamp count.
    The one caller of UPDATES[kind], looked up per call: run_path, the
    drivers and the selftest's scalar check come through here."""
    U = ctx.op.grid.as_batch(U)
    if incr.ndim == 0 or incr.shape[:-1] != U.shape[:U.ndim - ctx.op.grid.d]:
        raise ValueError(f"increments of shape {incr.shape} do not fit fields of shape {U.shape}")
    if check_int("stride", stride) < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    update = UPDATES[kind]
    incr = incr.view()
    incr.setflags(write=False)
    clamped = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        visit(0, U)
        for m in range(incr.shape[-1]):
            U, c = update(ctx, U, incr[..., m])
            clamped += c
            if (m + 1) % stride == 0:
                visit(m + 1, U)
    return clamped


# -- one field: the full-path driver -----------------------------------------


@dataclass(eq=False)
class PathRecord:
    """Trace of one integrator run.

    running_min covers the initial field and every step; it is NaN if the
    path corrupted, which fails any >= 0 positivity check. Divergence
    (first non-finite value, at step diverged_step) is data, not an error.
    """

    running_min: float
    sup_norms: np.ndarray
    final: np.ndarray
    diverged_step: int | None = None
    clamp_events: int = 0

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None

    @property
    def positive(self) -> bool:
        """Path classification for the positivity census: never diverged
        and no entry anywhere below zero (exactly zero tolerance)."""
        return (not self.diverged) and self.running_min >= 0.0


def run_path(kind: IntegratorKind, ctx: StepContext, u0, increments) -> PathRecord:
    """Iterate one integrator over a whole increment sequence, keeping the
    running minimum, per-step sup norms and the final field. evolve's
    visitor sees every intermediate field. increments holds one path of
    M >= 1 steps: shape (M,), or (1, M) as a one-row batch."""
    increments = np.asarray(increments, dtype=np.float64)
    M = increments.size
    if M < 1 or increments.shape not in ((M,), (1, M)):
        raise ValueError(f"run_path steps one path of increments, got shape {increments.shape}")
    u0 = ctx.op.grid.as_field(u0)

    sup_norms = np.empty(M + 1)
    running_min, diverged_step, final = np.inf, None, u0

    def track(i: int, U: np.ndarray) -> None:
        nonlocal running_min, diverged_step, final
        if i and diverged_step is None and not np.isfinite(U).all():
            diverged_step = i - 1
        # np.minimum propagates NaN, so a corrupted step poisons the min
        running_min = float(np.minimum(running_min, np.min(U)))
        sup_norms[i] = np.max(np.abs(U))
        final = U

    # one path per call, bitwise as a single update: as a row of a larger
    # batch it would go through gemm, not gemv, on the 1d matmul path
    clamp_events = evolve(ctx, kind, u0, increments.reshape(-1), 1, track)
    return PathRecord(running_min, sup_norms, final, diverged_step, clamp_events)


def exact_linear_array(op: HeatOperator, u0, lam: float, beta, t) -> np.ndarray:
    """Exact semi-discrete solution for g(v) = lam*v,
    e^{t N^2 D^N} e^{lam beta(t) - lam^2 t / 2} u0, batched: t is a time or
    an array of times, beta(t) broadcasts against t, and the result has
    shape broadcast(beta, t).shape + grid shape (one field at a scalar t).
    Raises ValueError naming the first time that is negative or not finite."""
    t = np.asarray(t, dtype=np.float64)
    bad = t[~((t >= 0) & (t < np.inf))]
    if bad.size:
        raise ValueError(f"time must be finite and >= 0, got {float(bad[0])}")
    u0 = op.grid.as_field(u0)
    heat = np.stack([u0 if s == 0 else HeatFlow(op, float(s)).heat(u0) for s in t.reshape(-1)])
    factor = np.exp(lam * np.asarray(beta, dtype=np.float64) - 0.5 * lam**2 * t)
    return factor.reshape(factor.shape + (1,) * op.grid.d) * heat.reshape(t.shape + op.grid.shape)


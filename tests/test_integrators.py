import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spde_lab
from spde_lab import selftest
from spde_lab.experiments import CENSUS_G
from spde_lab.heat_operator import HeatFlow, HeatOperator
from spde_lab.integrators import (
    EXP_ARG_MAX,
    UPDATES,
    IntegratorKind,
    StepContext,
    _expand_increment,
    evolve,
    exact_linear_array,
    lt_update,
    run_path,
    sem_update,
    sexp_update,
)
from spde_lab.mesh import Grid, sample_initial, sine_initial
from spde_lab.nonlinearity import CLI_NAMES, Nonlinearity, from_name
from spde_lab.noise_paths import coarsen_increments, sample_path

LT, EM, SEM, SEXP = IntegratorKind


def make(grid_args, g_name, lam, tau):
    grid = Grid(*grid_args)
    op = HeatOperator(grid)
    return op, StepContext(op, from_name(g_name, lam), tau)


# -- hand-checked single steps ------------------------------------------------


def test_em_hand_example():
    # N=2, tau=0.1, u=(1), linear lam=1, db=0.05: 1 + 0.1*(-8) + 0.05
    op, ctx = make((1, 2), "linear", 1.0, 0.1)
    out = run_path(EM, ctx, np.array([1.0]), [0.05]).final
    assert out[0] == pytest.approx(0.25, abs=1e-15)


def test_sem_hand_example():
    op, ctx = make((1, 2), "linear", 1.0, 0.25)
    out = run_path(SEM, ctx, np.array([1.0]), [0.0]).final
    assert out[0] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_lt_linear_one_step_closed_form():
    # for g(v)=v one LT step is e^{tau A} e^{db - tau/2} u
    op, ctx = make((1, 32), "linear", 1.0, 0.125)
    u0 = sample_initial(sine_initial, op.grid)
    db = 0.21
    got = run_path(LT, ctx, u0, [db]).final
    want = math.exp(db - 0.125 / 2) * HeatFlow(op, 0.125).heat(u0)
    assert np.allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("kind", list(IntegratorKind))
def test_zero_field_is_fixed_point(kind):
    for grid_args in ((1, 16), (2, 5)):
        op, ctx = make(grid_args, "rational", 2.5, 0.3)
        z = np.zeros(op.grid.shape)
        out = run_path(kind, ctx, z, [0.37]).final
        assert np.all(out == 0.0)


def test_zero_noise_reductions():
    op, ctx = make((1, 16), "zero", 0.0, 0.2)
    rng = np.random.default_rng(4)
    u = rng.uniform(0, 1, 15)
    heat = HeatFlow(op, 0.2).heat(u)
    one = {kind: run_path(kind, ctx, u, [0.9]).final for kind in IntegratorKind}
    assert np.array_equal(one[LT], heat)
    assert np.array_equal(one[SEXP], heat)
    assert np.array_equal(one[EM], u + 0.2 * op.laplacian_array(u))
    assert np.array_equal(one[SEM], HeatFlow(op, 0.2).solve(u))


# -- scalar oracle (independent formulas, N=2) --------------------------------


def test_scalar_oracle_all_integrators():
    # the selftest's own check, every census g and integrator against the
    # hand-written step formulas at N = 2
    result = selftest.check_scalar_oracle()
    assert result.passed, result.detail


def test_scalar_oracle_steps_one_batch_per_g_and_integrator(monkeypatch):
    calls = []

    def counted(ctx, kind, U, incr, visit):
        calls.append((ctx.nl.name, kind, U.shape, incr.shape))
        return evolve(ctx, kind, U, incr, visit)

    monkeypatch.setattr(selftest, "evolve", counted)
    assert selftest.check_scalar_oracle().passed
    assert calls == [(g, kind, (1000, 1), (1000, 1)) for g in CENSUS_G for kind in IntegratorKind]


# -- positivity ---------------------------------------------------------------


@pytest.mark.parametrize("g_name", CENSUS_G)
@pytest.mark.parametrize("grid_args,tau", [((1, 64), 0.03125), ((1, 16), 4.0), ((2, 8), 0.5)])
def test_lt_paths_stay_nonnegative(g_name, grid_args, tau):
    # no step-size restriction: tau can exceed the mesh CFL limit freely
    op, ctx = make(grid_args, g_name, 2.5, tau)
    rng = np.random.default_rng(6)
    u0 = rng.uniform(0.0, 1.5, op.grid.shape)
    incr = rng.normal(0.0, math.sqrt(tau), 32)
    rec = run_path(IntegratorKind.LT, ctx, u0, incr)
    assert rec.running_min >= 0.0
    assert not rec.diverged


@pytest.mark.parametrize("g_name", CENSUS_G)
@pytest.mark.parametrize("lam", [1e308, -1e308, sys.float_info.max])
@pytest.mark.parametrize("db", [-2.0, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("d,N", [(1, 16), (1, 256), (2, 8)])
def test_lt_stays_positive_where_its_exponent_overflows(d, N, db, lam, g_name):
    # f db and f^2 tau/2 both overflow (inf - inf, or inf * 0 for sineplus's
    # f(0) = 2 lam at db = 0); the exact noise subflow's exponent is -inf
    op, ctx = make((d, N), g_name, lam, 2.0**-3)
    rec = run_path(LT, ctx, sample_initial(sine_initial, op.grid), [db, -db, db])
    assert rec.positive, rec.running_min


def test_sexp_can_go_negative():
    # u + g(u) db < 0 for linear g once db < -1
    op, ctx = make((1, 16), "linear", 1.0, 0.1)
    u0 = sample_initial(sine_initial, op.grid)
    out = run_path(SEXP, ctx, u0, [-1.5]).final
    assert out.min() < 0.0


# -- linear exactness ----------------------------------------------------------


def test_lt_linear_exactness_against_analytic():
    # iterating LT reproduces e^{tA} e^{beta - t/2} u0 at every step count
    op, _ = make((1, 256), "linear", 1.0, 1.0)
    u0 = sample_initial(sine_initial, op.grid)
    path = sample_path(0.5, 9, master_seed=3, sample_index=0)
    for level in (5, 7, 9):
        incr = coarsen_increments(path, 9, level)
        tau = 0.5 / incr.size
        ctx = StepContext(op, from_name("linear", 1.0), tau)
        rec = run_path(IntegratorKind.LT, ctx, u0, incr)
        beta_T = float(np.sum(incr))
        want = exact_linear_array(op, u0, 1.0, beta_T, 0.5)
        assert np.allclose(rec.final, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("d,N", [(1, 16), (1, 256), (2, 8)])
def test_exact_linear_array_rows_match_exact_linear_solution_bitwise(d, N):
    op, _ = make((d, N), "linear", 1.0, 1.0)
    u0 = sample_initial(sine_initial, op.grid)
    rng = np.random.default_rng(8)
    times = np.array([0.0, 0.125, 0.5, 2.0])
    betas = rng.normal(0.0, 1.0, (3, times.size))
    for lam in (1.0, 2.5, 1.3, -0.7):
        got = exact_linear_array(op, u0, lam, betas, times)
        assert got.shape == betas.shape + op.grid.shape
        for b in range(betas.shape[0]):
            for i, t in enumerate(times):
                want = exact_linear_array(op, u0, lam, float(betas[b, i]), float(t))
                assert same_bits(got[b, i], want)


def test_exact_linear_array_at_time_zero_is_u0_bitwise():
    # e^{0 A} is the identity, applied without a transform, so the t = 0
    # row is exactly the noise factor times u0
    op, _ = make((1, 8), "linear", 1.0, 1.0)
    v = np.arange(7.0)
    assert same_bits(exact_linear_array(op, v, 2.0, 0.0, 0.0), v)
    got = exact_linear_array(op, v, 2.0, np.array([0.0, 0.3]), np.array([0.0, 0.0]))
    assert same_bits(got[1], np.exp(2.0 * 0.3) * v)


@pytest.mark.parametrize("t,named", [(-0.5, "-0.5"), (math.nan, "nan"), (math.inf, "inf"),
                                     ([0.0, 0.5, -1.0], "-1.0")],
                         ids=["negative", "nan", "inf", "negative-in-array"])
def test_exact_linear_array_rejects_a_bad_time_by_name(t, named):
    op, _ = make((1, 8), "linear", 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"time must be finite and >= 0, got {named}")):
        exact_linear_array(op, np.arange(7.0), 2.0, 0.0, t)


@pytest.mark.parametrize("d,N", [(1, 16), (1, 128), (1, 256), (2, 8), (2, 16)])
@given(
    level=st.integers(2, 10),
    lam=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lt_linear_exactness_property(d, N, level, lam, seed):
    # for g(v) = lam*v, LT reproduces the exact solution at any step size,
    # on both sine transform paths, from any nonnegative initial field
    T = 0.5
    op, ctx = make((d, N), "linear", lam, 2.0**-level)
    rng = np.random.default_rng(seed)
    u0 = rng.uniform(0.0, 1.0, op.grid.shape)
    incr = rng.normal(0.0, math.sqrt(ctx.tau), round(T / ctx.tau))
    rec = run_path(IntegratorKind.LT, ctx, u0, incr)
    want = exact_linear_array(op, u0, lam, float(np.sum(incr)), T)
    np.testing.assert_allclose(rec.final, want, rtol=1e-10, atol=1e-12)


def test_lt_linear_step_size_independence():
    # same Brownian path, adjacent levels: final fields agree
    op, _ = make((1, 64), "linear", 2.5, 1.0)
    u0 = sample_initial(sine_initial, op.grid)
    path = sample_path(0.5, 8, master_seed=11, sample_index=2)
    finals = []
    for level in (6, 7, 8):
        incr = coarsen_increments(path, 8, level)
        ctx = StepContext(op, from_name("linear", 2.5), 0.5 / incr.size)
        finals.append(run_path(IntegratorKind.LT, ctx, u0, incr).final)
    for a, b in zip(finals, finals[1:]):
        assert np.allclose(a, b, rtol=1e-10)


# -- run_path ------------------------------------------------------------------


# 1d N = 16 transforms by matmul, 1d N = 256 by DST-I
@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("d,N", [(1, 16), (1, 256), (2, 8)])
def test_run_path_single_step_equals_kernel(d, N, kind):
    # run_path over one increment reaches the kernel through evolve with the
    # arguments it was called with: the bits do not move
    op, ctx = make((d, N), "rational", 2.5, 0.2)
    u0 = sample_initial(sine_initial, op.grid)
    rec = run_path(kind, ctx, u0, np.array([0.3]))
    assert len(rec.sup_norms) == 2
    assert same_bits(rec.final, UPDATES[kind](ctx, u0, 0.3)[0])


@pytest.mark.parametrize("kind", list(IntegratorKind))
def test_step_on_an_overflowing_field_returns_what_run_path_returns(kind):
    # overflow is data under evolve's errstate; pytest turns a RuntimeWarning
    # into an error
    op, ctx = make((1, 8), "rational", 1.0, 0.25)
    u = np.full(7, 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        want = UPDATES[kind](ctx, u, 0.5)[0]
    assert same_bits(run_path(kind, ctx, u, [0.5]).final, want)


def test_run_path_full_trajectory_consistent_with_summary():
    op, ctx = make((1, 16), "sineplus", 2.5, 0.1)
    u0 = sample_initial(sine_initial, op.grid)
    incr = np.random.default_rng(8).normal(0, 0.3, 12)
    rec = run_path(SEXP, ctx, u0, incr)
    fields = path_fields(SEXP, ctx, u0, incr)
    assert len(fields) == 13
    assert rec.running_min == min(float(f.min()) for f in fields)
    sups = [float(np.max(np.abs(f))) for f in fields]
    assert np.allclose(rec.sup_norms, sups, rtol=0, atol=0)
    assert same_bits(rec.final.reshape(-1), fields[-1])


def test_run_path_detects_divergence():
    # explicit Euler far beyond its stability limit explodes; the record
    # flags the first non-finite step and the census classification fails
    op, ctx = make((1, 256), "log1p", 2.5, 0.5)
    u0 = sample_initial(sine_initial, op.grid)
    incr = np.random.default_rng(9).normal(0, math.sqrt(0.5), 80)
    rec = run_path(IntegratorKind.EM, ctx, u0, incr)
    assert rec.diverged
    assert rec.diverged_step is not None
    assert not rec.positive


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_step_context_rejects_a_non_finite_tau(tau):
    with pytest.raises(ValueError, match=re.escape(f"tau must be finite and > 0, got {tau}")):
        make((1, 8), "linear", 1.0, tau)


def test_run_path_takes_one_path_of_increments():
    op, ctx = make((1, 8), "linear", 1.0, 0.1)
    u0 = np.ones(7)
    with pytest.raises(ValueError, match=re.escape("one path of increments, got shape (2, 3)")):
        run_path(IntegratorKind.LT, ctx, u0, np.ones((2, 3)))
    row = np.array([[0.1, -0.2, 0.3]])  # a one-row batch is one path
    rec = run_path(IntegratorKind.LT, ctx, u0, row)
    assert len(rec.sup_norms) == 4  # the start field and three steps
    assert same_bits(rec.final, run_path(IntegratorKind.LT, ctx, u0, row[0]).final)


def test_run_path_validates_input():
    op, ctx = make((1, 8), "linear", 1.0, 0.1)
    u0 = np.zeros(7)
    with pytest.raises(ValueError):
        run_path(IntegratorKind.LT, ctx, u0, np.array([]))
    with pytest.raises(ValueError, match=re.escape("field of shape (3,) does not match the "
                                                   "grid's shape (7,)")):
        run_path(IntegratorKind.LT, ctx, np.zeros(3), np.array([0.1]))


def test_moment_sanity_small():
    # E[max_m sup_x |u|^2] bounds the per-(m,x) second moment; it stays
    # below a fixed multiple of ||u0||_0^2 = 1 across step sizes
    op, _ = make((1, 32), "rational", 1.0, 1.0)
    u0 = sample_initial(sine_initial, op.grid)
    for level in (4, 6, 8):
        tau = 2.0**-level
        ctx = StepContext(op, from_name("rational", 1.0), tau)
        acc = []
        for k in range(60):
            path = sample_path(0.5, level, master_seed=21, sample_index=k)
            rec = run_path(IntegratorKind.LT, ctx, u0, path)
            acc.append(float(np.max(rec.sup_norms**2)))
        assert np.mean(acc) <= 5.0


# -- LT and SEXP kernels pinned against the straightforward formulas ----------


def reference_lt_update(ctx, U, dbeta):
    db = _expand_increment(dbeta, ctx.op.grid.d)
    F = ctx.nl.f(U)
    arg = F * db - F * F * (0.5 * ctx.tau)
    clamped = int(np.count_nonzero(arg > EXP_ARG_MAX))
    if clamped:
        arg = np.minimum(arg, EXP_ARG_MAX)
    W = U * np.exp(arg)
    return ctx.heat(W), clamped


def reference_sexp_update(ctx, U, dbeta):
    db = _expand_increment(dbeta, ctx.op.grid.d)
    return ctx.heat(U + ctx.nl.g(U) * db), 0


KERNELS = [(lt_update, reference_lt_update), (sexp_update, reference_sexp_update)]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def kernel_batch(d, N, B, nl, tau=2.0**-5, seed=41):
    """Positive batch of B perturbed sine fields and per-sample increments,
    all read-only so that any write into them raises."""
    grid = Grid(d, N)
    ctx = StepContext(HeatOperator(grid), nl, tau)
    rng = np.random.default_rng(seed)
    s = np.sin(np.pi * grid.axis_coords())
    base = s if d == 1 else np.outer(s, s)
    U = frozen(base * rng.uniform(0.5, 1.5, size=(B,) + grid.shape))
    db = rng.standard_normal(B) * math.sqrt(tau)
    db[::7] *= 12.0  # large enough that some SEXP inputs go negative
    return ctx, U, frozen(db)


def check_kernel(update, reference, ctx, U, db):
    before = [a.copy() for a in (U, db, ctx.semigroup_mult)]
    got, got_clamped = update(ctx, U, db)
    want, want_clamped = reference(ctx, U, db)
    assert same_bits(got, want)
    assert got_clamped == want_clamped
    for a, b in zip((U, db, ctx.semigroup_mult), before):
        assert same_bits(a, b)
    return got, got_clamped


@pytest.mark.parametrize("update,reference", KERNELS)
@pytest.mark.parametrize("d,N", [(1, 256), (2, 16)])
def test_update_matches_reference_bitwise(update, reference, d, N):
    ctx, U, db = kernel_batch(d, N, 50, from_name("rational", 1.0))
    check_kernel(update, reference, ctx, U, db)


@pytest.mark.parametrize("d,N", [(1, 256), (2, 16)])
def test_lt_update_exponent_clamp_count_matches_reference(d, N):
    # sample 3 has every exponent far above EXP_ARG_MAX, sample 7 far below,
    # and sample 5 carries a NaN, whose exponents are never counted
    ctx, U, db = kernel_batch(d, N, 12, from_name("rational", 1.0))
    U, db = U.copy(), db.copy()
    db[3], db[7] = 5000.0, -5000.0
    U[5][(2,) * d] = np.nan
    with np.errstate(invalid="ignore"):
        out, clamped = check_kernel(lt_update, reference_lt_update, ctx, frozen(U), frozen(db))
    assert clamped == ctx.op.grid.n_interior
    assert np.isfinite(np.delete(out, 5, axis=0)).all()
    assert np.delete(out, 5, axis=0).min() >= 0.0


@pytest.mark.parametrize("update,reference", KERNELS)
def test_update_leaves_shared_coefficient_output_alone(update, reference):
    # a user coefficient may hand back the same array on every call
    shared = frozen(np.full(63, 0.5))
    nl = Nonlinearity("custom", 0.5, g=lambda v: 0.5 * v, f=lambda v: shared)
    ctx, U, db = kernel_batch(1, 64, 4, nl)
    check_kernel(update, reference, ctx, U, db)
    assert np.all(shared == 0.5)


@pytest.mark.parametrize("kind", list(IntegratorKind))
def test_update_zero_size_batch(kind):
    for d, N in ((1, 256), (2, 16)):
        ctx, U, db = kernel_batch(d, N, 0, from_name("rational", 1.0))
        out, clamped = UPDATES[kind](ctx, U, db)
        assert out.shape == U.shape and clamped == 0


@pytest.mark.parametrize("kind", [IntegratorKind.LT, IntegratorKind.SEXP])
def test_run_path_full_trajectory_entries_are_distinct(kind):
    # the fields evolve visits are never overwritten by a later step
    op, ctx = make((1, 256), "rational", 1.0, 2.0**-5)
    u0 = sample_initial(sine_initial, op.grid)
    incr = np.random.default_rng(43).normal(0.0, 2.0**-2.5, 6)
    values = []
    evolve(ctx, kind, u0, incr, lambda i, U: values.append(U))
    for i, a in enumerate(values):
        assert not any(np.shares_memory(a, b) for b in values[i + 1:])
    u = u0
    for m, db in enumerate(incr):
        u = run_path(kind, ctx, u, [db]).final
        assert same_bits(values[m + 1], u)


# -- evolve and run_path pinned against the hand-written step loop -------------


def path_fields(kind, ctx, u0, increments):
    """Every field of a one-path run, the start field first, as flat copies
    captured through evolve's visitor on run_path's one-field shape."""
    fields = []
    evolve(ctx, kind, u0, np.asarray(increments, dtype=np.float64),
           lambda i, U: fields.append(U.reshape(-1).copy()))
    return fields


def reference_run_path(kind, ctx, u0, increments):
    """The step loop run_path had before evolve, as an oracle."""
    update = UPDATES[kind]
    U = u0
    running_min = float(np.min(u0))
    sup_norms = np.empty(increments.size + 1)
    sup_norms[0] = float(np.max(np.abs(u0)))
    trajectory = [u0.reshape(-1)]
    diverged_step = None
    clamp_events = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m in range(increments.size):
            U, clamped = update(ctx, U, increments[m])
            clamp_events += clamped
            if diverged_step is None and not np.isfinite(U).all():
                diverged_step = m
            running_min = float(np.minimum(running_min, np.min(U)))
            sup_norms[m + 1] = np.max(np.abs(U))
            trajectory.append(U.reshape(-1).copy())
    return running_min, sup_norms, U.reshape(-1), trajectory, diverged_step, clamp_events


def oracle_increments(tau, B, M, seed=17):
    """B paths of M steps: row 1 jumps by 1e300 at step 2, which clamps LT
    exponents and makes EM overflow within 24 steps at (1, 256), (1, 16)
    and (2, 16); row 2 turns NaN at step 5."""
    incr = np.random.default_rng(seed).normal(0.0, math.sqrt(tau), (B, M))
    incr[1, 2] = 1e300
    incr[2, 5] = np.nan
    return incr


@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("d,N", [(1, 256), (1, 16), (2, 16)])
def test_run_path_matches_reference_loop_bitwise(kind, d, N):
    op, ctx = make((d, N), "linear", 2.5, 2.0**-5)
    u0 = sample_initial(sine_initial, op.grid)
    outcomes = []
    for incr in oracle_increments(ctx.tau, 3, 24):
        rec = run_path(kind, ctx, u0, incr)
        rmin, sups, final, traj, div_step, clamps = reference_run_path(kind, ctx, u0, incr)
        assert same_bits(np.float64(rec.running_min), np.float64(rmin))
        assert same_bits(rec.sup_norms, sups)
        assert same_bits(rec.final.reshape(-1), final)
        fields = path_fields(kind, ctx, u0, incr)
        assert len(fields) == len(traj)
        assert all(same_bits(a, b) for a, b in zip(fields, traj))
        assert (rec.diverged_step, rec.clamp_events) == (div_step, clamps)
        outcomes.append((rec.diverged_step, rec.clamp_events > 0))
    em = kind is IntegratorKind.EM
    assert outcomes[0] == (None, False)
    assert (outcomes[1][0] is not None) == em and outcomes[1][1] == (kind is IntegratorKind.LT)
    assert outcomes[2] == (5, False)  # the NaN path diverges at its NaN step


@pytest.mark.parametrize("kind", list(IntegratorKind))
def test_evolve_looks_up_update_per_call(monkeypatch, kind):
    op, ctx = make((1, 16), "rational", 1.0, 2.0**-4)
    calls = []
    original = UPDATES[kind]

    def counted(ctx, U, dbeta):
        calls.append(dbeta)
        return original(ctx, U, dbeta)

    monkeypatch.setitem(UPDATES, kind, counted)
    incr = np.random.default_rng(5).normal(0.0, 0.25, (2, 8))
    evolve(ctx, kind, np.ones((2, 15)), incr, lambda i, U: None)
    assert len(calls) == 8


@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("U_shape,incr_shape", [((15,), (6,)), ((3, 15), (3, 6))],
                         ids=["field", "batch"])
def test_evolve_visits_every_field_once_in_order(kind, U_shape, incr_shape):
    # visit(0) sees the start field, and visit(i) the field that the i-th
    # update returned, for a field and for a batch alike
    op, ctx = make((1, 16), "rational", 1.0, 2.0**-4)
    rng = np.random.default_rng(9)
    U0 = rng.uniform(0.0, 1.5, U_shape)
    incr = rng.normal(0.0, 0.25, incr_shape)
    visits = []
    evolve(ctx, kind, U0, incr, lambda i, U: visits.append((i, U.copy())))
    assert [i for i, _ in visits] == list(range(7))
    U = op.grid.as_batch(U0)
    assert same_bits(visits[0][1], U)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m, (_, field) in enumerate(visits[1:]):
            U, _ = UPDATES[kind](ctx, U, incr[..., m])
            assert same_bits(field, U)


@pytest.mark.parametrize("U_shape,incr_shape,message", [
    ((7,), (3, 4), "increments of shape (3, 4) do not fit fields of shape (7,)"),
    ((5, 7), (1, 4), "increments of shape (1, 4) do not fit fields of shape (5, 7)"),
    ((5, 7), (5,), "increments of shape (5,) do not fit fields of shape (5, 7)"),
], ids=["field-3-paths", "batch-1-path", "batch-no-step-axis"])
def test_evolve_rejects_a_bad_call_before_any_update(monkeypatch, U_shape, incr_shape, message):
    # a field with a batch of paths became a batch, and one path drove a
    # whole batch
    op, ctx = make((1, 8), "rational", 1.0, 0.25)

    def never(*args):
        raise AssertionError("evolve stepped or visited before checking its call")

    monkeypatch.setitem(UPDATES, LT, never)
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve(ctx, LT, np.ones(U_shape), np.ones(incr_shape), never)


def updates_subscripts(tree):
    """The innermost enclosing function (None at module level) of every
    UPDATES[...] or module.UPDATES[...] in tree."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Subscript) and "UPDATES" in (
                    getattr(child.value, "id", None), getattr(child.value, "attr", None)):
                found.append(fn)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else fn)

    visit(tree, None)
    return found


def test_only_evolve_subscripts_updates():
    # evolve owns the step contract (errstate, read-only increments, the
    # shape check), so no other code in the package reaches a kernel
    # through UPDATES[kind]
    assert updates_subscripts(ast.parse("def f():\n    return integrators.UPDATES[k]")) == ["f"]
    found = [(path.name, fn) for path in sorted(Path(spde_lab.__file__).parent.glob("*.py"))
             for fn in updates_subscripts(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("integrators.py", "evolve")]


@pytest.mark.parametrize("d,N", [(1, 256), (1, 16), (2, 16)])
def test_sem_update_non_finite_sample_leaves_others_alone(d, N):
    ctx, U, db = kernel_batch(d, N, 6, from_name("rational", 1.0))
    bad = U.copy()
    bad[3][(1,) * d] = np.inf
    with np.errstate(invalid="ignore"):
        out, _ = sem_update(ctx, frozen(bad), db)
    want, _ = sem_update(ctx, U, db)
    assert not np.isfinite(out[3]).all()
    assert same_bits(np.delete(out, 3, axis=0), np.delete(want, 3, axis=0))


# -- properties over random fields, coefficients and step sizes ----------------


@pytest.mark.parametrize("g_name", sorted(CLI_NAMES))
@pytest.mark.parametrize("d,N", [(1, 64), (1, 256), (2, 16), (2, 256)])
@given(
    level=st.integers(4, 16),
    lam=st.floats(-3.0, 3.0),
    zero_share=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_lt_positivity_property(d, N, g_name, level, lam, zero_share, seed):
    # LT keeps every nonnegative field nonnegative, for every catalogue g and
    # dyadic tau, on both sine transform paths (matmul to N = 128, DST above)
    op, ctx = make((d, N), g_name, lam, 2.0**-level)
    rng = np.random.default_rng(seed)
    n = op.grid.n_interior
    u0 = (rng.uniform(0.0, 2.0, n) * (rng.random(n) >= zero_share)).reshape(op.grid.shape)
    rec = run_path(IntegratorKind.LT, ctx, u0, rng.normal(0.0, math.sqrt(ctx.tau), 8))
    assert rec.running_min >= 0.0
    assert not rec.diverged


# like shapes only: on the 1d matmul path one field goes through gemv and a
# batch through gemm, and their last bits differ
@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("d,N", [(1, 256), (2, 16)])
@given(
    g_name=st.sampled_from(sorted(CLI_NAMES)),
    level=st.integers(4, 10),
    rows=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_batch_rows_equal_run_path_bitwise(d, N, kind, g_name, level, rows, seed):
    op, ctx = make((d, N), g_name, 2.5, 2.0**-level)
    rng = np.random.default_rng(seed)
    U0 = rng.uniform(0.0, 1.5, (rows,) + op.grid.shape)
    incr = rng.normal(0.0, math.sqrt(ctx.tau), (rows, 6))
    fields = []
    evolve(ctx, kind, U0.copy(), incr, lambda i, U: fields.append(U.copy()))
    for b in range(rows):
        u0 = U0[b]
        path = path_fields(kind, ctx, u0, incr[b])
        assert len(path) == len(fields)
        for got, want in zip(fields, path):
            assert same_bits(got[b].reshape(-1), want)
        assert same_bits(run_path(kind, ctx, u0, incr[b]).final.reshape(-1), path[-1])

import math

import numpy as np
import pytest

from spde_lab import experiments
from spde_lab.experiments import (
    CENSUS_COLUMNS,
    CONVERGENCE_COLUMNS,
    CensusConfig,
    ConvergenceConfig,
    _run_checkpointed,
    dyadic_exponent,
    fit_slope,
    mean_square_error_study,
    merge_reports,
    mesh_independence_study,
    moment_bound_study,
    path_level,
    positivity_census,
    write_report,
)
from spde_lab.heat_operator import HeatOperator
from spde_lab.integrators import UPDATES, IntegratorKind, StepContext
from spde_lab.mesh import Grid, InitialData, min_value, sample_initial
from spde_lab.nonlinearity import from_name

LT, EM, SEM, SEXP = (
    IntegratorKind.LT,
    IntegratorKind.EM,
    IntegratorKind.SEM,
    IntegratorKind.SEXP,
)

# small configurations keep these tests in the seconds range
SMALL_CENSUS = dict(N=16, samples=10, master_seed=5)
SMALL_STUDY = dict(N=16, levels=(3, 4, 5), ref_level=8, samples=8, master_seed=5)


def test_dyadic_exponent():
    assert dyadic_exponent(0.03125) == -5
    assert dyadic_exponent(2.0) == 1
    assert dyadic_exponent(1.0) == 0
    with pytest.raises(ValueError):
        dyadic_exponent(0.1)
    with pytest.raises(ValueError):
        dyadic_exponent(-4.0)


def test_path_level():
    assert path_level(2.0, 5) == 6
    assert path_level(0.5, 16) == 15
    with pytest.raises(ValueError):
        path_level(0.5, 0)  # tau = 1 exceeds T


def test_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(tau=0.1)
    with pytest.raises(ValueError):
        CensusConfig(samples=0)
    with pytest.raises(ValueError):
        ConvergenceConfig(levels=(4, 16), ref_level=16)
    with pytest.raises(ValueError):
        ConvergenceConfig(reference="exact_linear")  # rational g
    with pytest.raises(ValueError):
        ConvergenceConfig(reference="analytic")
    with pytest.raises(ValueError):
        CensusConfig(g_name="cubic")


def test_census_lt_all_positive_small():
    cfg = CensusConfig(g_name="rational", **SMALL_CENSUS)
    rep = positivity_census(cfg)
    counts = rep.positive_counts()
    assert counts[("lt", "rational")] == 10


def test_census_zero_noise_is_deterministic():
    # g = 0: LT/SEM/SEXP reduce to positivity-preserving heat flows, all
    # paths positive; explicit Euler far beyond its stability limit is not
    cfg = CensusConfig(g_name="zero", N=256, samples=4, master_seed=1)
    rep = positivity_census(cfg)
    counts = rep.positive_counts()
    assert counts[("lt", "zero")] == 4
    assert counts[("sem", "zero")] == 4
    assert counts[("sexp", "zero")] == 4
    assert counts[("em", "zero")] == 0


def test_census_zero_noise_stable_em_is_positive():
    # tau * N^2 = 1/2 keeps I + tau A nonnegative, so EM preserves signs
    cfg = CensusConfig(g_name="zero", N=4, samples=3, master_seed=1)
    rep = positivity_census(cfg)
    assert rep.positive_counts()[("em", "zero")] == 3


def test_census_reproducible_and_seed_sensitive():
    cfg = CensusConfig(g_name="rational", **SMALL_CENSUS)
    a = positivity_census(cfg)
    b = positivity_census(cfg)
    assert a.rows == b.rows
    c = positivity_census(CensusConfig(g_name="rational", N=16, samples=10, master_seed=6))
    assert a.rows != c.rows or a.master_seed != c.master_seed


def test_census_worker_count_invariance():
    cfg = CensusConfig(g_name="sineplus", N=16, samples=120, master_seed=9)
    assert positivity_census(cfg, jobs=1).rows == positivity_census(cfg, jobs=4).rows


def test_census_row_schema():
    cfg = CensusConfig(g_name="linear", **SMALL_CENSUS)
    rep = positivity_census(cfg)
    assert rep.columns == CENSUS_COLUMNS
    row = rep.rows[0]
    assert row[0] == "lt" and row[1] == "linear"
    assert row[2] == 2.5 and row[3] == 1 and row[4] == 16
    assert row[6] == 10


def test_study_errors_decrease_and_couple():
    cfg = ConvergenceConfig(g_name="rational", **SMALL_STUDY)
    rep = mean_square_error_study(cfg)
    errs = rep.errors_by_integrator()
    for kind in ("lt", "sem", "sexp"):
        series = [errs[kind][j] for j in (3, 4, 5)]
        assert all(e > 0 for e in series)
        # refinement monotone up to a 10% uptick allowance
        assert all(b <= 1.1 * a for a, b in zip(series, series[1:]))
    assert not rep.diverged


def test_study_linear_lt_is_exact():
    cfg = ConvergenceConfig(
        g_name="linear", reference="exact_linear", integrators=(LT,), **SMALL_STUDY
    )
    rep = mean_square_error_study(cfg)
    for err in rep.errors_by_integrator()["lt"].values():
        assert err <= 1e-9


def test_study_exact_linear_matches_lt_reference():
    # the two reference modes must agree up to the reference's own error
    base = dict(g_name="linear", integrators=(LT, SEXP), **SMALL_STUDY)
    by_ref = {}
    for ref in ("lt", "exact_linear"):
        rep = mean_square_error_study(ConvergenceConfig(reference=ref, **base))
        by_ref[ref] = rep.errors_by_integrator()["sexp"]
    for j in (3, 4, 5):
        assert by_ref["lt"][j] == pytest.approx(by_ref["exact_linear"][j], rel=1e-3)


def test_study_worker_count_invariance():
    cfg = ConvergenceConfig(g_name="rational", N=16, levels=(3, 4), ref_level=7, samples=104, master_seed=2)
    a = mean_square_error_study(cfg, jobs=1)
    b = mean_square_error_study(cfg, jobs=3)
    assert a.rows == b.rows
    assert a.slopes == b.slopes


def test_study_row_schema_and_slope_lines():
    cfg = ConvergenceConfig(g_name="rational", **SMALL_STUDY)
    rep = mean_square_error_study(cfg)
    assert rep.columns == CONVERGENCE_COLUMNS
    levels = [row[5] for row in rep.rows if row[0] == "lt"]
    assert levels == [3, 4, 5]
    taus = [row[6] for row in rep.rows if row[0] == "lt"]
    assert taus == [0.125, 0.0625, 0.03125]
    assert set(rep.slopes) == {"lt", "sem", "sexp"}


def test_fit_slope_recovers_synthetic_rate():
    errors = {j: 3.0 * (2.0**-j) ** 0.5 for j in range(4, 13)}
    assert fit_slope(errors, errors) == pytest.approx(0.5, abs=1e-12)
    assert math.isnan(fit_slope({4: 1.0}, [4]))


def test_fit_levels_exclude_reference_neighbors():
    from spde_lab.experiments import fit_levels

    cfg = ConvergenceConfig(g_name="rational", N=16, levels=(3, 4, 5, 6), ref_level=7, samples=2)
    assert fit_levels(cfg) == [3, 4]
    cfg2 = ConvergenceConfig(
        g_name="linear", reference="exact_linear", N=16, levels=(3, 4, 5, 6), samples=2
    )
    assert fit_levels(cfg2) == [3, 4, 5, 6]


def test_mesh_study_single_n_reduces_to_plain_study():
    cfg = ConvergenceConfig(g_name="rational", integrators=(LT,), **SMALL_STUDY)
    a = mesh_independence_study(cfg, [16])
    b = mean_square_error_study(cfg)
    assert a.rows == b.rows
    assert a.slopes == b.slopes


def test_mesh_study_combines_meshes():
    cfg = ConvergenceConfig(g_name="rational", integrators=(LT,), **SMALL_STUDY)
    rep = mesh_independence_study(cfg, [8, 16])
    ns = {row[4] for row in rep.rows}
    assert ns == {8, 16}
    assert set(rep.slopes) == {"lt[N=8]", "lt[N=16]"}
    assert rep.kind == "mesh_study"


def test_moment_profiles_stable_across_levels():
    cfg = ConvergenceConfig(g_name="rational", N=16, levels=(3, 4, 5), ref_level=8, samples=40, master_seed=3)
    profiles = moment_bound_study(cfg)
    assert set(profiles) == {3, 4, 5}
    sups = [float(p.max()) for p in profiles.values()]
    assert (max(sups) - min(sups)) / min(sups) <= 0.25
    # initial checkpoint is the exact second moment of u0
    for p in profiles.values():
        assert p[0] == pytest.approx(1.0, abs=1e-12)


# -- reports -------------------------------------------------------------------


def test_write_report_census_schema(tmp_path):
    cfg = CensusConfig(g_name="rational", **SMALL_CENSUS)
    rep = positivity_census(cfg)
    out = tmp_path / "census.csv"
    summary = write_report(rep, out)
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "integrator,g,lambda,d,N,tau,samples,positive,diverged"
    assert "lt,rational,2.5,1,16,0.03125,10,10,0" in lines
    assert any(l.startswith("# seed: 5") for l in lines)
    assert any(l.startswith("# rng: philox") for l in lines)
    assert "census" in summary


def test_write_report_convergence_schema(tmp_path):
    cfg = ConvergenceConfig(g_name="rational", **SMALL_STUDY)
    rep = mean_square_error_study(cfg)
    out = tmp_path / "conv.csv"
    write_report(rep, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "integrator,g,lambda,d,N,level,tau,rms_sup_error"
    assert sum(1 for l in lines if l.startswith("# slope:")) == 3
    assert lines[-1].startswith("# slope:")


def test_write_report_byte_identical(tmp_path):
    cfg = CensusConfig(g_name="linear", **SMALL_CENSUS)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(positivity_census(cfg, jobs=1), a)
    write_report(positivity_census(cfg, jobs=2), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_report_empty_integrators(tmp_path):
    cfg = CensusConfig(g_name="linear", integrators=(), **SMALL_CENSUS)
    rep = positivity_census(cfg)
    out = tmp_path / "empty.csv"
    write_report(rep, out)
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert body == ["integrator,g,lambda,d,N,tau,samples,positive,diverged"]


def test_write_report_io_error(tmp_path):
    cfg = CensusConfig(g_name="linear", **SMALL_CENSUS)
    rep = positivity_census(cfg)
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_report(rep, missing)


def test_merge_reports():
    a = positivity_census(CensusConfig(g_name="linear", **SMALL_CENSUS))
    b = positivity_census(CensusConfig(g_name="rational", **SMALL_CENSUS))
    merged = merge_reports([a, b])
    assert len(merged.rows) == len(a.rows) + len(b.rows)
    assert merged.config_echo["g"] == "linear+rational"
    with pytest.raises(ValueError):
        merge_reports([a, mean_square_error_study(ConvergenceConfig(g_name="rational", **SMALL_STUDY))])


# -- the census loop and _run_checkpointed pinned against the hand-written loops


ORACLE_SHAPES = [(1, 256), (1, 16), (2, 16)]


def oracle_increments(B, M, poison=np.nan, tau=2.0**-5, seed=23):
    """Row 1 jumps by 1e300 at step 2, which makes EM overflow within 24
    steps at every oracle shape; row 2 takes ``poison`` at step 5."""
    incr = np.random.default_rng(seed).normal(0.0, math.sqrt(tau), (B, M))
    incr[1, 2] = 1e300
    incr[2, 5] = poison
    return incr


def oracle_setup(d, N, tau=2.0**-5):
    grid = Grid(d, N)
    ctx = StepContext(HeatOperator(grid), from_name("linear", 2.5), tau)
    u0 = sample_initial(InitialData.sine_1d() if d == 1 else InitialData.sine_product_2d(), grid)
    return ctx, u0


def reference_census_counts(ctx, u0, incr, kinds):
    """The census block loop as it was before evolve."""
    B, M = incr.shape
    axes = tuple(range(1, 1 + u0.grid.d))
    out = {}
    for kind in kinds:
        update = UPDATES[kind]
        U = np.broadcast_to(u0.values_nd(), (B,) + u0.grid.shape).copy()
        running_min = np.full(B, min_value(u0))
        finite = np.ones(B, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for m in range(M):
                U, _ = update(ctx, U, incr[:, m])
                running_min = np.minimum(running_min, np.min(U, axis=axes))
                finite &= np.isfinite(U).all(axis=axes)
        positive = finite & (running_min >= 0.0)
        out[kind.value] = (int(positive.sum()), int((~finite).sum()))
    return out


def reference_run_checkpointed(ctx, kind, U, incr, stride):
    """_run_checkpointed as it was before evolve."""
    B, M = incr.shape
    axes = tuple(range(1, U.ndim))
    cps = np.empty((B, M // stride + 1) + U.shape[1:])
    cps[:, 0] = U
    finite = np.ones(B, dtype=bool)
    update = UPDATES[kind]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m in range(M):
            U, _ = update(ctx, U, incr[:, m])
            if (m + 1) % stride == 0:
                cps[:, (m + 1) // stride] = U
                finite &= np.isfinite(U).all(axis=axes)
    return cps, finite


@pytest.mark.parametrize("d,N", ORACLE_SHAPES)
def test_census_matches_reference_loop(monkeypatch, d, N):
    cfg = CensusConfig(d=d, N=N, T=1.0, samples=4, master_seed=3)
    # the census rejects increments whose sums change, and NaN != NaN, so
    # row 2 takes inf: it makes the comparators' fields NaN one step later
    incr = oracle_increments(cfg.samples, cfg.steps, poison=np.inf)
    monkeypatch.setattr(experiments, "sample_increment_batch",
                        lambda T, level, seed, block: incr[block.start:block.stop].copy())
    report = positivity_census(cfg, jobs=1)
    got = {row[0]: (row[7], row[8]) for row in report.rows}
    ctx, u0 = oracle_setup(d, N)
    assert got == reference_census_counts(ctx, u0, incr, cfg.integrators)
    assert got["lt"] == (4, 0)  # the inf exponent is clamped
    assert got["em"][1] == 2 and got["sem"][1] == got["sexp"][1] == 1


@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("d,N", ORACLE_SHAPES)
def test_run_checkpointed_matches_reference_loop_bitwise(kind, d, N):
    ctx, u0 = oracle_setup(d, N)
    incr = oracle_increments(4, 24)
    U = np.broadcast_to(u0.values_nd(), (4,) + u0.grid.shape).copy()
    U.setflags(write=False)
    cps, finite = _run_checkpointed(ctx, kind, U, incr, 4)
    want_cps, want_finite = reference_run_checkpointed(ctx, kind, U, incr, 4)
    assert cps.shape == want_cps.shape and cps.tobytes() == want_cps.tobytes()
    assert finite.tolist() == want_finite.tolist()
    assert finite.tolist() == [True, kind is not IntegratorKind.EM, False, True]

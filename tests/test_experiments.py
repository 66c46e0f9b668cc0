import math
import multiprocessing
import os
import re
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spde_lab import cli, experiments, selftest
from spde_lab.experiments import (
    CENSUS_COLUMNS,
    CENSUS_G,
    CONVERGENCE_COLUMNS,
    CensusConfig,
    ConvergenceConfig,
    _run_checkpointed,
    dyadic_exponent,
    fit_slope,
    mean_square_error_study,
    mesh_independence_study,
    moment_bound_study,
    path_level,
    positivity_census,
    write_report,
)
from spde_lab.heat_operator import HeatOperator, PositivityDiagnosticsError
from spde_lab.integrators import UPDATES, IntegratorKind, StepContext, evolve, run_path
from spde_lab.mesh import Grid, sample_initial, sine_initial
from spde_lab.nonlinearity import from_name

from helpers import oracle_increments, same_bits

LT, EM, SEM, SEXP = (
    IntegratorKind.LT,
    IntegratorKind.EM,
    IntegratorKind.SEM,
    IntegratorKind.SEXP,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
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
    # the errors print the step size, a negative level's too
    with pytest.raises(ValueError, match=re.escape("tau = 2^3 exceeds the horizon T = 2.0")):
        path_level(2.0, -3)
    with pytest.raises(ValueError, match=re.escape("tau = 2^-30 over T = 0.5 takes 2^29 steps")):
        path_level(0.5, 30)


@pytest.mark.parametrize("tau,message", [
    (0.0, "tau = 0.0 is not a positive power of two"),
    (-0.5, "tau = -0.5 is not a positive power of two"),
    (math.nan, "tau = nan is not a positive power of two"),
    (3.0, "tau = 3.0 is not an exact power of two"),
    (5e-324, "tau = 2^-1074 over T = 2.0 takes 2^1075 steps"),
    (8.0, "tau = 2^3 exceeds the horizon T = 2.0"),
])
def test_census_config_checks_tau_itself(tau, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CensusConfig(tau=tau)


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
        CensusConfig(g_names=("cubic",))


def test_study_config_checks_its_coarsest_level_against_the_horizon():
    with pytest.raises(ValueError, match=re.escape("tau = 2^0 exceeds the horizon T = 0.125")):
        ConvergenceConfig(T=0.125, levels=(0, 1, 2, 3), ref_level=6)
    assert ConvergenceConfig(T=0.125, levels=(3, 4), ref_level=6).levels == (3, 4)


@pytest.mark.parametrize("config", [CensusConfig, ConvergenceConfig])
def test_integrators_must_be_integrator_kinds(config):
    with pytest.raises(ValueError, match=re.escape("integrators lists 'lt', which is not an "
                                                   "IntegratorKind")):
        config(integrators=("lt",))
    with pytest.raises(ValueError, match=re.escape("integrators lists 'sem', which is not")):
        config(integrators=(LT, "sem"))
    with pytest.raises(ValueError, match="need at least one integrator"):
        config(integrators=())


def test_g_is_named_by_its_exact_catalogue_spelling():
    with pytest.raises(ValueError, match="unknown nonlinearity 'Rational'"):
        from_name("Rational", 1.0)
    with pytest.raises(ValueError, match="unknown nonlinearity 'Rational'"):
        CensusConfig(g_names=("rational", "Rational"))
    with pytest.raises(ValueError, match="unknown nonlinearity 'LINEAR'"):
        ConvergenceConfig(g_name="LINEAR", reference="exact_linear")


@pytest.mark.parametrize("config", [CensusConfig, ConvergenceConfig])
@pytest.mark.parametrize("field,value,message", [
    ("d", 3, "dimension must be 1 or 2, got 3"),
    ("d", 0, "dimension must be 1 or 2, got 0"),
    ("N", 1, "N must be >= 2, got 1"),
])
def test_config_checks_its_grid_at_construction(config, field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        config(**{field: value})


@pytest.mark.parametrize("config,field,value,message", [
    (CensusConfig, "d", 1.0, "d takes integers, got 1.0"),
    (CensusConfig, "N", 64.0, "N takes integers, got 64.0"),
    (CensusConfig, "samples", 2.5, "samples takes integers, got 2.5"),
    (CensusConfig, "samples", True, "samples takes integers, got True"),
    (CensusConfig, "master_seed", 42.0, "seed takes integers, got 42.0"),
    (ConvergenceConfig, "N", True, "N takes integers, got True"),
    (ConvergenceConfig, "samples", 150.0, "samples takes integers, got 150.0"),
    (ConvergenceConfig, "levels", (2.0, 3), "levels takes integers, got 2.0"),
    (ConvergenceConfig, "levels", (3, False), "levels takes integers, got False"),
    (ConvergenceConfig, "ref_level", 6.0, "ref_level takes integers, got 6.0"),
])
def test_config_rejects_a_float_or_bool_count(config, field, value, message):
    # each used to construct, then fail mid-run inside numpy or write the
    # float or bool into the report ("samples=True" ran one sample)
    with pytest.raises(ValueError, match=re.escape(message)):
        config(**{field: value})


@pytest.mark.parametrize("config,field,value,message", [
    (CensusConfig, "T", True, "T takes a number, got True"),
    (CensusConfig, "tau", True, "tau takes a number, got True"),
    (CensusConfig, "lam", True, "lambda takes a number, got True"),
    (CensusConfig, "lam", np.bool_(False), "lambda takes a number, got np.False_"),
    (ConvergenceConfig, "T", True, "T takes a number, got True"),
    (ConvergenceConfig, "lam", False, "lambda takes a number, got False"),
])
def test_config_rejects_a_bool_number(config, field, value, message):
    # T=True used to run as T = 1 and echo "T=True" into the report
    with pytest.raises(ValueError, match=re.escape(message)):
        config(**{field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = ConvergenceConfig(N=np.int64(16), samples=np.int32(3), levels=(np.int64(3), 4),
                            ref_level=np.int16(8))
    assert cfg.levels == (3, 4) and cfg.ref_level == 8
    census = CensusConfig(d=np.int64(2), N=np.int64(8), samples=np.uint8(3),
                          master_seed=np.uint64(2**64 - 1))
    assert census.samples == 3
    # stored as Python ints, which do not overflow in the memory guard's products
    assert {type(v) for v in (cfg.N, cfg.samples, cfg.ref_level, *cfg.levels, census.d, census.N,
                              census.samples, census.master_seed)} == {int}


@pytest.mark.parametrize("run,config,ints", [
    (positivity_census, partial(CensusConfig, N=8, samples=2, g_names=("linear",)),
     dict(T=2, tau=1, lam=3)),
    (mean_square_error_study, partial(ConvergenceConfig, N=8, samples=2, levels=(3, 4),
                                      ref_level=6), dict(T=1, lam=1)),
], ids=["census", "study"])
def test_equal_configs_write_the_same_bytes(tmp_path, run, config, ints):
    # an int T, tau or lambda was echoed "T=2" where the equal float gave "T=2.0"
    cfgs = config(**ints), config(**{key: float(value) for key, value in ints.items()})
    assert cfgs[0] == cfgs[1]
    assert {type(getattr(cfgs[0], key)) for key in ints} == {float}
    paths = tmp_path / "ints.csv", tmp_path / "floats.csv"
    for cfg, path in zip(cfgs, paths):
        write_report(run(cfg), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("field,name", [("T", "T"), ("tau", "tau"), ("lam", "lambda")])
def test_config_names_a_number_past_float64(field, name):
    # float() raised a bare OverflowError that named no field
    for value in (10**400, Fraction(10**400, 3)):
        with pytest.raises(ValueError, match=f"^{name} overflows float64$"):
            CensusConfig(**{field: value})


def test_a_fraction_horizon_runs():
    # numpy has no ufunc loop for a Fraction: T is stored as a float
    cfg = CensusConfig(N=8, T=Fraction(1, 2), samples=2, g_names=("linear",))
    assert positivity_census(cfg).rows == positivity_census(replace(cfg, T=0.5)).rows
    assert type(cfg.T) is float


def test_study_config_reads_a_generator_of_levels_once():
    # the check loop used to use it up, leaving no level to sort
    assert ConvergenceConfig(levels=(j for j in (4, 3)), ref_level=8).levels == (3, 4)


def test_mesh_study_checks_every_mesh_before_the_first_runs(eight_gb_machine):
    with pytest.raises(ValueError, match=re.escape("N must be >= 2, got 1")):
        mesh_independence_study(ConvergenceConfig(**SMALL_STUDY), [16, 1])


@pytest.mark.parametrize("jobs", [0, -2, 2.0, "2", True])
@pytest.mark.parametrize("run", [
    lambda jobs: positivity_census(CensusConfig(**SMALL_CENSUS), jobs=jobs),
    lambda jobs: mean_square_error_study(ConvergenceConfig(**SMALL_STUDY), jobs=jobs),
    lambda jobs: moment_bound_study(ConvergenceConfig(**SMALL_STUDY), jobs=jobs),
    lambda jobs: mesh_independence_study(ConvergenceConfig(**SMALL_STUDY), [16, 8], jobs=jobs),
    lambda jobs: experiments._map_blocks(100, jobs, lambda block: {"n": len(block)}),
], ids=["census", "study", "moments", "mesh-study", "map_blocks"])
def test_jobs_below_one_is_rejected_before_any_work(eight_gb_machine, run, jobs):
    # 2.0 and "2" failed inside the pool, and True ran on one worker
    message = (f"jobs must be >= 1, got {jobs}" if type(jobs) is int
               else f"jobs takes integers, got {jobs!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run(jobs)


def test_mesh_study_needs_at_least_one_mesh():
    with pytest.raises(ValueError, match="need at least one N"):
        mesh_independence_study(ConvergenceConfig(**SMALL_STUDY), [])


@pytest.mark.parametrize("N_values,message", [
    ([16.7], "N takes integers, got 16.7"),  # int() made it N = 16
    (["16"], "N takes integers, got '16'"),
    ([True, 16], "N takes integers, got True"),  # int() made it N = 1
])
def test_mesh_study_checks_each_N_as_the_config_does(eight_gb_machine, N_values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        mesh_independence_study(ConvergenceConfig(**SMALL_STUDY), N_values)


def test_mesh_study_reads_a_generator_of_meshes_once():
    cfg = ConvergenceConfig(**{**SMALL_STUDY, "samples": 2})
    got = mesh_independence_study(cfg, (N for N in (8, 16)))
    assert got.rows == mesh_independence_study(cfg, [8, 16]).rows


def test_numpy_integer_samples_run_without_a_warning():
    # the guard's B x 8 overflowed a uint8 and warned on every run
    cfg = CensusConfig(N=16, T=0.5, g_names=("linear",), samples=np.uint8(50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = positivity_census(cfg)
    assert report.rows == positivity_census(replace(cfg, samples=50)).rows


def test_census_lt_all_positive_small():
    cfg = CensusConfig(g_names=("rational",), **SMALL_CENSUS)
    rep = positivity_census(cfg)
    counts = rep.positive_counts()
    assert counts[("lt", "rational")] == 10


def test_census_zero_noise_is_deterministic():
    # g = 0: LT/SEM/SEXP reduce to positivity-preserving heat flows, all
    # paths positive; explicit Euler far beyond its stability limit is not
    cfg = CensusConfig(g_names=("zero",), N=256, samples=4, master_seed=1)
    rep = positivity_census(cfg)
    counts = rep.positive_counts()
    assert counts[("lt", "zero")] == 4
    assert counts[("sem", "zero")] == 4
    assert counts[("sexp", "zero")] == 4
    assert counts[("em", "zero")] == 0


def test_census_zero_noise_stable_em_is_positive():
    # tau * N^2 = 1/2 keeps I + tau A nonnegative, so EM preserves signs
    cfg = CensusConfig(g_names=("zero",), N=4, samples=3, master_seed=1)
    rep = positivity_census(cfg)
    assert rep.positive_counts()[("em", "zero")] == 3


def linear_rule_count(cfg):
    """Paths whose every step factor 1 + lambda dbeta_k is >= 0. For g(v) =
    lambda v, SEM and SEXP multiply the field by that factor and then apply
    a nonnegative operator, so these are exactly their positive paths."""
    incr = experiments.sample_increment_batch(cfg.T, path_level(cfg.T, cfg.level),
                                              cfg.master_seed, range(cfg.samples))
    return int(np.all(1.0 + cfg.lam * incr >= 0.0, axis=1).sum())


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8), (2, 16)])
@settings(max_examples=25)
@given(level=st.integers(1, 9), lam=st.floats(-6.0, 6.0), seed=st.integers(0, 2**64 - 1))
@example(level=5, lam=2.5, seed=42)  # the stored census's tau, lambda and seed
def test_linear_census_rows_follow_the_increment_rule(d, N, level, lam, seed):
    cfg = CensusConfig(d=d, N=N, tau=2.0**-level, g_names=("linear",), lam=lam, samples=40,
                       master_seed=seed, integrators=(SEM, SEXP))
    rows = {row[0]: (row[7], row[8]) for row in positivity_census(cfg).rows}
    rule = linear_rule_count(cfg)
    assert rows == {"sem": (rule, 0), "sexp": (rule, 0)}


def test_census_reproducible_and_seed_sensitive():
    cfg = CensusConfig(g_names=("rational",), **SMALL_CENSUS)
    a = positivity_census(cfg)
    b = positivity_census(cfg)
    assert a.rows == b.rows
    c = positivity_census(CensusConfig(g_names=("rational",), N=16, samples=10, master_seed=6))
    assert a.rows != c.rows or a.master_seed != c.master_seed


def test_census_worker_count_invariance():
    cfg = CensusConfig(g_names=("sineplus",), N=16, samples=120, master_seed=9)
    assert positivity_census(cfg, jobs=1).rows == positivity_census(cfg, jobs=4).rows


def test_census_row_schema():
    cfg = CensusConfig(g_names=("linear",), **SMALL_CENSUS)
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


def test_fit_slope_counts_a_repeated_level_once():
    # a single level listed twice has no slope: NaN, not a 0/0 RuntimeWarning
    assert math.isnan(fit_slope({4: 1.0}, [4, 4]))
    errors = {4: 0.3, 5: 0.2, 6: 0.05}
    assert fit_slope(errors, [4, 5, 4, 6, 6]) == fit_slope(errors, [4, 5, 6])


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


@given(Ns=st.lists(st.sampled_from((16, 32, 64)), min_size=2, max_size=3, unique=True),
       samples=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
def test_mesh_study_counts_divergences_per_mesh(Ns, samples, seed):
    # at T 16 and tau 2^-3 explicit Euler overflows on N >= 32, so every example has counts
    cfg = ConvergenceConfig(T=16.0, levels=(2, 3), ref_level=5, integrators=(LT, EM),
                            samples=samples, master_seed=seed)
    rep = mesh_independence_study(cfg, Ns)
    assert rep.diverged
    for name, count in rep.diverged.items():
        assert 0 < count <= samples, name
        assert re.fullmatch(r"em@[23]\[N=(16|32|64)\]", name), name
    assert rep.diverged == {f"{name}[N={N}]": count for N in Ns
                            for name, count in mean_square_error_study(replace(cfg, N=N)).diverged.items()}


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
    cfg = CensusConfig(g_names=("rational",), **SMALL_CENSUS)
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
    cfg = CensusConfig(g_names=("linear",), **SMALL_CENSUS)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(positivity_census(cfg, jobs=1), a)
    write_report(positivity_census(cfg, jobs=2), b)
    assert a.read_bytes() == b.read_bytes()


@needs_fork
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=st.sampled_from((1, 2)), N=st.sampled_from((4, 8)), g=st.sampled_from(CENSUS_G),
       blocks=st.integers(1, 3), tail=st.integers(1, experiments.BLOCK_SAMPLES),
       seed=st.integers(0, 2**64 - 1), ref_level=st.integers(5, 7))
def test_report_bytes_do_not_depend_on_jobs(tmp_path, four_cpu_machine, d, N, g, blocks, tail,
                                            seed, ref_level):
    samples = experiments.BLOCK_SAMPLES * (blocks - 1) + tail
    shared = dict(d=d, N=N, samples=samples, master_seed=seed)
    runs = ((positivity_census, CensusConfig(T=0.5, g_names=(g,), **shared)),
            (mean_square_error_study, ConvergenceConfig(g_name=g, levels=(2, 3, 4),
                                                        ref_level=ref_level, **shared)))
    assert experiments._workers(samples, 3) == blocks  # jobs 2 and 3 fork when blocks allow
    for run, cfg in runs:
        written = []
        for jobs in (1, 2, 3):
            write_report(run(cfg, jobs=jobs), tmp_path / f"jobs{jobs}.csv")
            written.append((tmp_path / f"jobs{jobs}.csv").read_bytes())
        assert written[1] == written[0] and written[2] == written[0], (run.__name__, cfg)


def test_write_report_empty_integrators(tmp_path):
    # a config needs an integrator, but a report without rows still writes
    rep = positivity_census(CensusConfig(g_names=("linear",), **SMALL_CENSUS))
    rep.rows = []
    out = tmp_path / "empty.csv"
    write_report(rep, out)
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert body == ["integrator,g,lambda,d,N,tau,samples,positive,diverged"]


def test_write_report_io_error(tmp_path):
    cfg = CensusConfig(g_names=("linear",), **SMALL_CENSUS)
    rep = positivity_census(cfg)
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_report(rep, missing)


# -- one census over several g


def counting(monkeypatch, name):
    """Wrap experiments.<name>, counting its calls."""
    calls = []
    real = getattr(experiments, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_census_over_all_g_equals_merged_single_g_reports(monkeypatch, four_cpu_machine, jobs):
    # at lambda 3, T 4 and N 128 the comparators lose positivity or diverge on
    # some samples, so the counts, and the divergences summed over g, vary
    cfg = CensusConfig(g_names=CENSUS_G, N=128, T=4.0, lam=3.0, samples=105, master_seed=8)
    singles = [positivity_census(replace(cfg, g_names=(g,)), jobs=jobs) for g in CENSUS_G]
    maps, draws = counting(monkeypatch, "_map_blocks"), counting(monkeypatch, "sample_increment_batch")
    combined = positivity_census(cfg, jobs=jobs)
    assert len(maps) == 1
    if jobs == 1:  # the draws of forked workers are not seen here
        assert len(draws) == 3  # one per block, shared by every g and integrator
    assert combined.rows == [row for single in singles for row in single.rows]
    assert combined.diverged == sum((Counter(single.diverged) for single in singles), Counter())
    assert combined.config_echo == {**singles[0].config_echo, "g": "+".join(sorted(CENSUS_G))}
    assert combined.diverged and 0 < sum(row[7] for row in combined.rows) < 16 * 105


def three_block_study(**overrides):
    return ConvergenceConfig(**{**SMALL_STUDY, "samples": 120, **overrides})


@pytest.mark.parametrize("run,fine,coarse", [
    (lambda: positivity_census(CensusConfig(N=16, T=0.5, samples=120), jobs=1), 4, [4]),
    (lambda: mean_square_error_study(three_block_study(), jobs=1), 7, [2, 3, 4]),
    (lambda: mean_square_error_study(three_block_study(g_name="linear", reference="exact_linear"),
                                     jobs=1), 7, [2, 3, 4]),
    (lambda: moment_bound_study(three_block_study(), jobs=1), 4, [2, 3, 4]),
], ids=["census", "study", "exact-linear-study", "moments"])
def test_every_driver_maps_its_blocks_once_and_draws_once_per_block(monkeypatch, run, fine, coarse):
    # every driver runs the one block loop: per block one draw at the fine
    # path level, then one coarsening per run level (the census's is the identity)
    maps = counting(monkeypatch, "_map_blocks")
    draws = counting(monkeypatch, "sample_increment_batch")
    coarsenings = counting(monkeypatch, "coarsen_increments")
    run()
    blocks = [range(0, 50), range(50, 100), range(100, 120)]
    assert len(maps) == 1
    assert [(args[1], args[3]) for args in draws] == [(fine, block) for block in blocks]
    assert [args[1:] for args in coarsenings] == [(fine, level) for level in coarse] * 3


def test_census_cli_makes_one_block_map_per_invocation(tmp_path, monkeypatch):
    maps = counting(monkeypatch, "_map_blocks")
    out = tmp_path / "census.csv"
    assert cli.main(["census", "--N", "16", "--T", "0.5", "--samples", "3", "--jobs", "1",
                     "--out", str(out)]) == 0
    assert len(maps) == 1
    assert "# config: d=1 T=0.5 tau=0.03125 N=16 g=linear+log1p+rational+sineplus" in \
        out.read_text(encoding="utf-8")


def test_census_needs_at_least_one_g():
    with pytest.raises(ValueError, match="need at least one g"):
        CensusConfig(g_names=(), **SMALL_CENSUS)
    # a bare string is not split into one-letter names
    with pytest.raises(ValueError, match="g_names takes a tuple of names, not the string 'rational'"):
        CensusConfig(g_names="rational")
    assert CensusConfig(g_names=["rational"]).g_names == ("rational",)


@pytest.mark.parametrize("make,message", [
    (lambda: CensusConfig(integrators=(LT, EM, EM)), "integrators lists em more than once"),
    (lambda: ConvergenceConfig(integrators=(SEXP, LT, SEXP)), "integrators lists sexp more than once"),
    (lambda: ConvergenceConfig(levels=(2, 3, 2), ref_level=5), "levels lists 2 more than once"),
    (lambda: CensusConfig(g_names=("rational", "linear", "rational")),
     "g lists rational more than once"),
    (lambda: mesh_independence_study(ConvergenceConfig(**SMALL_STUDY), [8, 16, 8]),
     "N lists 8 more than once"),
])
def test_duplicate_list_entries_are_rejected(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("config", [CensusConfig, ConvergenceConfig])
def test_seed_must_fit_the_64_bit_key(config):
    for seed in (-1, 2**64, 2**64 + 42):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2^64), got {seed}")):
            config(master_seed=seed)
    assert config(master_seed=0).master_seed == 0
    assert config(master_seed=2**64 - 1).master_seed == 2**64 - 1


def echoed_keys(report, tmp_path):
    out = tmp_path / "echo.csv"
    write_report(report, out)
    (line,) = [l for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("# config: ")]
    return [item.split("=", 1)[0] for item in line[len("# config: "):].split(" ")]


def field_keys(cfg):
    names = {"g_name": "g", "g_names": "g", "lam": "lambda"}
    return [names.get(f.name, f.name) for f in fields(cfg) if f.name != "master_seed"]


def test_config_echo_lists_every_field_but_the_seed_in_order(tmp_path):
    census = CensusConfig(g_names=("linear",), **SMALL_CENSUS)
    study = ConvergenceConfig(g_name="rational", **SMALL_STUDY)
    assert echoed_keys(positivity_census(census), tmp_path) == field_keys(census)
    assert echoed_keys(mean_square_error_study(study), tmp_path) == field_keys(study)
    mesh = mesh_independence_study(replace(study, samples=2), [8, 16])
    assert echoed_keys(mesh, tmp_path) == field_keys(study)
    assert mesh.config_echo["N"] == "8,16"


# -- the census and the studies against the dense oracle, whose one run loop,
# selftest.dense_runs, mirrors _coupled_sums (the census is its one-level
# case); _run_checkpointed against the fields evolve visits


ORACLE_SHAPES = [(1, 256), (1, 16), (2, 16)]


def oracle_setup(d, N, tau=2.0**-5):
    grid = Grid(d, N)
    ctx = StepContext(HeatOperator(grid), from_name("linear", 2.5), tau)
    u0 = sample_initial(sine_initial, grid)
    return ctx, u0


@pytest.mark.parametrize("d,N", ORACLE_SHAPES)
def test_census_matches_dense_oracle_on_poisoned_increments(monkeypatch, d, N):
    cfg = CensusConfig(d=d, N=N, T=1.0, g_names=("linear",), samples=4, master_seed=3)
    # row 2 takes inf: LT clamps its exponent, and it makes the comparators'
    # fields NaN one step later
    incr = oracle_increments(cfg.samples, 2 ** path_level(cfg.T, cfg.level), poison=np.inf)

    def draw(T, level, seed, block):
        return incr[block.start:block.stop].copy()

    monkeypatch.setattr(experiments, "sample_increment_batch", draw)
    monkeypatch.setattr(selftest, "sample_increment_batch", draw)
    got = {(row[0], row[1]): (row[7], row[8]) for row in positivity_census(cfg, jobs=1).rows}
    assert got == selftest.dense_census(cfg)
    assert got["lt", "linear"] == (4, 0)  # the inf exponent is clamped
    assert got["em", "linear"][1] == 2 and got["sem", "linear"][1] == got["sexp", "linear"][1] == 1


@pytest.mark.parametrize("kind", list(IntegratorKind))
@pytest.mark.parametrize("d,N", ORACLE_SHAPES)
@pytest.mark.parametrize("stride", [1, 3, 4, 5])
def test_run_checkpointed_stores_the_fields_at_every_stride_th_step(stride, d, N, kind):
    # evolve visits every field; _run_checkpointed keeps steps 0, s, 2s, ...
    ctx, u0 = oracle_setup(d, N)
    incr = oracle_increments(4, 24)
    U = np.broadcast_to(u0, (4,) + u0.shape)
    fields = []
    evolve(ctx, kind, U, incr, lambda i, V: fields.append(V.copy()))
    cps, finite = _run_checkpointed(ctx, kind, U, incr, stride)
    kept = fields[::stride]
    assert cps.shape == (4, len(kept)) + u0.shape
    assert all(cps[:, k].tobytes() == field.tobytes() for k, field in enumerate(kept))
    assert finite.tolist() == [bool(np.isfinite(cps[b, 1:]).all()) for b in range(4)]
    assert finite.tolist() == [True, kind is not EM, False, True]


@pytest.mark.parametrize("d,N", [(1, 16), (2, 8)])
def test_moment_study_matches_dense_lt_runs(d, N):
    cfg = ConvergenceConfig(d=d, N=N, g_name="rational", lam=1.5, levels=(3, 4, 5),
                            ref_level=8, samples=104, master_seed=3, integrators=(LT,))
    got = moment_bound_study(cfg, jobs=1)
    forked = moment_bound_study(cfg, jobs=3)
    assert list(got) == list(forked) == [3, 4, 5]
    assert all(same_bits(got[j], forked[j]) for j in got)
    runs = selftest.dense_runs(cfg, max(cfg.levels), (cfg.g_name,), cfg.levels)
    for j in cfg.levels:
        cps, finite = runs["rational", LT, j]
        assert finite.all()
        want = np.max(np.sum(cps * cps, axis=0), axis=1) / cfg.samples
        np.testing.assert_allclose(got[j], want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("d,N", [(1, 16), (2, 8)])
def test_exact_linear_study_matches_dense_runs(d, N):
    cfg = ConvergenceConfig(d=d, N=N, g_name="linear", lam=2.759, levels=(3, 4, 5), ref_level=7,
                            samples=104, master_seed=9, reference="exact_linear",
                            integrators=(LT, SEM, SEXP))
    rep = mean_square_error_study(cfg, jobs=1)
    forked = mean_square_error_study(cfg, jobs=3)
    assert rep.rows == forked.rows and rep.slopes == forked.slopes
    assert not rep.diverged
    got = {(row[0], row[5]): row[7] for row in rep.rows}
    runs = selftest.dense_runs(cfg, cfg.ref_level, ("linear",), cfg.levels)
    incr = experiments.sample_increment_batch(cfg.T, path_level(cfg.T, cfg.ref_level),
                                              cfg.master_seed, range(cfg.samples))
    # the exact solution expm(t A) u0 exp(lam beta(t) - lam^2 t / 2) at the checkpoints
    M0 = 2 ** path_level(cfg.T, cfg.levels[0])
    times = np.arange(M0 + 1) * (cfg.T / M0)
    A = selftest.dense_laplacian(d, N)
    u0 = sample_initial(sine_initial, Grid(d, N)).reshape(-1)
    heat = np.stack([scipy.linalg.expm(t * A) @ u0 for t in times])
    stride = incr.shape[1] // M0
    beta = np.cumsum(incr, axis=1)[:, stride - 1::stride]
    beta = np.concatenate([np.zeros((cfg.samples, 1)), beta], axis=1)
    exact = np.exp(cfg.lam * beta - 0.5 * cfg.lam**2 * times)[:, :, None] * heat
    for (_, kind, j), (cps, finite) in runs.items():
        assert finite.all()
        want = math.sqrt(np.max(np.sum((cps - exact) ** 2, axis=0)) / cfg.samples)
        if kind is LT:  # exact for linear g, in the package and in the dense steps
            assert got["lt", j] < 1e-13 and want < 1e-13
        else:
            assert abs(got[kind.value, j] - want) <= 1e-10 * want, (kind, j)


def closed_form_rms_sup_errors(cfg):
    """(integrator, level) -> the square root of the largest expected squared
    error over the checkpoints, for g(v) = lam v against the exact solution.
    The sine initial data is the first sine mode, mu1 its eigenvalue, and
    every scheme keeps the field a multiple of it, 1 at u0's peak. At t = m
    tau, with r = 1 / (1 - tau mu1) and a = (1 + lam^2 tau)^m:
      SEXP: E err^2 = (e^(lam^2 t) - a) e^(2 mu1 t);
      SEM:  E err^2 = a r^(2m) - 2 a r^m e^(mu1 t) + e^(lam^2 t) e^(2 mu1 t)."""
    mu1 = -4 * cfg.d * cfg.N**2 * math.sin(math.pi / (2 * cfg.N)) ** 2
    M0 = 2 ** path_level(cfg.T, cfg.levels[0])
    errors = {}
    for j in cfg.levels:
        tau = 2.0**-j
        r = 1 / (1 - tau * mu1)
        sem, sexp = [], []
        for t in np.arange(1, M0 + 1) * (cfg.T / M0):
            m = round(t / tau)
            a, noise = (1 + cfg.lam**2 * tau) ** m, math.exp(cfg.lam**2 * t)
            sexp.append((noise - a) * math.exp(2 * mu1 * t))
            sem.append(a * r ** (2 * m) - 2 * a * r**m * math.exp(mu1 * t)
                       + noise * math.exp(2 * mu1 * t))
        errors["sem", j], errors["sexp", j] = math.sqrt(max(sem)), math.sqrt(max(sexp))
    return errors


@pytest.mark.parametrize("d,N", [(1, 16), (2, 8)])
def test_exact_linear_study_follows_the_closed_form_expected_error(d, N):
    # rms_sup_error / closed form lies within 5 standard errors of 1; the
    # ratio's standard error at 3000 samples is at most 1.3% (SEM) and 4.9%
    # (SEXP, coarsest level), from a 200 000-path simulation of the statistic
    cfg = ConvergenceConfig(d=d, N=N, g_name="linear", lam=1.0, T=0.5, levels=range(3, 10),
                            ref_level=9, samples=3000, master_seed=42, reference="exact_linear",
                            integrators=(SEM, SEXP))
    got = {(row[0], row[5]): row[7] for row in mean_square_error_study(cfg).rows}
    band = {"sem": 0.07, "sexp": 0.25}
    for (kind, j), want in closed_form_rms_sup_errors(cfg).items():
        assert abs(got[kind, j] / want - 1) <= band[kind], (kind, j, got[kind, j] / want)


def test_moment_study_non_finite_lt_field_raises(monkeypatch):
    real = UPDATES[LT]

    def nan_in_first_sample(ctx, U, db):
        out, clamped = real(ctx, U, db)
        out[0] = np.nan
        return out, clamped

    monkeypatch.setitem(UPDATES, LT, nan_in_first_sample)
    cfg = ConvergenceConfig(g_name="rational", N=16, levels=(3, 4), ref_level=8, samples=4)
    with pytest.raises(FloatingPointError, match="LT moment run produced non-finite values"):
        moment_bound_study(cfg)


@pytest.mark.parametrize("jobs", [1, 3])
def test_study_overflowing_squared_error_is_silent(jobs):
    # EM stays finite but far from the reference: its squared error sums
    # to 2.3e118 at level 4 and overflows to inf at level 5, with no
    # sample counted as diverged and no RuntimeWarning
    cfg = ConvergenceConfig(N=256, T=2, levels=(4, 5), ref_level=8, lam=3,
                            integrators=(LT, EM, SEM))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = mean_square_error_study(cfg, jobs=jobs)
    assert rep.errors_by_integrator()["em"] == {4: 2.325927709443604e118, 5: math.inf}
    assert not rep.diverged


# -- the census increment guard and the block reduction


def census_counts(monkeypatch, cfg, incr):
    """(integrator -> (positive, diverged)) of a census on the given increments."""
    with monkeypatch.context() as mp:
        mp.setattr(experiments, "sample_increment_batch",
                   lambda T, level, seed, block: incr[block.start:block.stop].copy())
        report = positivity_census(cfg, jobs=1)
    return {row[0]: (row[7], row[8]) for row in report.rows}


@pytest.mark.parametrize("d,N", [(1, 16), (2, 8)])
def test_census_nan_increment_counts_as_diverged(monkeypatch, d, N):
    cfg = CensusConfig(d=d, N=N, T=1.0, g_names=("linear",), samples=4, master_seed=3)
    incr = experiments.sample_increment_batch(cfg.T, path_level(cfg.T, cfg.level), 3, range(4))
    clean = census_counts(monkeypatch, cfg, incr)
    alone = census_counts(monkeypatch, replace(cfg, samples=1), incr[1:2])
    poisoned = incr.copy()
    poisoned[1, 5] = np.nan
    got = census_counts(monkeypatch, cfg, poisoned)
    for kind in cfg.integrators:
        pos, div = clean[kind.value]
        pos1, div1 = alone[kind.value]
        assert got[kind.value] == (pos - pos1, div - div1 + 1), kind


def writes_into_db(kind):
    """UPDATES[kind] with a write into its increment before the step."""
    real = UPDATES[kind]

    def update(ctx, U, db):
        db += 1.0
        return real(ctx, U, db)

    return update


def test_census_update_writing_into_increments_raises(monkeypatch):
    monkeypatch.setitem(UPDATES, SEM, writes_into_db(SEM))
    with pytest.raises(ValueError, match="read-only"):
        positivity_census(CensusConfig(N=16, T=1.0, g_names=("linear",), samples=3))


@pytest.mark.parametrize("reference", ["lt", "exact_linear"])
def test_study_update_writing_into_increments_raises(monkeypatch, reference):
    # unguarded, the write would reach every later run of the block
    monkeypatch.setitem(UPDATES, LT, writes_into_db(LT))
    cfg = ConvergenceConfig(g_name="linear", reference=reference, integrators=(LT,), **SMALL_STUDY)
    with pytest.raises(ValueError, match="read-only"):
        mean_square_error_study(cfg)


def writes_into_start(kind):
    """UPDATES[kind] with a write into its start field before the step."""
    real = UPDATES[kind]

    def update(ctx, U, db):
        U += 0.0
        return real(ctx, U, db)

    return update


def test_update_writing_into_its_start_field_raises(monkeypatch):
    # every run of a block starts from one read-only view of u0, so a write
    # into it fails where a per-run copy would have hidden it
    monkeypatch.setitem(UPDATES, LT, writes_into_start(LT))
    with pytest.raises(ValueError, match="read-only"):
        positivity_census(CensusConfig(N=16, T=1.0, g_names=("linear",), samples=3,
                                       integrators=(LT,)), jobs=1)
    cfg = ConvergenceConfig(g_name="linear", integrators=(LT,), **SMALL_STUDY)
    with pytest.raises(ValueError, match="read-only"):
        mean_square_error_study(cfg, jobs=1)


def test_run_path_update_writing_into_increments_raises(monkeypatch):
    monkeypatch.setitem(UPDATES, LT, writes_into_db(LT))
    ctx, u0 = oracle_setup(1, 16)
    incr = np.full(4, 0.1)
    with pytest.raises(ValueError, match="read-only"):
        run_path(LT, ctx, u0, incr)
    assert np.all(incr == 0.1)


@pytest.mark.parametrize("jobs", [1, 3])
def test_map_blocks_adds_up_in_block_order(jobs):
    parts = {
        start: np.random.default_rng(start).normal(size=(5, 7)) * 10.0 ** (start % 17)
        for start in range(0, 230, experiments.BLOCK_SAMPLES)
    }
    total = experiments._map_blocks(
        230, jobs, lambda block: {"sq": parts[block.start].copy(), "n": len(block)}
    )
    want = parts[0].copy()
    for start in sorted(parts)[1:]:
        want += parts[start]
    assert total["n"] == 230
    assert total["sq"].tobytes() == want.tobytes()


def pid_task(block):
    return {"starts": [block.start], "pids": [os.getpid()]}


@needs_fork
@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_map_blocks_parent_runs_every_wth_block(four_cpu_machine, jobs):
    for n_blocks in range(1, 8):
        samples = experiments.BLOCK_SAMPLES * n_blocks - 7  # a short last block
        total = experiments._map_blocks(samples, jobs, pid_task)
        w = min(jobs, n_blocks)
        assert total["starts"] == list(range(0, samples, experiments.BLOCK_SAMPLES))
        in_parent = [pid == os.getpid() for pid in total["pids"]]
        assert in_parent == [i % w == 0 for i in range(n_blocks)], (jobs, n_blocks)
        assert len(set(total["pids"])) <= w  # a worker may take several blocks


class FakePool:
    """Records the worker count it is asked for and runs the blocks in
    process, starting nothing."""

    sizes = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        FakePool.sizes.append(max_workers)
        initializer(*initargs)

    def map(self, func, iterable):
        return map(func, iterable)

    def shutdown(self, cancel_futures):
        pass


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.sizes = []
    monkeypatch.setattr(experiments.multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
    return FakePool.sizes


def test_worker_count_is_capped_at_the_cpus(four_cpu_machine, eight_gb_machine, fake_pool):
    total = experiments._map_blocks(250_000, 5000, lambda block: {"n": len(block)})
    assert total["n"] == 250_000
    assert fake_pool == [3]  # four processes: the parent and three workers
    # the memory guard counts the same blocks in flight
    with pytest.raises(ValueError, match=re.escape("4 block(s) in flight")):
        experiments._check_memory(CensusConfig(samples=250_000), 5000, 24)


def test_worker_count_builds_no_block_list(four_cpu_machine, fake_pool):
    # listing the 200,000 blocks took 24 MB, and a MemoryError before the guard's verdict
    tracemalloc.start()
    try:
        assert experiments._workers(10**7, 3) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@needs_fork
@pytest.mark.parametrize("error", [ValueError, PositivityDiagnosticsError])
def test_worker_exception_reaches_the_caller(four_cpu_machine, error):
    def task(block):
        if block.start == 50:  # the first worker block at two processes
            raise error(f"block {block.start} failed")
        return {"n": len(block)}

    with pytest.raises(error, match="^block 50 failed$"):
        experiments._map_blocks(150, 2, task)


@needs_fork
def test_dead_worker_fails_the_run(four_cpu_machine):
    parent = os.getpid()

    def task(block):
        if block.start == 50 and os.getpid() != parent:
            os._exit(3)
        return {"n": len(block)}

    with pytest.raises(BrokenProcessPool):
        experiments._map_blocks(150, 2, task)


def test_without_fork_blocks_run_in_process(monkeypatch, four_cpu_machine):
    monkeypatch.setattr(experiments.multiprocessing, "get_all_start_methods", lambda: ["spawn"])

    def no_pool(*args):
        raise AssertionError("a pool was started without fork")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    total = experiments._map_blocks(200, 4, pid_task)
    assert total["pids"] == [os.getpid()] * 4
    assert total["starts"] == [0, 50, 100, 150]


# -- the up-front memory guard


@pytest.mark.parametrize("driver", [mean_square_error_study, moment_bound_study])
def test_memory_guard_rejects_2d_n4096_study(eight_gb_machine, driver):
    # the studies draw paths at different levels: 2^13 and 2^9 increments
    gigabytes = {mean_square_error_study: "134.16", moment_bound_study: "134.15"}[driver]
    with pytest.raises(ValueError, match=f"needs at least {gigabytes} GB") as exc:
        driver(ConvergenceConfig.default_2d(N=4096), jobs=1)
    assert "1 block(s) in flight" in str(exc.value)
    assert "two 50 x 150921225 checkpoint arrays" in str(exc.value)


def test_memory_guard_checks_every_mesh_first(eight_gb_machine, four_cpu_machine):
    cfg = ConvergenceConfig(d=2, lam=1.5, integrators=(LT,))
    with pytest.raises(ValueError) as exc:
        mesh_independence_study(cfg, [16, 64, 256, 1024], jobs=2)
    msg = str(exc.value)
    assert "2 block(s) in flight" in msg
    assert ("50 x 2^15 increments, two 50 x 1046529 fields (step input and output), "
            "two 50 x 9418761 checkpoint arrays") in msg
    assert "needs at least 16.77 GB" in msg and "machine has 8.59 GB" in msg


def test_memory_guard_rejects_census_increments(eight_gb_machine, four_cpu_machine):
    message = "4 block(s) in flight, each holding 50 x 2^24 increments, two 50 x 255 fields"
    with pytest.raises(ValueError, match=re.escape(message)):
        positivity_census(CensusConfig(tau=2.0**-23, T=2.0, samples=200), jobs=4)


def test_memory_guard_counts_the_field_batch(eight_gb_machine, capsys, tmp_path):
    # one 50 x 8191^2 field is 27 GB; the increments alone are 26 KB
    out = tmp_path / "census.csv"
    argv = ["census", "--d", "2", "--N", "8192", "--samples", "50", "--jobs", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "needs at least 53.67 GB" in err
    assert "each holding 50 x 2^6 increments, two 50 x 67092481 fields (step input and output)" in err
    assert not out.exists()


def test_memory_guard_gives_a_numpy_integer_the_verdict_of_an_int(eight_gb_machine):
    # in a numpy integer's fixed width the guard's product overflowed, so a
    # census needing 3.7e12 GB passed it with only a RuntimeWarning
    verdicts = []
    for N in (2**31, np.int64(2**31)):
        with pytest.raises(ValueError, match="needs at least 3689348811305.94 GB") as exc:
            positivity_census(CensusConfig(d=2, N=N), jobs=1)
        verdicts.append(str(exc.value))
    assert verdicts[0] == verdicts[1]


def test_memory_guard_passes_runs_that_fit(eight_gb_machine):
    experiments._check_memory(ConvergenceConfig(), 2, 15)  # 1d convergence default
    experiments._check_memory(ConvergenceConfig(d=2, N=256), 2, 15)  # 2d mesh-study at N = 256
    experiments._check_memory(CensusConfig.default_2d(N=1024), 2, 6)

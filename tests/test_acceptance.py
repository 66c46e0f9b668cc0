"""Acceptance suite: the positivity censuses and convergence studies at
their full reference parameters, plus the selftest's dense oracle.

Each check prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report). The Monte Carlo studies run at full scale, so this module
takes a few minutes; run ``pytest tests/test_acceptance.py -v -s`` to watch.

Known state of the strong-order slope checks: the fitted slopes over the
requested coarse step-size window include a genuine pre-asymptotic
transient of the schemes themselves (measured and cross-checked against an
independent dense-matrix implementation), so the [0.4, 0.6] band fails for
some integrators at noise intensity lambda = 1 even though the asymptotic
rate is 1/2. The checks assert the stated band faithfully rather than
widening it; the README's "measured convergence behavior" section has the
full numbers.
"""

import time

import pytest

from spde_lab.experiments import (
    CENSUS_G,
    CensusConfig,
    ConvergenceConfig,
    mean_square_error_study,
    mesh_independence_study,
    moment_bound_study,
    positivity_census,
)
from spde_lab.integrators import IntegratorKind
from spde_lab import selftest

JOBS = 2
LT_ONLY = (IntegratorKind.LT,)


def _report(tag: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} ({detail})")


# -- shared full-scale runs (computed once) -----------------------------------


@pytest.fixture(scope="session")
def census_1d():
    # one census over the four g, as the CLI runs it; counts keyed (integrator, g)
    counts = positivity_census(CensusConfig(g_names=CENSUS_G), jobs=JOBS).positive_counts()
    return {g: counts for g in CENSUS_G}


@pytest.fixture(scope="session")
def census_2d():
    counts = positivity_census(CensusConfig.default_2d(g_names=CENSUS_G),
                               jobs=JOBS).positive_counts()
    return {g: counts for g in CENSUS_G}


@pytest.fixture(scope="session")
def study_rational_1d():
    # g(v) = v/(1+v^2), N=2^8, T=0.5, S=150, levels 4..12 vs LT at 2^-16
    return mean_square_error_study(ConvergenceConfig(), jobs=JOBS)


# -- criterion 1: LT positivity in 1d -----------------------------------------


@pytest.mark.parametrize("g", CENSUS_G)
def test_01_lt_positivity_1d(census_1d, g):
    count = census_1d[g][("lt", g)]
    _report(f"1 LT census 1d g={g}", count == 100, f"{count}/100")
    assert count == 100


# -- criterion 2: comparators lose positivity in 1d ---------------------------


@pytest.mark.parametrize("g", CENSUS_G)
def test_02_comparators_not_positivity_preserving_1d(census_1d, g):
    counts = census_1d[g]
    em, sem, sexp = counts[("em", g)], counts[("sem", g)], counts[("sexp", g)]
    ok = em <= 99 and sem <= 99 and sexp <= 99
    ok = ok and em <= 15
    if g == "sineplus":
        ok = ok and sem <= 15 and sexp <= 15
    else:
        ok = ok and 20 <= sem <= 80 and 20 <= sexp <= 80
    _report(f"2 comparator census 1d g={g}", ok, f"em={em} sem={sem} sexp={sexp}")
    assert ok


# -- criterion 3: 2d census ----------------------------------------------------


@pytest.mark.parametrize("g", CENSUS_G)
def test_03_census_2d(census_2d, g):
    counts = census_2d[g]
    lt, em = counts[("lt", g)], counts[("em", g)]
    ok = lt == 100 and em <= 5
    _report(f"3 census 2d g={g}", ok, f"lt={lt}/100 em={em}/100")
    assert ok


# -- criterion 4: LT is exact for linear g -------------------------------------


def test_04_linear_exactness():
    cfg = ConvergenceConfig(
        g_name="linear", lam=1.0, reference="exact_linear", integrators=LT_ONLY
    )
    rep = mean_square_error_study(cfg, jobs=JOBS)
    errs = rep.errors_by_integrator()["lt"]
    worst = max(errs.values())
    ok = worst <= 1e-9
    _report("4 linear exactness", ok, f"max error over levels 4..12 = {worst:.2e}")
    assert ok


# -- criterion 5: strong order 1/2 in 1d ---------------------------------------


@pytest.mark.parametrize("kind", ["lt", "sem", "sexp"])
def test_05_strong_order_half_1d(study_rational_1d, kind):
    slope = study_rational_1d.slopes[kind]
    ok = 0.4 <= slope <= 0.6
    _report(f"5 strong order 1d {kind}", ok, f"fitted slope {slope:.3f}")
    assert ok, (
        f"{kind} fitted slope {slope:.3f} outside the strong-order-1/2 band "
        "[0.4, 0.6] over levels 4..12 (pre-asymptotic transient; see README)"
    )


def test_05b_errors_refine_monotonically(study_rational_1d):
    errs = study_rational_1d.errors_by_integrator()
    ok = True
    for kind, series in errs.items():
        vals = [series[j] for j in sorted(series)]
        ok = ok and all(b <= 1.1 * a for a, b in zip(vals, vals[1:]))
    _report("5b refinement monotonicity", ok, "10% uptick allowance")
    assert ok
    assert not study_rational_1d.diverged


# -- criterion 6: mesh independence ---------------------------------------------


def test_06_mesh_independence():
    cfg = ConvergenceConfig(g_name="rational", lam=1.5, integrators=LT_ONLY)
    rep = mesh_independence_study(cfg, [2**4, 2**6, 2**8], jobs=JOBS)
    by_level = {}
    for row in rep.rows:
        by_level.setdefault(row[5], []).append(row[7])
    worst = max(max(v) / min(v) for v in by_level.values())
    ok = worst <= 2.0 and not rep.diverged
    _report("6 mesh independence", ok, f"worst cross-mesh error ratio {worst:.3f}")
    assert ok


# -- criterion 7: 2d convergence -------------------------------------------------


@pytest.fixture(scope="session")
def study_rational_2d():
    return mean_square_error_study(ConvergenceConfig.default_2d(), jobs=JOBS)


def test_07_2d_strong_order_half_lt(study_rational_2d):
    slope = study_rational_2d.slopes["lt"]
    ok = 0.4 <= slope <= 0.6
    _report("7 2d strong order lt", ok, f"fitted slope {slope:.3f}")
    assert ok, (
        f"LT 2d fitted slope {slope:.3f} outside [0.4, 0.6] over levels 4..10 "
        "(pre-asymptotic transient; see README)"
    )


def test_07b_2d_linear_lt_flat():
    cfg = ConvergenceConfig.default_2d(g_name="linear", lam=1.0, integrators=LT_ONLY)
    rep = mean_square_error_study(cfg, jobs=JOBS)
    worst = max(rep.errors_by_integrator()["lt"].values())
    ok = worst <= 1e-9
    _report("7b 2d linear LT flat", ok, f"max error {worst:.2e}")
    assert ok


# -- criterion 8: the selftest ----------------------------------------------------


def test_08_selftest_suite():
    t0 = time.perf_counter()
    results = selftest.run_all()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 30.0
    _report("8 selftest", ok, f"{len(results)} checks in {elapsed:.1f}s, failed={failed}")
    assert ok


# -- criterion 9: moment-bound stability -------------------------------------------


def test_09_moment_bound_stability():
    cfg = ConvergenceConfig(levels=(4, 6, 8, 10))  # rational, d=1, S=150
    profiles = moment_bound_study(cfg, jobs=JOBS)
    sups = [float(p.max()) for p in profiles.values()]
    evolved = [float(p[1:].max()) for p in profiles.values()]
    spread = (max(sups) - min(sups)) / min(sups)
    spread_ev = (max(evolved) - min(evolved)) / min(evolved)
    # ||u0||_0 = 1; the bound constant was calibrated once at 2.0
    ok = spread <= 0.25 and spread_ev <= 0.25 and max(sups) <= 2.0
    _report(
        "9 moment stability",
        ok,
        f"sup={max(sups):.3f} spread={spread:.3%} evolved spread={spread_ev:.3%}",
    )
    assert ok


# -- Monte Carlo error control (study invariant, not a numbered criterion) --------


def test_monte_carlo_error_control(study_rational_1d):
    # doubling the sample count moves the LT slope by less than 0.05
    cfg = ConvergenceConfig(samples=300, integrators=LT_ONLY)
    rep = mean_square_error_study(cfg, jobs=JOBS)
    delta = abs(rep.slopes["lt"] - study_rational_1d.slopes["lt"])
    ok = delta < 0.05
    _report("MC error control", ok, f"slope shift at S=300: {delta:.4f}")
    assert ok

"""The study and the census against the dense oracle of spde_lab.selftest,
at more sizes than the selftest runs. Study errors must agree with
mean_square_error_study to 1e-10 relative, and census counts exactly."""

import math

import pytest

from spde_lab.experiments import (
    ALL_INTEGRATORS,
    CensusConfig,
    ConvergenceConfig,
    mean_square_error_study,
    positivity_census,
)
from spde_lab.integrators import IntegratorKind
from spde_lab.selftest import CENSUS, STUDY, dense_census, dense_study

EM, SEM, SEXP = IntegratorKind.EM, IntegratorKind.SEM, IntegratorKind.SEXP


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
    cfg = CensusConfig(d=d, N=N, **CENSUS)
    assert cfg.integrators == ALL_INTEGRATORS
    report = positivity_census(cfg)
    got = {(row[0], row[1]): (row[7], row[8]) for row in report.rows}
    want = dense_census(cfg)
    assert got == want
    # the census tells the schemes apart: LT keeps every path nonnegative
    assert all(want["lt", g] == (cfg.samples, 0) for g in cfg.g_names)
    assert any(want[kind.value, g][0] < cfg.samples
               for kind in (EM, SEM, SEXP) for g in cfg.g_names)

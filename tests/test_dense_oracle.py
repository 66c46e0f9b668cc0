"""The study and the census against the dense oracle of spde_lab.selftest,
through the selftest's own checks, at more sizes than the selftest runs."""

import pytest

from spde_lab.experiments import ALL_INTEGRATORS, CensusConfig, positivity_census
from spde_lab.selftest import CENSUS, check_census, check_study, dense_census


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8)])
def test_study_matches_dense_oracle(d, N):
    result = check_study(d, N)
    assert result.passed, result.detail


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8), (2, 16)])
def test_census_matches_dense_oracle(d, N):
    assert CensusConfig(d=d, N=N, **CENSUS).integrators == ALL_INTEGRATORS
    result = check_census(d, N)
    assert result.passed, result.detail


def test_census_matches_dense_oracle_where_both_lt_exponent_terms_overflow():
    # at lambda = 1e308 sineplus's f, about 2 lambda near 0, overflows, and
    # so does f^2 tau/2: the exponent's limit is -inf, and LT stays finite
    cfg = CensusConfig(d=1, N=16, T=0.25, tau=2.0**-3, lam=1e308, samples=2)
    got = {(row[0], row[1]): (row[7], row[8]) for row in positivity_census(cfg).rows}
    assert got == dense_census(cfg)
    assert got["lt", "sineplus"] == (2, 0)

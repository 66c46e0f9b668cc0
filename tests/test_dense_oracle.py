"""The study and the census against the dense oracle of spde_lab.selftest,
through the selftest's own checks, at more sizes than the selftest runs."""

import pytest

from spde_lab.experiments import ALL_INTEGRATORS, CensusConfig
from spde_lab.selftest import CENSUS, check_census, check_study


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8)])
def test_study_matches_dense_oracle(d, N):
    result = check_study(d, N)
    assert result.passed, result.detail


@pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (2, 8), (2, 16)])
def test_census_matches_dense_oracle(d, N):
    assert CensusConfig(d=d, N=N, **CENSUS).integrators == ALL_INTEGRATORS
    result = check_census(d, N)
    assert result.passed, result.detail

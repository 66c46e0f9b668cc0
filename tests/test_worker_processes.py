"""Whole CLI processes: reports byte-identical at every --jobs, with
OpenBLAS threads on and off, and scipy loaded only by runs that use it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

INVOCATIONS = {
    # 2d matmul transforms (OpenBLAS gemm) and the spectral SEM
    "census-2d": ["census", "--d", "2", "--N", "16", "--g", "all", "--T", "0.5",
                  "--samples", "200", "--seed", "11"],
    # 1d DST-I transforms and the banded LAPACK SEM; at lambda 2 the report
    # bytes change if the four blocks' sums are added as 0, 2, 1, 3
    "study-1d": ["convergence", "--N", "256", "--levels", "3..5", "--ref-level", "8",
                 "--lambda", "2", "--samples", "200", "--seed", "11"],
}


def _env(openblas_threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_reports_byte_identical_across_jobs_and_blas_threads(tmp_path, name):
    reports = {}
    for threads in (None, "1"):
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"{threads}-{jobs}.csv"
            subprocess.run([sys.executable, "-m", "spde_lab", *INVOCATIONS[name],
                            "--jobs", jobs, "--out", str(out)],
                           env=_env(threads), check=True, capture_output=True, timeout=600)
            reports[threads, jobs] = out.read_bytes()
    first = reports[None, "1"]
    assert all(data == first for data in reports.values()), [
        key for key, data in reports.items() if data != first]


IMPORTS = """
import json, sys

def lazy_modules():  # scipy, and the selftest suite that only its subcommand loads
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "spde_lab.selftest")

import spde_lab.cli
from spde_lab import CensusConfig, Grid, HeatOperator, positivity_census
seen = {"cli": lazy_modules()}
positivity_census(CensusConfig.default_2d(samples=4, T=0.25))
seen["census-2d"] = lazy_modules()
HeatOperator(Grid(1, 256))
seen["operator-1d-256"] = lazy_modules()
print(json.dumps(seen))
"""


def test_scipy_is_loaded_only_by_runs_that_use_it():
    proc = subprocess.run([sys.executable, "-c", IMPORTS], env=_env("1"), check=True,
                          capture_output=True, text=True, timeout=600)
    seen = json.loads(proc.stdout)
    assert seen["cli"] == []
    assert seen["census-2d"] == []  # N = 16: matmul transforms, spectral SEM
    assert "scipy.fft" in seen["operator-1d-256"]  # N = 256: the DST-I path
    assert "spde_lab.selftest" not in seen["operator-1d-256"]

"""Whole CLI processes: reports byte-identical at every --jobs, with
OpenBLAS threads on and off, within 1e-10 relative across CPU kernels, the
selftest passing on each CPU kernel, and scipy loaded only by runs that use
it."""

import functools
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


# numpy's dispatch targets that stand for AVX-512
NUMPY_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# each setting stands for a CPU without AVX-512, and needs the features it
# names on this one: OpenBLAS's AVX2 kernels, or numpy's dispatch without
# its AVX-512 targets (numpy's exp and sin)
CPU_SETTINGS = {
    "native": ({}, ()),
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    "numpy-no-avx512": ({"NPY_DISABLE_CPU_FEATURES": " ".join(NUMPY_AVX512)}, NUMPY_AVX512),
}
ACROSS_CPUS = {
    "study-1d": INVOCATIONS["study-1d"],
    # the matmul transforms
    "study-1d-64": ["convergence", "--N", "64", "--levels", "3..5", "--ref-level", "8",
                    "--lambda", "2", "--samples", "200", "--seed", "11"],
}


def _lacking(setting):
    """The features a setting needs that this CPU lacks; numpy also refuses
    to start when told to disable a target it does not dispatch."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    env, needs = CPU_SETTINGS[setting]
    disabled = env.get("NPY_DISABLE_CPU_FEATURES", "").split()
    return sorted({f for f in needs if not umath.__cpu_features__.get(f)}
                  | {f for f in disabled if f not in umath.__cpu_dispatch__})


def _cpu_env(setting):
    """The environment of a run under a CPU setting; skips the test where
    this CPU cannot emulate it."""
    lacking = _lacking(setting)
    if lacking:
        pytest.skip(f"this CPU or numpy build lacks {', '.join(lacking)}")
    env = _env(None)
    for key in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(key, None)
    env.update(CPU_SETTINGS[setting][0])
    return env


@pytest.fixture(scope="module")
def report_at(tmp_path_factory):
    """report_at(name, setting, jobs): the report's bytes, each run once."""
    out_dir = tmp_path_factory.mktemp("cpu-settings")

    @functools.cache
    def run(name, setting, jobs):
        out = out_dir / f"{name}-{setting}-{jobs}.csv"
        subprocess.run([sys.executable, "-m", "spde_lab", *ACROSS_CPUS[name],
                        "--jobs", jobs, "--out", str(out)],
                       env=_cpu_env(setting), check=True, capture_output=True, timeout=600)
        return out.read_bytes()

    return run


def _numbers_apart(report):
    """The report's lines with the number ending each one (after its last
    ',' or '=') cut off, and those numbers."""
    lines, numbers = [], []
    for line in report.decode().splitlines():
        cut = max(line.rfind(","), line.rfind("=")) + 1
        try:
            numbers.append(float(line[cut:]))
            lines.append(line[:cut])
        except ValueError:
            lines.append(line)
    return lines, numbers


@pytest.mark.parametrize("setting", sorted(CPU_SETTINGS))
@pytest.mark.parametrize("name", sorted(ACROSS_CPUS))
def test_reports_agree_across_cpu_kernels(report_at, name, setting):
    data = report_at(name, setting, "1")
    assert report_at(name, setting, "2") == data
    lines, numbers = _numbers_apart(data)
    native_lines, native_numbers = _numbers_apart(report_at(name, "native", "1"))
    assert lines == native_lines
    assert numbers == pytest.approx(native_numbers, rel=1e-10, abs=0)


@pytest.mark.parametrize("setting", sorted(CPU_SETTINGS))
def test_selftest_passes_on_each_cpu_kernel(setting):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "spde_lab",
                           "selftest"], env=_cpu_env(setting), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7/7 checks passed" in proc.stdout


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


SCIPY_LINALG = """
import json, sys
from spde_lab import CensusConfig, ConvergenceConfig, IntegratorKind
from spde_lab.experiments import mean_square_error_study, positivity_census
seen = {}
for N in (64, 256):  # the matmul and the DST-I transform paths
    mean_square_error_study(ConvergenceConfig(N=N, levels=(2, 3), ref_level=5, samples=2,
                                              integrators=(IntegratorKind.LT,)))
    positivity_census(CensusConfig(N=N, T=0.25, samples=2, integrators=(IntegratorKind.SEXP,)))
    seen[f"lt-sexp-1d-{N}"] = "scipy.linalg" in sys.modules
positivity_census(CensusConfig(N=16, T=0.25, samples=2, integrators=(IntegratorKind.SEM,)))
seen["sem-1d"] = "scipy.linalg" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_linalg_is_loaded_only_by_a_1d_sem_step():
    proc = subprocess.run([sys.executable, "-c", SCIPY_LINALG], env=_env("1"), check=True,
                          capture_output=True, text=True, timeout=600)
    assert json.loads(proc.stdout) == {"lt-sexp-1d-64": False, "lt-sexp-1d-256": False,
                                       "sem-1d": True}

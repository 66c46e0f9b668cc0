"""The package names the benchmark harness binds must exist, so that a
refactor that renames one fails here and not only in a benchmark run.
bench/child.py and bench/kernels.py are loaded read-only: no bytecode cache
is written under bench/, and the sys.path entry each adds is taken back."""

import importlib.util
import math
import sys
from pathlib import Path

from spde_lab import cli, experiments, integrators, noise_paths, nonlinearity

BENCH = Path(__file__).resolve().parents[1] / "bench"

# child.py still lists the solve kernel under its old owner; the traced
# integrators.solve_implicit_array metrics read 0 until the harness moves it
KNOWN_MISSING = {("StepContext", "solve_implicit_array")}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"spde_lab_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    path, no_cache = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = no_cache
        sys.path[:] = path
    return module


def test_every_step_method_of_the_harness_exists():
    child = _load("child")
    missing = {(owner.__name__, name) for owner, name in child._STEP_METHODS
               if not hasattr(owner, name)}
    assert missing == KNOWN_MISSING


def test_every_name_the_tracer_looks_up_exists():
    # Tracer.install skips a missing name, and its metric then reads 0
    for module, name in ((noise_paths, "sample_increment_batch"),
                         (noise_paths, "coarsen_increments"),
                         (nonlinearity, "from_name"),
                         (experiments, "_map_blocks"),
                         (cli, "positivity_census"),
                         (cli, "mean_square_error_study"),
                         (cli, "mesh_independence_study"),
                         (cli, "write_report"),
                         (cli, "main"),
                         (integrators, "UPDATES")):
        assert hasattr(module, name), f"{module.__name__}.{name}"
    assert set(integrators.UPDATES) == set(integrators.IntegratorKind)


def test_kernel_table_runs_on_small_shapes(monkeypatch):
    kernels = _load("kernels")
    monkeypatch.setattr(kernels, "SHAPES", ((1, 256, 2), (2, 6, 2)))
    monkeypatch.setattr(kernels, "REPEATS", 1)
    monkeypatch.setattr(kernels, "BATCH_S", 0.0)
    table = kernels.kernel_table(42)
    assert len(table) == 2 * (len(integrators.IntegratorKind) + 4)
    for key, value in table.items():
        assert math.isfinite(value) and value > 0, key

"""Every invocation of the benchmark's workloads at seed 42, run through the
CLI, must write a report byte-identical to the stored one in
bench/reference/. The invocations are read from bench/run.py, so one added
there is checked here too."""

import importlib.util
import sys
from pathlib import Path

import pytest

from spde_lab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_workloads() -> dict:
    """bench/run.py's WORKLOADS, loaded without writing a bytecode cache
    under bench/."""
    spec = importlib.util.spec_from_file_location("spde_lab_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    no_cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = no_cache
    return module.WORKLOADS


INVOCATIONS = {inv.name: inv.argv for invs in _bench_workloads().values() for inv in invs}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_stored_reference(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main([*INVOCATIONS[name], "--seed", "42", "--out", str(out)]) == 0
    assert out.read_bytes() == (BENCH / "reference" / f"{name}.csv").read_bytes()

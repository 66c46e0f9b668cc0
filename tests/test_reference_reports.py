"""The benchmark's three invocations at seed 42, run through the CLI, must
write reports byte-identical to the stored ones in bench/reference/."""

from pathlib import Path

import pytest

from spde_lab.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

CENSUS = ["census", "--g", "all", "--T", "2", "--tau", "2^-5", "--lambda", "2.5",
          "--samples", "200", "--integrators", "lt,em,sem,sexp"]

INVOCATIONS = {
    "census-1d": CENSUS + ["--d", "1", "--N", "256", "--jobs", "1"],
    "census-2d": CENSUS + ["--d", "2", "--N", "16", "--jobs", "2"],
    "conv-1d": ["convergence", "--d", "1", "--N", "256", "--g", "rational",
                "--lambda", "1", "--T", "0.125", "--levels", "4..12", "--ref-level", "16",
                "--samples", "50", "--integrators", "lt,sem,sexp", "--reference", "lt",
                "--jobs", "1"],
}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_stored_reference(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(INVOCATIONS[name] + ["--seed", "42", "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE / f"{name}.csv").read_bytes()

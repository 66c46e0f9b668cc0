"""spde-lab benchmark: Monte Carlo reports through the CLI, one process each.

    python3 bench/run.py --workload {census,conv-1d} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Every CLI invocation runs in its own
process (``bench/child.py``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: end-to-end metrics from plain runs of the workload, repeated
  while they fit in ``--seconds``, plus set-up-only launches.
* ``--trace 1``: the kernel table (``bench/kernels.py``), then per-layer
  metrics from one traced run, and the overhead of the tracing against
  plain runs that fill the rest of ``--seconds``.

Every report is checked: against the stored seed-42 reports in
``bench/reference`` when the seed is 42, otherwise against seed-independent
invariants, and every report must equal, byte for byte, the first report of
the same invocation.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
REFERENCE_SEED = 42
SETUP_LAUNCHES = 3
# Every child process is stopped this long after --seconds has run out, so
# that one hung process cannot keep the benchmark running.
GRACE_S = 100
REL_TOL = 1e-10


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``name`` is also the stem of its stored reference."""

    name: str
    argv: tuple[str, ...]
    kind: str  # "census" or "convergence"
    samples: int
    sample_steps: int
    reference_sample_steps: int
    rows: int


def census(d: int, N: int, samples: int, jobs: int) -> Invocation:
    g, integ, T, level = ("linear", "rational", "sineplus", "log1p"), 4, 2.0, 5
    argv = ("census", "--d", str(d), "--N", str(N), "--g", "all", "--T", "2",
            "--tau", f"2^-{level}", "--lambda", "2.5", "--samples", str(samples),
            "--integrators", "lt,em,sem,sexp", "--jobs", str(jobs))
    steps = samples * len(g) * integ * int(T * 2**level)
    return Invocation(f"census-{d}d", argv, "census", samples, steps, 0, len(g) * integ)


def convergence(d: int, N: int, T_exp: int, levels: range, ref_level: int,
                samples: int, jobs: int) -> Invocation:
    integ = 3
    argv = ("convergence", "--d", str(d), "--N", str(N), "--g", "rational",
            "--lambda", "1", "--T", repr(2.0**T_exp),
            "--levels", f"{levels.start}..{levels.stop - 1}",
            "--ref-level", str(ref_level), "--samples", str(samples),
            "--integrators", "lt,sem,sexp", "--reference", "lt", "--jobs", str(jobs))
    ref = samples * 2 ** (ref_level + T_exp)
    steps = ref + samples * integ * sum(2 ** (j + T_exp) for j in levels)
    return Invocation(f"conv-{d}d", argv, "convergence", samples, steps, ref, len(levels) * integ)


WORKLOADS = {
    "census": (census(1, 256, 200, jobs=1), census(2, 16, 200, jobs=2)),
    "conv-1d": (convergence(1, 256, -3, range(4, 13), 16, 50, jobs=1),),
}


# ---------------------------------------------------------------------------
# reports


def parse_report(text: str) -> dict:
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta.setdefault(key.strip(), []).append(value.strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    slopes = dict(s.split("=", 1) for s in meta.get("slope", []))
    diverged = dict(s.split("=", 1) for s in meta.get("diverged", []))
    return {"rows": rows, "slopes": {k: float(v) for k, v in slopes.items()},
            "diverged": {k: int(v) for k, v in diverged.items()}}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_report(inv: Invocation, text: str, reference: str | None) -> list[str]:
    """Problems found in one report; empty when it is correct."""
    rep = parse_report(text)
    rows = rep["rows"]
    if len(rows) != inv.rows:
        return [f"{inv.name}: {len(rows)} rows, expected {inv.rows}"]
    problems = []
    if inv.kind == "census":
        for r in rows:
            if r["integrator"] == "lt" and (int(r["positive"]) != inv.samples or int(r["diverged"])):
                problems.append(f"{inv.name}: LT not positive on every sample for g={r['g']}")
    else:
        if any(k.startswith("lt@") for k in rep["diverged"]):
            problems.append(f"{inv.name}: LT diverged")
        for r in rows:
            e = float(r["rms_sup_error"])
            if not (math.isfinite(e) and e > 0):
                problems.append(f"{inv.name}: error {e} at {r['integrator']}@{r['level']}")
        if len(rep["slopes"]) != 3 or not all(math.isfinite(s) for s in rep["slopes"].values()):
            problems.append(f"{inv.name}: slopes {rep['slopes']}")
    if reference is None:
        return problems

    ref = parse_report(reference)
    if inv.kind == "census":
        def counts(rs):
            return {(r["integrator"], r["g"]): (r["positive"], r["diverged"]) for r in rs}
        if counts(rows) != counts(ref["rows"]):
            problems.append(f"{inv.name}: census counts differ from the stored report")
    else:
        def errors(rs):
            return {(r["integrator"], r["level"]): float(r["rms_sup_error"]) for r in rs}
        got, want = errors(rows), errors(ref["rows"])
        if got.keys() != want.keys() or not all(_close(got[k], want[k]) for k in want):
            problems.append(f"{inv.name}: errors differ from the stored report by more than {REL_TOL:g}")
        if rep["slopes"].keys() != ref["slopes"].keys() or not all(
                _close(rep["slopes"][k], ref["slopes"][k]) for k in ref["slopes"]):
            problems.append(f"{inv.name}: slopes differ from the stored report by more than {REL_TOL:g}")
        if rep["diverged"] != ref["diverged"]:
            problems.append(f"{inv.name}: diverged counts differ from the stored report")
    return problems


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Launches child processes in a scratch directory inside the checkout
    and checks each report it produces."""

    def __init__(self, seed: int, workdir: Path, hard_stop: float):
        self.seed = seed
        self.workdir = workdir
        self.hard_stop = hard_stop  # time.monotonic() after which no child runs
        self.launches = 0
        self.first_report: dict[str, bytes] = {}
        self.reports_identical = 0

    def launch(self, mode: str, inv: Invocation) -> dict:
        """Run one child; returns its sidecar record plus ``t_launch`` and
        ``error`` (None when the process and its report are correct)."""
        self.launches += 1
        sidecar = self.workdir / f"{self.launches}.json"
        out = self.workdir / f"{self.launches}.csv"
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(sidecar),
               *inv.argv, "--seed", str(self.seed), "--out", str(out)]
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True,
                                  timeout=max(self.hard_stop - t_launch, 0.0))
        except subprocess.TimeoutExpired:
            return {"error": f"{inv.name}: stopped at the benchmark's time limit"}
        try:
            record = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            record = {}
        record["t_launch"] = t_launch
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            record["error"] = f"{inv.name}: exit {proc.returncode}: {tail[0]}"
        elif record.get("t_first") is None and mode != "trace":
            record["error"] = f"{inv.name}: no step kernel was called"
        elif mode != "setup":
            record["error"] = self._check(inv, out, record)
        else:
            record["error"] = None
        return record

    def _check(self, inv: Invocation, out: Path, record: dict) -> str | None:
        if record.get("t_csv") is None or not out.is_file():
            return f"{inv.name}: no report written"
        data = out.read_bytes()
        out.unlink()
        stored = None
        if self.seed == REFERENCE_SEED:
            stored = (REFERENCE / f"{inv.name}.csv").read_bytes()
        first = self.first_report.setdefault(inv.name, data)
        self.reports_identical += data == (stored if stored is not None else first)
        problems = check_report(inv, data.decode(), stored.decode() if stored else None)
        if data != first:
            problems.append(f"{inv.name}: report bytes differ between runs of one seed")
        return "; ".join(problems) or None


def run_workload(runner: Runner, invs, mode: str) -> dict:
    """One repetition: every invocation of the workload in turn."""
    rep = {"wall_s": 0.0, "setups": [], "rss_kb": 0, "errors": [], "records": []}
    for inv in invs:
        r = runner.launch(mode, inv)
        rep["records"].append(r)
        if r.get("error"):
            rep["errors"].append(r["error"])
            continue
        rep["wall_s"] += r["t_csv"] - r["t_launch"]
        if r.get("t_first") is not None:
            rep["setups"].append(r["t_first"] - r["t_launch"])
        rep["rss_kb"] = max(rep["rss_kb"], r["maxrss_kb"])
    return rep


def repeat_plain(runner: Runner, invs, deadline: float, reserve: int = 0) -> list[dict]:
    """Plain repetitions while the next one, and ``reserve`` more after it,
    are expected to end before the deadline (a ``time.monotonic()`` value);
    at least one."""
    reps, t0 = [], time.monotonic()
    while True:
        reps.append(run_workload(runner, invs, "run"))
        now = time.monotonic()
        if now + (1 + reserve) * (now - t0) / len(reps) > deadline:
            return reps


# ---------------------------------------------------------------------------
# metrics


def machine_record() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    def cache(level: int) -> str:
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return "?"
        return f"{int(out) // 1024}K" if out.isdigit() else "?"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "L2": cache(2),
        "L3": cache(3),
    }


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(invs, setups: list[float], reps: list[dict]) -> dict:
    ok = [r for r in reps if not r["errors"]]
    steps = sum(inv.sample_steps for inv in invs)
    return {
        "wall_s": _m(statistics.median(r["wall_s"] for r in ok), "s"),
        "sample_steps_per_s": _m(statistics.median(steps / r["wall_s"] for r in ok), "1/s"),
        "setup_s": _m(statistics.median(setups), "s"),
        "peak_rss_mb": _m(statistics.median(r["rss_kb"] * 1024 / 1e6 for r in ok), "MB"),
    }


_TIMED_LAYERS = ("heat_operator.sine_transform", "integrators.lt_update",
                 "integrators.em_update", "integrators.sem_update", "integrators.sexp_update")
_COUNTED_LAYERS = ("heat_operator.semigroup_array", "integrators.solve_implicit_array",
                   "nonlinearity.f", "nonlinearity.g", "noise_paths.sample_increment_batch")


def per_layer(invs, traced: dict, plain_wall_s: float, kernels: dict, runner: Runner) -> dict:
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for r in traced["records"]:
        for name, s in r["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "p99_s": 0.0})
            acc["calls"] += s["calls"]
            acc["self_s"] += s["self_s"]
            acc["total_s"] += s["total_s"]
            acc["p99_s"] = max(acc["p99_s"], s["p99_s"])
        for k, v in r["trace"]["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k == "increment_bytes_max" else counts.get(k, 0) + v

    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "p99_s": 0.0}
    out = {}
    for name in _TIMED_LAYERS + _COUNTED_LAYERS:
        s = spans.get(name, empty)
        out[f"{name}.calls"] = _m(s["calls"], "count")
        out[f"{name}.self_s"] = _m(s["self_s"], "s")
        if name in _TIMED_LAYERS:
            out[f"{name}.us_per_call"] = _m(s["total_s"] / s["calls"] * 1e6 if s["calls"] else 0.0, "us")
            out[f"{name}.us_p99"] = _m(s["p99_s"] * 1e6, "us")
    out["integrators.lt_exp_clamped"] = _m(counts.get("lt_exp_clamped", 0), "count")
    out["noise_paths.coarsen_increments.self_s"] = _m(
        spans.get("noise_paths.coarsen_increments", empty)["self_s"], "s")
    out["noise_paths.increment_mb"] = _m(counts.get("increment_bytes_max", 0) / 1e6, "MB")

    driver_s = spans.get("experiments.driver", empty)["total_s"]
    experiments_self = sum(spans.get(n, empty)["self_s"] for n in ("experiments.driver", "experiments.block"))
    sample_steps = counts.get("sample_steps", 0)
    out["experiments.self_s"] = _m(experiments_self, "s")
    out["experiments.parallel_overlap"] = _m(
        spans.get("experiments.block", empty)["total_s"] / driver_s if driver_s else 0.0, "ratio")
    out["experiments.cpu_per_wall"] = _m(counts.get("driver_cpu_s", 0.0) / driver_s if driver_s else 0.0, "ratio")
    out["experiments.wasted_step_frac"] = _m(
        counts.get("wasted_sample_steps", 0) / sample_steps if sample_steps else 0.0, "ratio")
    out["experiments.reference_step_frac"] = _m(
        sum(i.reference_sample_steps for i in invs) / sum(i.sample_steps for i in invs), "ratio")
    out["experiments.report_bytes_identical"] = _m(runner.reports_identical, "count")
    out["trace_overhead_frac"] = _m(traced["wall_s"] / plain_wall_s - 1.0, "ratio")
    out.update({k: _m(v, "us") for k, v in kernels.items()})
    return out


def run_kernels(seed: int, hard_stop: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "kernels.py"), str(seed)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(hard_stop - time.monotonic(), 0.0))
    if proc.returncode != 0:
        raise RuntimeError(f"kernel table failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spde_lab" / "__init__.py").is_file():
        print(f"bench: no spde-lab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    invs = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_record()))

    t_start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        hard_stop = t_start + args.seconds + GRACE_S
        runner = Runner(args.seed, Path(tmp), hard_stop)
        if args.trace:
            kernels = run_kernels(args.seed, hard_stop)
            plain = repeat_plain(runner, invs, t_start + args.seconds, reserve=1)
            traced = run_workload(runner, invs, "trace")
            reps = plain + [traced]
        else:
            setups = []
            for _ in range(SETUP_LAUNCHES):
                r = runner.launch("setup", invs[0])
                if r["error"] is None:
                    setups.append(r["t_first"] - r["t_launch"])
            reps = repeat_plain(runner, invs, t_start + args.seconds)
            setups += [s for r in reps if not r["errors"] for s in r["setups"]]

        failed = [r for r in reps if r["errors"]]
        for r in failed:
            print("FAILED: " + "; ".join(r["errors"]))
        plain_ok = [r for r in (plain if args.trace else reps) if not r["errors"]]
        if not plain_ok or (args.trace and any("trace" not in r for r in traced["records"])):
            print("bench: no successful run to measure", file=sys.stderr)
            return 1
        if args.trace:
            plain_wall = statistics.median(r["wall_s"] for r in plain_ok)
            metrics = per_layer(invs, traced, plain_wall, kernels, runner)
        else:
            metrics = end_to_end(invs, setups, reps)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {len(failed) / len(reps):.6g} ratio ({len(failed)} of {len(reps)} runs)")
    print(f"plain runs measured: {len(plain_ok)}, wall_s each: "
          + " ".join(f"{r['wall_s']:.3f}" for r in plain_ok))
    if args.trace:
        print(f"traced run wall_s: {traced['wall_s']:.3f}")
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

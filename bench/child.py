"""Run one spde-lab CLI invocation inside a benchmark process.

    python3 bench/child.py MODE SIDECAR.json CLI-ARGS...

MODE is one of

* ``run``: the plain CLI, plus two time stamps: the first call into a step
  kernel (the end of set-up) and the return of ``write_report`` (the CSV is
  on disk).  The first-step hook removes itself after it fires.
* ``setup``: as ``run``, but the process exits as soon as the first step
  kernel is called, so it measures set-up alone.
* ``trace``: the CLI with every public call into the layers wrapped in a
  span (see ``Tracer``); span totals go to the sidecar.

Time stamps are ``time.monotonic()``, a system-wide clock on Linux, so the
parent can subtract its own launch stamp.  ``src/`` is never edited: all
hooks are installed at run time by rebinding names.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spde_lab import (  # noqa: E402
    cli, experiments, heat_operator, integrators, noise_paths, nonlinearity,
)

# Calls that start the numerical work; the first of them ends set-up.
_STEP_METHODS = (
    (heat_operator.HeatOperator, "sine_transform"),
    (heat_operator.HeatOperator, "semigroup_array"),
    (heat_operator.HeatOperator, "laplacian_array"),
    (heat_operator.HeatOperator, "solve_implicit_array"),
    (integrators.StepContext, "solve_implicit_array"),
)


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in the package,
    so that names imported with ``from .x import f`` are covered too."""
    for name, module in list(sys.modules.items()):
        if name == "spde_lab" or name.startswith("spde_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _write(path: str, record: dict) -> None:
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def install_first_step_marker(record: dict, sidecar: str, stop: bool) -> None:
    """Stamp ``record['t_first']`` at the first step-kernel call, then put
    the original functions back.  With ``stop`` the process ends there."""
    methods = [(owner, name, getattr(owner, name))
               for owner, name in _STEP_METHODS if hasattr(owner, name)]
    updates = dict(integrators.UPDATES)

    def fire():
        if record["t_first"] is not None:
            return
        record["t_first"] = time.monotonic()
        if stop:
            _write(sidecar, record)
            os._exit(0)
        for owner, name, fn in methods:
            setattr(owner, name, fn)
        integrators.UPDATES.update(updates)

    def marked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fire()
            return fn(*args, **kwargs)
        return wrapper

    for owner, name, fn in methods:
        setattr(owner, name, marked(fn))
    for kind, fn in updates.items():
        integrators.UPDATES[kind] = marked(fn)


class Tracer:
    """Thread-aware spans around calls into the layers.

    Each thread keeps its own span stack and totals, so self time (a span's
    duration minus the full cost of the traced calls it made, tracer
    bookkeeping included) stays correct when blocks run on a thread pool.
    Totals are merged when the process ends.
    """

    def __init__(self):
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        self.counts = {"sample_steps": 0, "wasted_sample_steps": 0,
                       "lt_exp_clamped": 0, "increment_bytes_max": 0,
                       "driver_cpu_s": 0.0}

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.stack, local.spans = [], {}
            with self._lock:
                self._threads.append(local.spans)
        return local.stack, local.spans

    def wrap(self, name: str, fn, after=None, keep_durations: bool = False):
        """``fn`` timed as span ``name``; ``after(args, result)`` counts
        outside the span, and its cost is kept out of the parent's self time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            stack, spans = self._state()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = stack.pop()
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
                rec["calls"] += 1
                rec["total_s"] += dur
                rec["self_s"] += dur - children
                if keep_durations:
                    rec["durations"].append(dur)
            if after is not None:
                after(args, out)
            if stack:
                stack[-1] += time.perf_counter() - t_in
            return out
        return wrapper

    def summary(self) -> dict:
        merged: dict[str, dict] = {}
        for spans in self._threads:
            for name, rec in spans.items():
                m = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
                for key in ("calls", "total_s", "self_s", "durations"):
                    m[key] += rec[key]
        for m in merged.values():
            durations = m.pop("durations")
            m["p99_s"] = float(np.percentile(durations, 99)) if durations else 0.0
        return {"spans": merged, "counts": self.counts}

    # -- layer hooks -----------------------------------------------------

    def _count_step(self, args, out):
        ctx, U = args[0], np.asarray(args[1])
        samples = U.size // ctx.op.grid.n_interior
        finite = np.isfinite(U).reshape(samples, -1).all(axis=1)
        with self._lock:
            self.counts["sample_steps"] += samples
            self.counts["wasted_sample_steps"] += samples - int(np.count_nonzero(finite))

    def _count_lt(self, args, out):
        self._count_step(args, out)
        with self._lock:
            self.counts["lt_exp_clamped"] += int(out[1])

    def _count_increments(self, args, out):
        with self._lock:
            self.counts["increment_bytes_max"] = max(self.counts["increment_bytes_max"], out.nbytes)

    def _wrap_nonlinearity(self, from_name):
        @functools.wraps(from_name)
        def traced_from_name(*args, **kwargs):
            nl = from_name(*args, **kwargs)
            # frozen dataclass; f and g are excluded from comparisons
            object.__setattr__(nl, "f", self.wrap("nonlinearity.f", nl.f))
            object.__setattr__(nl, "g", self.wrap("nonlinearity.g", nl.g))
            return nl
        return traced_from_name

    def _wrap_driver(self, fn):
        traced = self.wrap("experiments.driver", fn)

        @functools.wraps(fn)
        def driver(*args, **kwargs):
            c0 = time.process_time()
            try:
                return traced(*args, **kwargs)
            finally:
                self.counts["driver_cpu_s"] += time.process_time() - c0
        return driver

    def _wrap_map_blocks(self, map_blocks):
        # the pool's wait shows as map_blocks self time; block self time is
        # the per-thread loop bookkeeping
        traced = self.wrap("experiments.map_blocks", map_blocks)

        def map_blocks_traced(samples, jobs, task):
            return traced(samples, jobs, self.wrap("experiments.block", task))
        return map_blocks_traced

    def install(self) -> None:
        """Wrap each layer's public calls; names missing in this version of
        the package are skipped, so their metrics read zero."""
        op_cls, ctx_cls = heat_operator.HeatOperator, integrators.StepContext
        for owner, attr, name, keep in (
            (op_cls, "sine_transform", "heat_operator.sine_transform", True),
            (op_cls, "semigroup_array", "heat_operator.semigroup_array", False),
            (ctx_cls, "solve_implicit_array", "integrators.solve_implicit_array", False),
        ):
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), keep_durations=keep))
        for kind, fn in list(integrators.UPDATES.items()):
            name = f"integrators.{kind.value}_update"
            after = self._count_lt if kind is integrators.IntegratorKind.LT else self._count_step
            traced = self.wrap(name, fn, after=after, keep_durations=True)
            integrators.UPDATES[kind] = traced
            _rebind(fn, traced)
        for module, attr, name, after in (
            (noise_paths, "sample_increment_batch", "noise_paths.sample_increment_batch",
             self._count_increments),
            (noise_paths, "coarsen_increments", "noise_paths.coarsen_increments", None),
        ):
            if hasattr(module, attr):
                fn = getattr(module, attr)
                _rebind(fn, self.wrap(name, fn, after=after))
        if hasattr(nonlinearity, "from_name"):
            _rebind(nonlinearity.from_name, self._wrap_nonlinearity(nonlinearity.from_name))
        if hasattr(experiments, "_map_blocks"):
            experiments._map_blocks = self._wrap_map_blocks(experiments._map_blocks)
        # only the CLI's own bindings: a driver that calls another driver
        # (mesh-study) is one span
        for attr in ("positivity_census", "mean_square_error_study", "mesh_independence_study"):
            if hasattr(cli, attr):
                setattr(cli, attr, self._wrap_driver(getattr(cli, attr)))


def main(argv: list[str]) -> int:
    mode, sidecar, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("run", "setup", "trace"):
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    record: dict = {"t_first": None, "t_csv": None}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    else:
        install_first_step_marker(record, sidecar, stop=(mode == "setup"))

    write_report = cli.write_report

    def stamped_write_report(*args, **kwargs):
        out = write_report(*args, **kwargs)
        record["t_csv"] = time.monotonic()
        return out

    cli.write_report = stamped_write_report
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            record["trace"] = tracer.summary()
        _write(sidecar, record)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

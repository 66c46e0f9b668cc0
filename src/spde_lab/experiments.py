"""Monte Carlo experiment drivers and CSV reports.

Drivers: a positivity census (share one Brownian path per sample across
all g and integrators, count paths whose every field stays nonnegative), a
mean-square convergence study (couple every step size to the same
underlying path by dyadic coarsening and measure sup-over-(time, space)
root-mean-square errors against a fine LT reference or, for linear g, the
exact semi-discrete solution of integrators.exact_linear_array), a
mesh-independence study (the same study repeated over several grids), and
a second-moment study, the coupled run of LT summing the squares of its
fields. One block loop, _coupled_sums, serves every driver: the census is
its one-level case.

All drivers are deterministic functions of (config, master seed): samples
are generated counter-style, processed in fixed-size blocks, and reduced
in block order, so reports are byte-identical regardless of the worker
count used to process blocks. With more than one worker the blocks run on
forked processes, the calling process included (see _map_blocks).
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .heat_operator import HeatOperator
from .integrators import IntegratorKind, StepContext, evolve, exact_linear_array
from .mesh import Grid, check_int, sample_initial, sine_initial
from .nonlinearity import from_name
from .noise_paths import (
    MAX_LEVEL,
    RNG_METHOD,
    check_key,
    coarsen_increments,
    sample_increment_batch,
)

# Fixed Monte Carlo block size. Part of the reproducibility contract:
# error sums are reduced per block and merged in block order, so results
# do not depend on how many workers process the blocks.
BLOCK_SAMPLES = 50

CENSUS_COLUMNS = ("integrator", "g", "lambda", "d", "N", "tau", "samples", "positive", "diverged")
CONVERGENCE_COLUMNS = ("integrator", "g", "lambda", "d", "N", "level", "tau", "rms_sup_error")

ALL_INTEGRATORS = tuple(IntegratorKind)
CONVERGENCE_INTEGRATORS = (IntegratorKind.LT, IntegratorKind.SEM, IntegratorKind.SEXP)
CENSUS_G = ("linear", "rational", "sineplus", "log1p")


def dyadic_exponent(x: float) -> int:
    """k such that x == 2**k exactly; raises for non-dyadic x."""
    if x <= 0 or not math.isfinite(x):
        raise ValueError(f"{x!r} is not a positive power of two")
    mantissa, exp = math.frexp(x)
    if mantissa != 0.5:
        raise ValueError(f"{x!r} is not an exact power of two")
    return exp - 1


def tau_of_level(level: int) -> float:
    """Step size 2^-level."""
    return 2.0 ** (-level)


def path_level(T: float, level: int) -> int:
    """Dyadic resolution of a path stepped at tau = 2^-level over [0, T]:
    number of steps M = T * 2^level must be a power of two."""
    try:
        ell = level + dyadic_exponent(T)
    except ValueError as exc:
        raise ValueError(f"T = {exc}") from None
    if ell < 0:
        raise ValueError(f"tau = 2^{-level} exceeds the horizon T = {T}")
    if ell > MAX_LEVEL:
        raise ValueError(f"tau = 2^{-level} over T = {T} takes 2^{ell} steps, "
                         f"more than the cap 2^{MAX_LEVEL}")
    return ell


# ---------------------------------------------------------------------------
# configs


def _no_duplicates(name: str, values: Iterable) -> None:
    values = list(values)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} lists {config_text(value)} more than once")


def _check_number(name: str, value) -> float:
    """value as a Python float; raises ValueError unless value is a real
    number that float64 holds. A bool is rejected, as check_int rejects it
    for a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} takes a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction past float64
        raise ValueError(f"{name} overflows float64") from None


def _check_shared(cfg: "CensusConfig | ConvergenceConfig") -> None:
    # each count is stored as an int: a numpy integer multiplies in fixed width
    for name in ("d", "N"):
        object.__setattr__(cfg, name, check_int(name, getattr(cfg, name)))
    Grid(cfg.d, cfg.N)  # validates their range
    # and T and lambda as floats: equal configs echo the same bytes
    object.__setattr__(cfg, "T", _check_number("T", cfg.T))
    object.__setattr__(cfg, "lam", _check_number("lambda", cfg.lam))
    object.__setattr__(cfg, "integrators", tuple(cfg.integrators))
    if not cfg.integrators:
        raise ValueError("need at least one integrator")
    object.__setattr__(cfg, "samples", check_int("samples", cfg.samples))
    if cfg.samples < 1:
        raise ValueError("need at least one sample")
    object.__setattr__(cfg, "master_seed", check_int("seed", cfg.master_seed))
    check_key("seed", cfg.master_seed)
    for kind in cfg.integrators:
        if not isinstance(kind, IntegratorKind):
            raise ValueError(f"integrators lists {kind!r}, which is not an IntegratorKind")
    _no_duplicates("integrators", cfg.integrators)


@dataclass(frozen=True)
class CensusConfig:
    """Positivity census parameters; defaults are the 1d table settings.
    One census runs every g in ``g_names`` and every integrator on one
    Brownian path per sample."""

    d: int = 1
    T: float = 2.0
    tau: float = 2.0**-5
    N: int = 2**8
    g_names: tuple[str, ...] = CENSUS_G
    lam: float = 2.5
    samples: int = 100
    master_seed: int = 42
    integrators: tuple[IntegratorKind, ...] = ALL_INTEGRATORS

    def __post_init__(self):
        _check_shared(self)
        object.__setattr__(self, "tau", _check_number("tau", self.tau))
        try:
            level = -dyadic_exponent(self.tau)
        except ValueError as exc:
            raise ValueError(f"tau = {exc}") from None
        path_level(self.T, level)
        if isinstance(self.g_names, str):
            raise ValueError(f"g_names takes a tuple of names, not the string {self.g_names!r}")
        object.__setattr__(self, "g_names", tuple(self.g_names))
        if not self.g_names:
            raise ValueError("need at least one g")
        _no_duplicates("g", self.g_names)
        for g in self.g_names:
            from_name(g, self.lam)  # validates the tag

    @property
    def level(self) -> int:
        return -dyadic_exponent(self.tau)

    @staticmethod
    def default_2d(**overrides) -> "CensusConfig":
        """2d table settings: h = 2^-4 per axis, everything else shared."""
        base = dict(d=2, N=2**4)
        base.update(overrides)
        return CensusConfig(**base)


@dataclass(frozen=True)
class ConvergenceConfig:
    """Mean-square study parameters; defaults are the 1d figure settings.

    ``levels`` are step-size exponents (tau = 2^-level); the reference is
    the LT scheme at ``ref_level`` on the same Brownian path, or the exact
    semi-discrete solution when ``reference`` is "exact_linear" (linear g
    only).
    """

    d: int = 1
    T: float = 0.5
    N: int = 2**8
    g_name: str = "rational"
    lam: float = 1.0
    samples: int = 150
    master_seed: int = 42
    levels: tuple[int, ...] = tuple(range(4, 13))
    ref_level: int = 16
    reference: str = "lt"
    integrators: tuple[IntegratorKind, ...] = CONVERGENCE_INTEGRATORS

    def __post_init__(self):
        _check_shared(self)
        levels = tuple(sorted(check_int("levels", j) for j in self.levels))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ref_level", check_int("ref_level", self.ref_level))
        _no_duplicates("levels", self.levels)
        if not self.levels:
            raise ValueError("need at least one step level")
        if self.reference not in ("lt", "exact_linear"):
            raise ValueError(f"unknown reference {self.reference!r}")
        strict = self.reference == "lt"  # the reference level itself is a run
        bad = [j for j in self.levels if (j >= self.ref_level if strict else j > self.ref_level)]
        if bad:
            raise ValueError(
                f"step levels {bad} must be coarser than the reference "
                f"level {self.ref_level}"
            )
        from_name(self.g_name, self.lam)  # validates the tag
        if self.reference == "exact_linear" and self.g_name != "linear":
            raise ValueError("exact_linear reference requires the linear g")
        path_level(self.T, self.ref_level)
        path_level(self.T, self.levels[0])

    @staticmethod
    def default_2d(**overrides) -> "ConvergenceConfig":
        """2d figure settings: h = 2^-4, levels 4..10, reference level 14."""
        base = dict(d=2, N=2**4, levels=tuple(range(4, 11)), ref_level=14)
        base.update(overrides)
        return ConvergenceConfig(**base)


# ---------------------------------------------------------------------------
# report


@dataclass
class ExperimentReport:
    kind: str
    columns: tuple[str, ...]
    rows: list[tuple]
    config_echo: dict
    slopes: dict[str, float] = field(default_factory=dict)
    diverged: dict[str, int] = field(default_factory=dict)
    master_seed: int = 0
    wall_clock: float = 0.0

    def positive_counts(self) -> dict[tuple[str, str], int]:
        """(integrator, g) -> positive count, for census reports."""
        out = {}
        for row in self.rows:
            out[(row[0], row[1])] = row[CENSUS_COLUMNS.index("positive")]
        return out

    def errors_by_integrator(self) -> dict[str, dict[int, float]]:
        """integrator -> {level: rms_sup_error}, for convergence reports."""
        out: dict[str, dict[int, float]] = {}
        li = CONVERGENCE_COLUMNS.index("level")
        ei = CONVERGENCE_COLUMNS.index("rms_sup_error")
        for row in self.rows:
            out.setdefault(row[0], {})[row[li]] = row[ei]
        return out


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_text(value) -> str:
    """A config value as reports and --help show it; tuples comma-joined."""
    if isinstance(value, tuple):
        return ",".join(config_text(v) for v in value)
    return value.value if isinstance(value, Enum) else _fmt(value)


def _echo(cfg: "CensusConfig | ConvergenceConfig") -> dict[str, str]:
    """The ``# config:`` items of a report: every config field in order, by
    its CLI key, but the seed, which has a header line of its own."""
    keys = {"g_name": "g", "g_names": "g", "lam": "lambda"}
    return {keys.get(f.name, f.name): config_text(getattr(cfg, f.name))
            for f in fields(cfg) if f.name != "master_seed"}


def write_report(report: ExperimentReport, path) -> str:
    """Write the CSV (byte-identical for identical config and seed) and
    return a human-readable summary."""
    lines = [f"# spde-lab {__version__}"]
    lines.append(f"# kind: {report.kind}")
    lines.append(f"# seed: {report.master_seed}")
    lines.append(f"# rng: {RNG_METHOD}")
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in report.config_echo.items())
    lines.append(f"# config: {echo}")
    for name, count in sorted(report.diverged.items()):
        lines.append(f"# diverged:{name}={count}")
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    for name, slope in report.slopes.items():
        lines.append(f"# slope:{name}={_fmt(slope)}")
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path!s}: {exc}") from exc
    return summarize(report)


def summarize(report: ExperimentReport) -> str:
    """One-screen text table of a report."""
    widths = [max(len(str(c)), *(len(_fmt(r[i])) for r in report.rows)) if report.rows else len(str(c))
              for i, c in enumerate(report.columns)]
    out = [f"{report.kind} (seed {report.master_seed}, {report.wall_clock:.1f}s)"]
    out.append("  ".join(c.ljust(w) for c, w in zip(report.columns, widths)))
    for row in report.rows:
        out.append("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    for name, slope in report.slopes.items():
        out.append(f"slope {name} = {slope:.3f}" if math.isfinite(slope) else f"slope {name} = n/a")
    total_div = sum(report.diverged.values())
    if total_div:
        out.append(f"diverged samples: {report.diverged}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# the block loop: scheduling, memory guard, reducers


def _workers(samples: int, jobs: int) -> int:
    """Processes that run blocks at once, the calling one included: ``jobs``
    capped at the block count and at the CPUs this process may use; 1
    where processes cannot be forked. Raises ValueError unless jobs is an
    integer >= 1."""
    jobs = check_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, -(-samples // BLOCK_SAMPLES), cpus))


# The task of a forked worker. It comes through fork, not pickling, because
# the drivers' block closures do not pickle; fork also spares each worker
# the imports and set-up that a fresh interpreter would repeat.
_worker_task = None


def _adopt_task(task) -> None:
    global _worker_task
    _worker_task = task


def _run_worker_block(block: range) -> dict:
    return _worker_task(block)


def _map_blocks(samples: int, jobs: int, task) -> dict:
    """Run task over sample blocks and add up the dicts it returns, key by
    key in block order, so the sums do not depend on ``jobs``.

    With w = _workers(samples, jobs) > 1, the calling process runs blocks
    [::w] itself and w - 1 forked workers run the rest; their results come
    back pickled. A worker's exception is raised here, and a worker that
    dies raises BrokenProcessPool."""
    blocks = [range(start, min(start + BLOCK_SAMPLES, samples))
              for start in range(0, samples, BLOCK_SAMPLES)]
    w = _workers(samples, jobs)
    total = {}

    def add(result: dict) -> None:
        for key, value in result.items():
            total[key] = total[key] + value if key in total else value

    if w == 1:
        for block in blocks:
            add(task(block))
        return total
    pool = ProcessPoolExecutor(w - 1, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt_task, initargs=(task,))
    try:
        results = pool.map(_run_worker_block, [b for i, b in enumerate(blocks) if i % w])
        for i, block in enumerate(blocks):
            add(task(block) if i % w == 0 else next(results))
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, skip the blocks not started
    return total


def _check_memory(cfg: CensusConfig | ConvergenceConfig, jobs: int, fine_level: int) -> None:
    """Reject a run whose blocks in flight need more float64 bytes than the
    machine has, before any of them is allocated. The estimate is a lower
    bound: per block of B samples, the increments (B x 2^fine_level), two
    fields (a step's input and output) and, for the studies, two checkpoint
    arrays (a run's, and its reference's or, without one, its finite rows)."""
    in_flight = _workers(cfg.samples, jobs)
    B = min(cfg.samples, BLOCK_SAMPLES)
    n = (cfg.N - 1) ** cfg.d
    held = {f"{B} x 2^{fine_level} increments": 2**fine_level,
            f"two {B} x {n} fields (step input and output)": 2 * n}
    if isinstance(cfg, ConvergenceConfig):
        cp = (2 ** path_level(cfg.T, cfg.levels[0]) + 1) * n
        held[f"two {B} x {cp} checkpoint arrays"] = 2 * cp
    need = 8 * B * sum(held.values()) * in_flight
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"run needs at least {need / 1e9:.2f} GB of memory: {in_flight} block(s) in "
            f"flight, each holding {', '.join(held)}, but the machine has {have / 1e9:.2f} GB"
        )


def _setup(cfg: CensusConfig | ConvergenceConfig) -> tuple[HeatOperator, np.ndarray]:
    """The operator and the sine initial data of a run."""
    grid = Grid(cfg.d, cfg.N)
    return HeatOperator(grid), sample_initial(sine_initial, grid)


def _run_checkpointed(
    ctx: StepContext, kind: IntegratorKind, U: np.ndarray, incr: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a batch, storing the field at every ``stride`` steps.

    Returns (checkpoints, finite) where checkpoints has shape
    (batch, n_checkpoints+1, *grid) including the initial field, and finite
    flags samples that stayed finite at every checkpoint.
    """
    cps = np.empty((U.shape[0], incr.shape[1] // stride + 1) + U.shape[1:])

    def store(i: int, U: np.ndarray) -> None:
        if i % stride == 0:
            cps[:, i // stride] = U

    evolve(ctx, kind, U, incr, store)
    finite = np.isfinite(cps[:, 1:]).all(axis=tuple(range(1, cps.ndim)))
    return cps, finite


def _count_positive(ctx, kind, start, incr, stride, ref) -> dict:
    """The census's reducer (see _coupled_sums): count the samples whose
    every field, at every step, stayed nonnegative ("positive") and those
    that left the finite numbers ("diverged")."""
    axes = tuple(range(1, start.ndim))
    running_min = np.full(len(start), np.inf)
    finite = np.ones(len(start), dtype=bool)

    def track(m: int, U: np.ndarray) -> None:
        np.minimum(running_min, np.min(U, axis=axes), out=running_min)
        np.logical_and(finite, np.isfinite(U).all(axis=axes), out=finite)

    evolve(ctx, kind, start, incr, track)
    positive = finite & (running_min >= 0.0)
    return {"positive": int(positive.sum()), "diverged": int((~finite).sum())}


def _squared_distances(ctx, kind, start, incr, stride, ref) -> dict:
    """The studies' reducer (see _coupled_sums): over the samples where the
    run and ``ref`` stayed finite ("used"), sum the squared distances of the
    run's checkpoints to ref's, or without a ref their squares ("sq")."""
    cps, ok = _run_checkpointed(ctx, kind, start, incr, stride)
    if ref is not None:
        ok &= ref[1]
    diff = cps[ok] if ref is None else cps[ok] - ref[0][ok]
    return {"sq": np.sum(diff * diff, axis=0), "used": int(ok.sum())}


def _coupled_sums(
    cfg: CensusConfig | ConvergenceConfig, jobs: int, fine_level: int, g_names: Sequence[str],
    levels: Sequence[int], reduce, reference: str | None = None,
) -> dict:
    """The Monte Carlo block loop of every driver. Returns the sums of
    ``reduce`` keyed (name, g, kind, level), added up in block order.

    Each block draws its samples' Brownian paths once, at step level
    ``fine_level``, and starts every run from one read-only batch of u0.
    Per level in ``levels`` it coarsens the paths once (the identity at
    fine_level), and for each g in g_names and kind in cfg.integrators
    ``reduce(ctx, kind, start, incr, stride, ref)`` steps the batch and
    returns its sums by name. A checkpoint falls every ``stride`` steps, at
    the coarsest level's step times. ``ref`` is None, or the ``reference``
    fields at the checkpoints and their finite flags: "lt" is LT at
    fine_level on the same paths, "exact_linear" the exact linear solution.
    """
    path_fine = path_level(cfg.T, fine_level)
    _check_memory(cfg, jobs, path_fine)
    op, u0 = _setup(cfg)
    M0 = 2 ** path_level(cfg.T, min(levels))  # checkpoint intervals
    cp_times = np.arange(M0 + 1) * (cfg.T / M0)
    nls = {g: from_name(g, cfg.lam) for g in g_names}
    contexts = {(g, j): StepContext(op, nls[g], tau_of_level(j)) for j in levels for g in g_names}
    if reference == "lt":  # a study, which has one g
        ref_ctx = StepContext(op, nls[cfg.g_name], tau_of_level(fine_level))

    def run_block(block: range) -> dict:
        incr_fine = sample_increment_batch(cfg.T, path_fine, cfg.master_seed, block)
        B = len(block)
        start = np.broadcast_to(u0, (B,) + u0.shape)  # read-only, shared by every run
        stride = incr_fine.shape[1] // M0
        ref = None
        if reference == "lt":
            ref = _run_checkpointed(ref_ctx, IntegratorKind.LT, start, incr_fine, stride)
        elif reference == "exact_linear":
            betas = np.cumsum(incr_fine, axis=1)[:, stride - 1 :: stride]
            beta_cp = np.concatenate([np.zeros((B, 1)), betas], axis=1)
            ref = exact_linear_array(op, u0, cfg.lam, beta_cp, cp_times), np.ones(B, dtype=bool)

        sums = {}
        for j in levels:
            incr = coarsen_increments(incr_fine, path_fine, path_level(cfg.T, j))
            for g in g_names:
                for kind in cfg.integrators:
                    part = reduce(contexts[g, j], kind, start, incr, incr.shape[1] // M0, ref)
                    sums.update(((name, g, kind, j), value) for name, value in part.items())
        return sums

    # a finite field far from the reference squares (or sums) to inf: data, not
    # a warning. This covers the reducers and block sums; forked workers inherit it.
    with np.errstate(over="ignore"):
        return _map_blocks(cfg.samples, jobs, run_block)


# ---------------------------------------------------------------------------
# positivity census


def positivity_census(cfg: CensusConfig, jobs: int = 1) -> ExperimentReport:
    """Count paths whose every field (all steps, all grid points) stays
    nonnegative, per g and integrator.

    The census is the one-level case of _coupled_sums: each block draws its
    increments once, at cfg.tau, and every g and integrator consumes them.
    Rows follow cfg.g_names in order; an integrator's divergences are
    summed over the g."""
    t_start = time.perf_counter()
    counts = _coupled_sums(cfg, jobs, cfg.level, cfg.g_names, (cfg.level,), _count_positive)
    rows, diverged = [], {}
    for g in cfg.g_names:
        for kind in cfg.integrators:
            pos = counts["positive", g, kind, cfg.level]
            div = counts["diverged", g, kind, cfg.level]
            rows.append((kind.value, g, cfg.lam, cfg.d, cfg.N, cfg.tau, cfg.samples, pos, div))
            if div:
                diverged[kind.value] = diverged.get(kind.value, 0) + div
    echo = {**_echo(cfg), "g": "+".join(sorted(cfg.g_names))}
    return ExperimentReport("census", CENSUS_COLUMNS, rows, echo, diverged=diverged,
                            master_seed=cfg.master_seed, wall_clock=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# coupled-level studies: mean-square convergence and second moments


def mean_square_error_study(cfg: ConvergenceConfig, jobs: int = 1) -> ExperimentReport:
    """Per-level sup-over-(time, space) RMS errors with fitted slopes.

    All levels of one sample run on coarsenings of the same fine Brownian
    path and are compared at the coarsest level's checkpoint times; errors
    are averaged over samples, then the sup over checkpoints and grid
    points of the root mean square is reported per (integrator, level).
    """
    t_start = time.perf_counter()
    g = cfg.g_name
    sums = _coupled_sums(cfg, jobs, cfg.ref_level, (g,), cfg.levels, _squared_distances,
                         cfg.reference)
    report = ExperimentReport("convergence", CONVERGENCE_COLUMNS, [], _echo(cfg),
                              master_seed=cfg.master_seed)
    for kind in cfg.integrators:
        for j in cfg.levels:
            total = sums["used", g, kind, j]
            div = cfg.samples - total
            err = math.sqrt(float(np.max(sums["sq", g, kind, j])) / total) if total else math.nan
            report.rows.append((kind.value, g, cfg.lam, cfg.d, cfg.N, j, tau_of_level(j), err))
            if div:
                report.diverged[f"{kind.value}@{j}"] = div
    for name, errors in report.errors_by_integrator().items():
        report.slopes[name] = fit_slope(errors, fit_levels(cfg))
    report.wall_clock = time.perf_counter() - t_start
    return report


def fit_levels(cfg: ConvergenceConfig) -> list[int]:
    """Levels used by the default slope fit: all requested levels except
    the two adjacent to the reference (contaminated by reference error)."""
    if cfg.reference != "lt":
        return list(cfg.levels)
    excluded = {cfg.ref_level - 1, cfg.ref_level - 2}
    return [j for j in cfg.levels if j not in excluded]


def fit_slope(errors: dict[int, float], levels: Iterable[int]) -> float:
    """OLS slope of log2(error) against log2(tau) over the given levels.

    For errors behaving like C * tau^r the result is r (so 0.5 for strong
    order one half). NaN when fewer than two usable levels exist; a level
    listed twice counts once.
    """
    pts = [
        (-float(j), math.log2(errors[j]))
        for j in dict.fromkeys(levels)
        if j in errors and math.isfinite(errors[j]) and errors[j] > 0
    ]
    if len(pts) < 2:
        return math.nan
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


# ---------------------------------------------------------------------------
# mesh-independence study


def mesh_independence_study(
    cfg: ConvergenceConfig, N_values: Sequence[int], jobs: int = 1
) -> ExperimentReport:
    """The convergence study repeated over meshes, each against its own
    reference on the same mesh; a single N reduces to one study. Rows
    follow the meshes in order, and each mesh's slope and divergence keys
    carry its ``[N=<N>]``."""
    subs = [replace(cfg, N=N) for N in N_values]  # each N checked as the config checks it
    _no_duplicates("N", (sub.N for sub in subs))
    if not subs:
        raise ValueError("need at least one N")
    for sub in subs:  # reject an oversized mesh before running the first
        _check_memory(sub, jobs, path_level(sub.T, sub.ref_level))
    if len(subs) == 1:
        return mean_square_error_study(subs[0], jobs=jobs)
    report = ExperimentReport(
        kind="mesh_study",
        columns=CONVERGENCE_COLUMNS,
        rows=[],
        config_echo={**_echo(cfg), "N": config_text(tuple(sub.N for sub in subs))},
        master_seed=cfg.master_seed,
    )
    for sub in subs:
        study = mean_square_error_study(sub, jobs=jobs)
        report.rows += study.rows
        report.slopes.update((f"{name}[N={sub.N}]", s) for name, s in study.slopes.items())
        report.diverged.update((f"{name}[N={sub.N}]", n) for name, n in study.diverged.items())
        report.wall_clock += study.wall_clock
    return report


# ---------------------------------------------------------------------------
# second-moment stability (empirical stand-in for the moment bound)


def moment_bound_study(cfg: ConvergenceConfig, jobs: int = 1) -> dict[int, np.ndarray]:
    """Second-moment profiles for the LT scheme on coupled Brownian paths.

    The coupled run of LT alone, without a reference, so that it sums the
    squares of the checkpoints, with paths drawn at the finest step level.
    Returns, per step level, the array of sup over grid points of
    E|u_m(x)|^2 at the shared checkpoint times (index 0 is the initial
    field); the overall sup is the max of a profile."""
    g, LT = cfg.g_name, IntegratorKind.LT
    sums = _coupled_sums(replace(cfg, integrators=(LT,)), jobs, max(cfg.levels), (g,),
                         cfg.levels, _squared_distances)
    if any(sums["used", g, LT, j] < cfg.samples for j in cfg.levels):
        raise FloatingPointError("LT moment run produced non-finite values")
    space_axes = tuple(range(1, 1 + cfg.d))
    return {j: np.max(sums["sq", g, LT, j], axis=space_axes) / cfg.samples for j in cfg.levels}

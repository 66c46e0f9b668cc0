"""Monte Carlo experiment drivers and CSV reports.

Three drivers: a positivity census (share one Brownian path per sample
across all integrators, count paths whose every field stays nonnegative),
a mean-square convergence study (couple every step size to the same
underlying path by dyadic coarsening and measure sup-over-(time, space)
root-mean-square errors against a fine LT reference or, for linear g, the
exact semi-discrete solution), and a mesh-independence study (the same
study repeated over several grids).

All drivers are deterministic functions of (config, master seed): samples
are generated counter-style, processed in fixed-size blocks, and reduced
in block order, so reports are byte-identical regardless of the worker
count used to process blocks.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .heat_operator import HeatOperator
from .integrators import IntegratorKind, StepContext, evolve
from .mesh import Grid, GridField, InitialData, min_value, sample_initial
from .nonlinearity import NonlinearityKind, from_name
from .noise_paths import (
    MAX_LEVEL,
    RNG_METHOD,
    coarsen_increments,
    sample_increment_batch,
)

# Fixed Monte Carlo block size. Part of the reproducibility contract:
# error sums are reduced per block and merged in block order, so results
# do not depend on how many workers process the blocks.
BLOCK_SAMPLES = 50

CENSUS_COLUMNS = ("integrator", "g", "lambda", "d", "N", "tau", "samples", "positive", "diverged")
CONVERGENCE_COLUMNS = ("integrator", "g", "lambda", "d", "N", "level", "tau", "rms_sup_error")

ALL_INTEGRATORS = (IntegratorKind.LT, IntegratorKind.EM, IntegratorKind.SEM, IntegratorKind.SEXP)
CONVERGENCE_INTEGRATORS = (IntegratorKind.LT, IntegratorKind.SEM, IntegratorKind.SEXP)


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
    ell = level + dyadic_exponent(T)
    if ell < 0:
        raise ValueError(f"tau = 2^-{level} exceeds the horizon T = {T}")
    if ell > MAX_LEVEL:
        raise ValueError(f"path level {ell} exceeds the cap {MAX_LEVEL}")
    return ell


def _initial_data(d: int) -> InitialData:
    return InitialData.sine_1d() if d == 1 else InitialData.sine_product_2d()


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class CensusConfig:
    """Positivity census parameters; defaults are the 1d table settings."""

    d: int = 1
    T: float = 2.0
    tau: float = 2.0**-5
    N: int = 2**8
    g_name: str = "linear"
    lam: float = 2.5
    samples: int = 100
    master_seed: int = 42
    integrators: tuple[IntegratorKind, ...] = ALL_INTEGRATORS

    def __post_init__(self):
        object.__setattr__(self, "integrators", tuple(self.integrators))
        if self.samples < 1:
            raise ValueError("need at least one sample")
        path_level(self.T, dyadic_exponent(1.0 / self.tau))
        from_name(self.g_name, self.lam)  # validates the tag

    @property
    def level(self) -> int:
        return dyadic_exponent(1.0 / self.tau)

    @property
    def steps(self) -> int:
        return 2 ** path_level(self.T, self.level)

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
    integrators: tuple[IntegratorKind, ...] = CONVERGENCE_INTEGRATORS
    reference: str = "lt"

    def __post_init__(self):
        object.__setattr__(self, "integrators", tuple(self.integrators))
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))
        if self.samples < 1:
            raise ValueError("need at least one sample")
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
        nl = from_name(self.g_name, self.lam)
        if self.reference == "exact_linear" and nl.kind is not NonlinearityKind.LINEAR:
            raise ValueError("exact_linear reference requires the linear g")
        path_level(self.T, self.finest_level)

    @property
    def finest_level(self) -> int:
        # paths are always sampled at the reference resolution so that a
        # study's Brownian draws do not depend on the reference mode
        return self.ref_level

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
    rng_method: str = RNG_METHOD
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


def write_report(report: ExperimentReport, path) -> str:
    """Write the CSV (byte-identical for identical config and seed) and
    return a human-readable summary."""
    lines = [f"# spde-lab {__version__}"]
    lines.append(f"# kind: {report.kind}")
    lines.append(f"# seed: {report.master_seed}")
    lines.append(f"# rng: {report.rng_method}")
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


def merge_reports(reports: Sequence[ExperimentReport]) -> ExperimentReport:
    """Concatenate reports of one kind (e.g. a census per nonlinearity)."""
    first = reports[0]
    if any(r.kind != first.kind or r.columns != first.columns for r in reports):
        raise ValueError("can only merge reports of the same kind")
    merged = ExperimentReport(
        kind=first.kind,
        columns=first.columns,
        rows=[row for r in reports for row in r.rows],
        config_echo=dict(first.config_echo),
        master_seed=first.master_seed,
        wall_clock=sum(r.wall_clock for r in reports),
    )
    gs = sorted({r.config_echo.get("g") for r in reports})
    merged.config_echo["g"] = "+".join(str(g) for g in gs)
    for r in reports:
        merged.slopes.update(r.slopes)
        for k, v in r.diverged.items():
            merged.diverged[k] = merged.diverged.get(k, 0) + v
    return merged


# ---------------------------------------------------------------------------
# block scheduling


def _blocks(samples: int) -> list[range]:
    return [
        range(start, min(start + BLOCK_SAMPLES, samples))
        for start in range(0, samples, BLOCK_SAMPLES)
    ]


def _map_blocks(samples: int, jobs: int, task) -> list:
    """Run task over sample blocks; results always in block order."""
    blocks = _blocks(samples)
    if jobs <= 1 or len(blocks) == 1:
        return [task(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, blocks))


def _tile_initial(u0: GridField, count: int) -> np.ndarray:
    return np.broadcast_to(u0.values_nd(), (count,) + u0.grid.shape).copy()


# ---------------------------------------------------------------------------
# positivity census


def positivity_census(cfg: CensusConfig, jobs: int = 1) -> ExperimentReport:
    """Count paths whose every field (all steps, all grid points) stays
    nonnegative; every integrator consumes the same increments per sample."""
    t_start = time.perf_counter()
    grid = Grid(cfg.d, cfg.N)
    op = HeatOperator(grid)
    nl = from_name(cfg.g_name, cfg.lam)
    u0 = sample_initial(_initial_data(cfg.d), grid)
    if min_value(u0) < 0:
        raise ValueError("positivity census requires nonnegative initial data")
    ctx = StepContext(op, nl, cfg.tau)
    level = path_level(cfg.T, cfg.level)
    axes = tuple(range(1, 1 + cfg.d))

    def run_block(block: range) -> dict[IntegratorKind, tuple[int, int]]:
        incr = sample_increment_batch(cfg.T, level, cfg.master_seed, block)
        checksums = incr.sum(axis=1)
        out = {}
        for kind in cfg.integrators:
            running_min = np.full(len(block), np.inf)
            finite = np.ones(len(block), dtype=bool)

            def track(i: int, U: np.ndarray) -> None:
                np.minimum(running_min, np.min(U, axis=axes), out=running_min)
                np.logical_and(finite, np.isfinite(U).all(axis=axes), out=finite)

            evolve(ctx, kind, _tile_initial(u0, len(block)), incr, 1, track)
            positive = finite & (running_min >= 0.0)
            out[kind] = (int(positive.sum()), int((~finite).sum()))
            # all integrators must have consumed the identical increments
            if not np.array_equal(incr.sum(axis=1), checksums):
                raise AssertionError("increment sequence was modified during a census run")
        return out

    results = _map_blocks(cfg.samples, jobs, run_block)
    rows = []
    diverged = {}
    for kind in cfg.integrators:
        pos = sum(r[kind][0] for r in results)
        div = sum(r[kind][1] for r in results)
        rows.append(
            (kind.value, cfg.g_name, cfg.lam, cfg.d, cfg.N, cfg.tau, cfg.samples, pos, div)
        )
        if div:
            diverged[kind.value] = div
    return ExperimentReport(
        kind="census",
        columns=CENSUS_COLUMNS,
        rows=rows,
        config_echo=_census_echo(cfg),
        diverged=diverged,
        master_seed=cfg.master_seed,
        wall_clock=time.perf_counter() - t_start,
    )


def _census_echo(cfg: CensusConfig) -> dict:
    return {
        "d": cfg.d,
        "T": cfg.T,
        "tau": cfg.tau,
        "N": cfg.N,
        "g": cfg.g_name,
        "lambda": cfg.lam,
        "samples": cfg.samples,
        "integrators": ",".join(k.value for k in cfg.integrators),
    }


# ---------------------------------------------------------------------------
# mean-square convergence study


def _checkpoint_heat_factors(op: HeatOperator, u0: GridField, times: np.ndarray) -> np.ndarray:
    """e^{t N^2 D^N} u0 for each checkpoint time (sample independent)."""
    out = np.empty((times.size,) + op.grid.shape)
    for i, t in enumerate(times):
        out[i] = u0.values_nd() if t == 0 else op.semigroup_array(
            u0.values_nd(), op.semigroup_multipliers(float(t))
        )
    return out


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
        cps[:, i // stride] = U

    evolve(ctx, kind, U, incr, stride, store)
    finite = np.isfinite(cps[:, 1:]).all(axis=tuple(range(1, cps.ndim)))
    return cps, finite


def mean_square_error_study(cfg: ConvergenceConfig, jobs: int = 1) -> ExperimentReport:
    """Per-level sup-over-(time, space) RMS errors with fitted slopes.

    All levels of one sample run on coarsenings of the same fine Brownian
    path and are compared at the coarsest level's checkpoint times; errors
    are averaged over samples, then the sup over checkpoints and grid
    points of the root mean square is reported per (integrator, level).
    """
    t_start = time.perf_counter()
    grid = Grid(cfg.d, cfg.N)
    op = HeatOperator(grid)
    nl = from_name(cfg.g_name, cfg.lam)
    u0 = sample_initial(_initial_data(cfg.d), grid)
    fine_level = path_level(cfg.T, cfg.finest_level)
    j0 = cfg.levels[0]
    M0 = 2 ** path_level(cfg.T, j0)  # checkpoint intervals
    cp_times = np.arange(M0 + 1) * (cfg.T / M0)
    contexts = {j: StepContext(op, nl, tau_of_level(j)) for j in cfg.levels}
    if cfg.reference == "lt":
        ref_ctx = StepContext(op, nl, tau_of_level(cfg.ref_level))
    else:
        heat_factors = _checkpoint_heat_factors(op, u0, cp_times)

    def run_block(block: range):
        incr_fine = sample_increment_batch(cfg.T, fine_level, cfg.master_seed, block)
        B = len(block)
        if cfg.reference == "lt":
            M_ref = incr_fine.shape[1]
            ref_cp, ref_finite = _run_checkpointed(
                ref_ctx, IntegratorKind.LT, _tile_initial(u0, B), incr_fine, M_ref // M0
            )
        else:
            # exact solution for linear g: scalar noise factor times heat flow
            betas = np.cumsum(incr_fine, axis=1)
            stride = incr_fine.shape[1] // M0
            beta_cp = np.concatenate(
                [np.zeros((B, 1)), betas[:, stride - 1 :: stride]], axis=1
            )
            factors = np.exp(cfg.lam * beta_cp - 0.5 * cfg.lam**2 * cp_times)
            shape_ones = (1,) * cfg.d
            ref_cp = factors.reshape(factors.shape + shape_ones) * heat_factors
            ref_finite = np.ones(B, dtype=bool)

        sums = {}
        used = {}
        div = {}
        for j in cfg.levels:
            incr_j = coarsen_increments(incr_fine, fine_level, path_level(cfg.T, j))
            stride_j = incr_j.shape[1] // M0
            for kind in cfg.integrators:
                cps, finite = _run_checkpointed(
                    contexts[j], kind, _tile_initial(u0, B), incr_j, stride_j
                )
                ok = finite & ref_finite
                diff = cps[ok] - ref_cp[ok]
                sums[(kind, j)] = np.sum(diff * diff, axis=0)
                used[(kind, j)] = int(ok.sum())
                div[(kind, j)] = int(B - ok.sum())
        return sums, used, div

    results = _map_blocks(cfg.samples, jobs, run_block)
    report = ExperimentReport(
        kind="convergence",
        columns=CONVERGENCE_COLUMNS,
        rows=[],
        config_echo=_convergence_echo(cfg),
        master_seed=cfg.master_seed,
    )
    errors: dict[IntegratorKind, dict[int, float]] = {k: {} for k in cfg.integrators}
    for kind in cfg.integrators:
        for j in cfg.levels:
            total = sum(r[1][(kind, j)] for r in results)
            div = sum(r[2][(kind, j)] for r in results)
            sq = results[0][0][(kind, j)].copy()
            for r in results[1:]:
                sq += r[0][(kind, j)]
            err = math.sqrt(float(np.max(sq)) / total) if total else math.nan
            errors[kind][j] = err
            report.rows.append(
                (kind.value, cfg.g_name, cfg.lam, cfg.d, cfg.N, j, tau_of_level(j), err)
            )
            if div:
                report.diverged[f"{kind.value}@{j}"] = div
    for kind in cfg.integrators:
        report.slopes[kind.value] = fit_slope(errors[kind], fit_levels(cfg))
    report.wall_clock = time.perf_counter() - t_start
    return report


def _convergence_echo(cfg: ConvergenceConfig) -> dict:
    return {
        "d": cfg.d,
        "T": cfg.T,
        "N": cfg.N,
        "g": cfg.g_name,
        "lambda": cfg.lam,
        "samples": cfg.samples,
        "levels": ",".join(str(j) for j in cfg.levels),
        "ref_level": cfg.ref_level,
        "reference": cfg.reference,
        "integrators": ",".join(k.value for k in cfg.integrators),
    }


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
    order one half). NaN when fewer than two usable points exist.
    """
    pts = [
        (-float(j), math.log2(errors[j]))
        for j in levels
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
    reference on the same mesh; a single N reduces to one study."""
    reports = []
    for N in N_values:
        sub = ConvergenceConfig(
            **{**_config_kwargs(cfg), "N": int(N)}
        )
        rep = mean_square_error_study(sub, jobs=jobs)
        if len(N_values) > 1:
            rep.slopes = {f"{name}[N={N}]": s for name, s in rep.slopes.items()}
        reports.append(rep)
    if len(reports) == 1:
        return reports[0]
    merged = merge_reports(reports)
    merged.kind = "mesh_study"
    merged.config_echo = _convergence_echo(cfg)
    merged.config_echo["N"] = ",".join(str(int(N)) for N in N_values)
    return merged


def _config_kwargs(cfg) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


# ---------------------------------------------------------------------------
# second-moment stability (empirical stand-in for the moment bound)


def moment_bound_study(cfg: ConvergenceConfig, jobs: int = 1) -> dict[int, np.ndarray]:
    """Second-moment profiles for the LT scheme on coupled Brownian paths.

    Returns, per step level, the array of sup over grid points of
    E|u_m(x)|^2 at the shared checkpoint times (index 0 is the initial
    field); the overall sup is the max of a profile."""
    grid = Grid(cfg.d, cfg.N)
    op = HeatOperator(grid)
    nl = from_name(cfg.g_name, cfg.lam)
    u0 = sample_initial(_initial_data(cfg.d), grid)
    fine_level = path_level(cfg.T, max(cfg.levels))
    M0 = 2 ** path_level(cfg.T, cfg.levels[0])
    contexts = {j: StepContext(op, nl, tau_of_level(j)) for j in cfg.levels}

    def run_block(block: range):
        incr_fine = sample_increment_batch(cfg.T, fine_level, cfg.master_seed, block)
        sums = {}
        for j in cfg.levels:
            incr_j = coarsen_increments(incr_fine, fine_level, path_level(cfg.T, j))
            cps, finite = _run_checkpointed(
                contexts[j],
                IntegratorKind.LT,
                _tile_initial(u0, len(block)),
                incr_j,
                incr_j.shape[1] // M0,
            )
            if not finite.all():
                raise FloatingPointError("LT moment run produced non-finite values")
            sums[j] = np.sum(cps * cps, axis=0)
        return sums

    results = _map_blocks(cfg.samples, jobs, run_block)
    space_axes = tuple(range(1, 1 + cfg.d))
    out = {}
    for j in cfg.levels:
        total = results[0][j].copy()
        for r in results[1:]:
            total += r[j]
        out[j] = np.max(total, axis=space_axes) / cfg.samples
    return out

"""Command-line entry point.

Subcommands: census, convergence, mesh-study, selftest. Flags override
config-file values (``--config``, one ``key = value`` per line, ``#``
comments); the environment variable SPDE_LAB_SEED is the seed fallback.
Only the values the user set reach the run: they override the reference
experiment parameters, which live in ``CensusConfig`` and
``ConvergenceConfig`` (and their ``default_2d``). A value of 0 is a value,
not "unset": ``--lambda 0`` runs without noise, and ``--samples 0`` is
rejected by the config as it is from a config file.

Exit codes: 0 success, 1 usage/config/I-O error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .experiments import (
    CENSUS_G,
    CensusConfig,
    ConvergenceConfig,
    dyadic_exponent,
    mean_square_error_study,
    merge_reports,
    mesh_independence_study,
    positivity_census,
    write_report,
)
from .integrators import IntegratorKind
from .nonlinearity import CLI_NAMES

ENV_SEED = "SPDE_LAB_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


@dataclass
class RunSpec:
    subcommand: str
    census_configs: list[CensusConfig] | None = None
    convergence_config: ConvergenceConfig | None = None
    mesh_N: list[int] | None = None
    out: str = ""
    jobs: int = 1


def parse_tau(text: str) -> float:
    """Accept 2^-j literals or decimals equal to an exact power of two."""
    s = str(text).strip()
    try:
        if "^" in s:
            base, exp = s.split("^", 1)
            if base.strip() != "2":
                raise ValueError
            return 2.0 ** int(exp)
        value = float(s)
        dyadic_exponent(value)
        return value
    except (ValueError, OverflowError):
        raise UsageError(
            f"--tau {text!r} is not dyadic; use a 2^-j literal or an exact power of two"
        ) from None


def parse_levels(text: str) -> tuple[int, ...]:
    """'4..12' ranges or '4,6,8' lists of step-size exponents."""
    s = str(text).strip()
    try:
        if ".." in s:
            lo, hi = s.split("..", 1)
            levels = tuple(range(int(lo), int(hi) + 1))
        else:
            levels = tuple(int(p) for p in s.split(","))
        if not levels:
            raise ValueError
        return levels
    except ValueError:
        raise UsageError(f"--levels {text!r} is not a range like 4..12 or a list like 4,6,8") from None


def parse_integrators(text: str) -> tuple[IntegratorKind, ...]:
    kinds = []
    for part in str(text).split(","):
        name = part.strip().lower()
        try:
            kinds.append(IntegratorKind(name))
        except ValueError:
            raise UsageError(
                f"--integrators: unknown integrator {part!r} (choose from lt, em, sem, sexp)"
            ) from None
    return tuple(kinds)


def _parse_g(text: str, allow_all: bool) -> list[str]:
    names = [p.strip().lower() for p in str(text).split(",")]
    if allow_all and names == ["all"]:
        return list(CENSUS_G)
    for name in names:
        if name not in CLI_NAMES:
            raise UsageError(
                f"--g: unknown nonlinearity {name!r} (choose from "
                f"{', '.join(sorted(CLI_NAMES))}, or 'all' for the census)"
            )
    return names


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines, # comments; keys mirror the flag names
    (dashes and underscores interchangeable)."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return out


_FLAG_KEYS = ("g", "lambda", "d", "N", "T", "tau", "levels", "ref_level",
              "samples", "seed", "integrators", "out", "jobs", "reference")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spde-lab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="config file, one key = value per line")
        p.add_argument("--seed", help=f"master seed (fallback: ${ENV_SEED}, then 42)")
        p.add_argument("--out", help="output CSV path (default: <subcommand>.csv)")
        p.add_argument("--jobs", help="worker processes over sample blocks, the parent "
                                      "included (default: cores)")
        p.add_argument("--d", help="spatial dimension, 1 or 2 (default 1)")
        p.add_argument("--N", help="subdivisions per axis (default 256 in 1d, 16 in 2d; "
                                   "mesh-study takes a comma list)")
        p.add_argument("--T", help="time horizon")
        p.add_argument("--lambda", help="noise intensity (0: no noise)")
        p.add_argument("--samples", help="Monte Carlo sample count")
        p.add_argument("--integrators", help="comma list among lt, em, sem, sexp")

    p_census = sub.add_parser(
        "census",
        help="positivity census: proportion of sample paths staying nonnegative "
             "(defaults: T=2, tau=2^-5, N=2^8, lambda=2.5, 100 samples, all four g, all integrators)",
    )
    add_common(p_census)
    p_census.add_argument("--g", help="nonlinearity tag(s), comma list or 'all' (default all)")
    p_census.add_argument("--tau", help="time step, 2^-j literal or exact dyadic decimal (default 2^-5)")

    p_conv = sub.add_parser(
        "convergence",
        help="mean-square error study against a fine LT reference "
             "(defaults: T=0.5, N=2^8, levels 4..12, reference level 16, 150 samples, lt/sem/sexp)",
    )
    add_common(p_conv)
    p_conv.add_argument("--g", help="nonlinearity tag (default rational)")
    p_conv.add_argument("--levels", help="step levels, tau = 2^-level (default 4..12 in 1d, 4..10 in 2d)")
    p_conv.add_argument("--ref-level", dest="ref_level",
                        help="LT reference level (default 16 in 1d, 14 in 2d)")
    p_conv.add_argument("--reference", choices=("lt", "exact-linear"),
                        help="reference solution (default lt; exact-linear needs --g linear)")

    p_mesh = sub.add_parser(
        "mesh-study",
        help="convergence study per mesh to show mesh-independent errors "
             "(defaults: g rational, lambda=1.5, N=16,64,256,1024, LT only)",
    )
    add_common(p_mesh)
    p_mesh.add_argument("--g", help="nonlinearity tag (default rational)")
    p_mesh.add_argument("--levels", help="step levels (default 4..12)")
    p_mesh.add_argument("--ref-level", dest="ref_level", help="reference level (default 16)")

    p_self = sub.add_parser("selftest", help="run the fast invariant suite (exit 2 on failure)")
    p_self.add_argument("--jobs", type=int, help=argparse.SUPPRESS)

    return parser


# mesh-study's own settings, read as if given on the command line; the rest,
# in 2d too (the 1d levels and reference level), is ConvergenceConfig's
MESH_STUDY_DEFAULTS = {"lambda": "1.5", "integrators": "lt", "N": "16,64,256,1024"}

# key -> (config field, converter) for the values passed on to a config
_CONFIG_FIELDS = {
    "d": ("d", int),
    "N": ("N", int),
    "T": ("T", float),
    "lambda": ("lam", float),
    "samples": ("samples", int),
    "seed": ("master_seed", int),
    "tau": ("tau", parse_tau),
    "levels": ("levels", parse_levels),
    "ref_level": ("ref_level", int),
    "integrators": ("integrators", parse_integrators),
    "reference": ("reference", lambda text: text.replace("-", "_")),
}


def parse_args(argv=None) -> RunSpec:
    """Validate argv into a RunSpec; raises UsageError on bad input."""
    args = _build_parser().parse_args(argv)
    cmd = args.subcommand
    if cmd == "selftest":
        return RunSpec(subcommand="selftest")

    cfg_file = _read_config_file(args.config) if args.config else {}
    for key in cfg_file:
        if key not in _FLAG_KEYS:
            raise UsageError(f"config file: unknown key {key!r}")
    # what the user set, as text: a flag, else a config-file key; a key
    # this subcommand has no flag for (levels in a census file) is ignored
    given = {key: text for key, text in cfg_file.items() if hasattr(args, key)}
    given.update((key, getattr(args, key)) for key in _FLAG_KEYS
                 if getattr(args, key, None) is not None)
    if "seed" not in given and ENV_SEED in os.environ:
        given["seed"] = os.environ[ENV_SEED]
    if cmd == "mesh-study":
        given = {**MESH_STUDY_DEFAULTS, **given}

    def value(key, convert):
        try:
            return convert(given[key])
        except ValueError:
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{flag} {given[key]!r} is not a valid value") from None

    jobs = value("jobs", int) if "jobs" in given else (os.cpu_count() or 1)
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    out = given.get("out", f"{cmd}.csv")
    mesh_N = None
    if cmd == "mesh-study":
        mesh_N = value("N", lambda text: [int(p) for p in text.split(",")])
        given["N"] = str(mesh_N[0])
    overrides = {name: value(key, convert)
                 for key, (name, convert) in _CONFIG_FIELDS.items() if key in given}
    d = overrides.get("d")
    if d not in (None, 1, 2):
        raise UsageError(f"--d must be 1 or 2, got {d}")

    try:
        if cmd == "census":
            g_names = _parse_g(given["g"], allow_all=True) if "g" in given else list(CENSUS_G)
            make = CensusConfig.default_2d if d == 2 else CensusConfig
            configs = [make(g_name=g, **overrides) for g in g_names]
            return RunSpec("census", census_configs=configs, out=out, jobs=jobs)
        if "g" in given:
            g_names = _parse_g(given["g"], allow_all=False)
            if len(g_names) != 1:
                raise UsageError("--g takes a single tag for convergence studies")
            overrides["g_name"] = g_names[0]
        make = ConvergenceConfig.default_2d if d == 2 and cmd == "convergence" else ConvergenceConfig
        cfg = make(**overrides)
        return RunSpec(cmd, convergence_config=cfg, mesh_N=mesh_N, out=out, jobs=jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run_selftest() -> int:
    from . import selftest  # only this subcommand loads the suite (and scipy)

    results = selftest.run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def main(argv=None) -> int:
    try:
        spec = parse_args(argv)
    except UsageError as exc:
        print(f"spde-lab: error: {exc}", file=sys.stderr)
        return 1

    try:
        if spec.subcommand == "selftest":
            return _run_selftest()
        if spec.subcommand == "census":
            reports = [positivity_census(cfg, jobs=spec.jobs) for cfg in spec.census_configs]
            report = reports[0] if len(reports) == 1 else merge_reports(reports)
        elif spec.subcommand == "convergence":
            report = mean_square_error_study(spec.convergence_config, jobs=spec.jobs)
        else:
            report = mesh_independence_study(
                spec.convergence_config, spec.mesh_N, jobs=spec.jobs
            )
        summary = write_report(report, spec.out)
        print(summary)
        print(f"report written to {spec.out}")
        return 0
    except (UsageError, ValueError, OSError) as exc:
        print(f"spde-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

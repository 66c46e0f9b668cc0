"""Command-line entry point.

Subcommands: census, convergence, mesh-study, selftest. Flags override
config-file values (``--config``, one ``key = value`` per line, ``#``
comments, each key set once); the environment variable SPDE_LAB_SEED is
the seed fallback. Only the values the user set reach the run: they
override the reference experiment parameters, which live in
``CensusConfig`` and ``ConvergenceConfig`` (and their ``default_2d``), as
--help shows them. One table, ``_KEYS``, gives each flag and config-file
key with its converter. A converter only turns text into the config's
type, or raises ValueError with a reason that parse_args prefixes with
the text's source (``--tau '3^-2'``, ``run.cfg: tau = '3^-2'`` or
``$SPDE_LAB_SEED 'abc'``). Every value check is the config's, with its
own message (``tau = 0.1 is not an exact power of two``). A value of 0 is
a value, not "unset": ``--lambda 0`` runs without noise, and
``--samples 0`` is rejected by the config as it is from a config file.
An ``--out`` that no run could write fails before the run.

Exit codes: 0 success, 1 usage/config/I-O error, 2 selftest failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .experiments import (
    CENSUS_G,
    CensusConfig,
    ConvergenceConfig,
    config_text,
    mean_square_error_study,
    mesh_independence_study,
    positivity_census,
    write_report,
)
from .integrators import IntegratorKind

ENV_SEED = "SPDE_LAB_SEED"
_INTEGRATOR_NAMES = ", ".join(kind.value for kind in IntegratorKind)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


@dataclass
class RunSpec:
    subcommand: str
    config: CensusConfig | ConvergenceConfig | None = None
    mesh_N: list[int] | None = None
    out: str = ""
    jobs: int = 1


def parse_tau(text: str) -> float:
    """A 2^k literal or a decimal; CensusConfig checks that it is a dyadic
    step (2^-2000 rounds to 0.0, which it rejects)."""
    base, caret, exp = text.partition("^")
    try:
        if caret and base.strip() == "2":
            return 2.0 ** int(exp)
        return float(text)
    except OverflowError:
        raise ValueError("overflows float64") from None
    except ValueError:
        raise ValueError("is not a 2^k literal or a decimal") from None


def parse_levels(text: str) -> tuple[int, ...]:
    """'4..12' ranges or '4,6,8' lists of step-size exponents;
    ConvergenceConfig rejects an empty range."""
    lo, dots, hi = text.partition("..")
    try:
        if dots:
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError("is not a range like 4..12 or a list like 4,6,8") from None


def parse_integrators(text: str) -> tuple[IntegratorKind, ...]:
    kinds = []
    for part in text.split(","):
        try:
            kinds.append(IntegratorKind(part.strip().lower()))
        except ValueError:
            raise ValueError(
                f"names an unknown integrator {part.strip()!r} (choose from {_INTEGRATOR_NAMES})"
            ) from None
    return tuple(kinds)


def _parse_g(text: str) -> tuple[str, ...]:
    """Census tags, lowercased; 'all' is every census g."""
    names = tuple(p.strip().lower() for p in text.split(","))
    return CENSUS_G if names == ("all",) else names


def _parse_tag(text: str) -> str:
    """A study's one tag, lowercased."""
    if "," in text:
        raise ValueError("takes a single tag for convergence studies")
    return text.strip().lower()


def _parse_mesh_N(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError("is not a valid value") from None


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines, # comments; keys mirror the flag names
    (dashes and underscores interchangeable), each set once. A key that no
    subcommand takes is an error at its line."""
    out, first_line = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if not any(row.key == key for row in _KEYS):
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                if key in out:
                    raise UsageError(
                        f"{path}:{lineno}: {key} is set on lines {first_line[key]} and {lineno}")
                out[key], first_line[key] = value.strip(), lineno
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return out


_RUNS = ("census", "convergence", "mesh-study")
_STUDIES = ("convergence", "mesh-study")


class _Key(NamedTuple):
    """A run parameter: the flag --<key> (dashes for underscores) and the
    config-file key <key>. Its help fills in "{default}" per subcommand."""

    key: str
    help: str
    field: str | None  # the config field it sets; None for out and jobs
    convert: Callable[[str], Any]
    commands: tuple[str, ...] = _RUNS


# in --help order, which is also the order the values are converted in
_KEYS = (
    _Key("seed", f"master seed (fallback: ${ENV_SEED}, then {{default}})", "master_seed", int),
    _Key("out", "output CSV path (default {default})", None, str),
    _Key("jobs", "worker processes over sample blocks, the parent included (default: cores)",
         None, int),
    _Key("d", "spatial dimension, 1 or 2 (default {default})", "d", int),
    _Key("N", "subdivisions per axis (default {default})", "N", int, ("census", "convergence")),
    _Key("N", "comma list of subdivisions per axis (default {default})", "N", _parse_mesh_N,
         ("mesh-study",)),
    _Key("T", "time horizon (default {default})", "T", float),
    _Key("lambda", "noise intensity, 0 for no noise (default {default})", "lam", float),
    _Key("samples", "Monte Carlo sample count (default {default})", "samples", int),
    _Key("integrators", f"comma list among {_INTEGRATOR_NAMES} (default {{default}})", "integrators",
         parse_integrators),
    _Key("g", "nonlinearity tag(s), comma list or 'all' (default {default})", "g_names",
         _parse_g, ("census",)),
    _Key("tau", "time step, 2^-j literal or exact dyadic decimal (default {default})", "tau",
         parse_tau, ("census",)),
    _Key("g", "nonlinearity tag (default {default})", "g_name", _parse_tag, _STUDIES),
    _Key("levels", "step levels, tau = 2^-level, as 4..12 or 4,6,8 (default {default})", "levels",
         parse_levels, _STUDIES),
    _Key("ref_level", "LT reference level (default {default})", "ref_level", int, _STUDIES),
    _Key("reference", "reference solution, lt or exact-linear; exact-linear needs --g linear "
         "(default {default})", "reference", lambda text: text.replace("-", "_"),
         ("convergence",)),
)

# mesh-study's own settings, read as if given on the command line; the rest,
# in 2d too (the 1d levels and reference level), is ConvergenceConfig's
MESH_STUDY_DEFAULTS = {"lambda": "1.5", "integrators": "lt", "N": "16,64,256,1024"}


def _text_defaults(cmd: str) -> dict[str, str]:
    """A subcommand's defaults that no config field holds, as text."""
    own = MESH_STUDY_DEFAULTS if cmd == "mesh-study" else {}
    return {"out": f"{cmd}.csv", **own}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spde-lab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    census = (CensusConfig(), CensusConfig.default_2d())
    study = (ConvergenceConfig(), ConvergenceConfig.default_2d())
    for cmd, summary, (one, two) in (
        ("census", "positivity census: proportion of sample paths staying nonnegative", census),
        ("convergence", "mean-square error study against a fine LT reference", study),
        ("mesh-study", "convergence study per mesh to show mesh-independent errors",
         (study[0], study[0])),
    ):
        p = sub.add_parser(cmd, help=summary)
        p.add_argument("--config", help="config file, one key = value per line")
        defaults = _text_defaults(cmd)
        for row in _KEYS:
            if cmd not in row.commands:
                continue
            if row.key not in defaults and row.field is not None:
                a, b = config_text(getattr(one, row.field)), config_text(getattr(two, row.field))
                defaults[row.key] = a if a == b or row.key == "d" else f"{a} in 1d, {b} in 2d"
            p.add_argument("--" + row.key.replace("_", "-"), dest=row.key,
                           help=row.help.format(default=defaults.get(row.key)))

    sub.add_parser("selftest", help="run the fast invariant suite (exit 2 on failure)")
    return parser


def parse_args(argv=None) -> RunSpec:
    """Validate argv into a RunSpec; raises UsageError on bad input."""
    args = _build_parser().parse_args(argv)
    cmd = args.subcommand
    if cmd == "selftest":
        return RunSpec(subcommand="selftest")

    cfg_file = _read_config_file(args.config) if args.config else {}
    rows = {row.key: row for row in _KEYS if cmd in row.commands}
    # what the user set, as text: a flag, else a config-file key; a key
    # this subcommand has no flag for (levels in a census file) is ignored.
    # source names where a value that is not a flag came from
    given = {key: text for key, text in cfg_file.items() if key in rows}
    source = {key: f"{args.config}: {key} =" for key in given}
    for key in rows:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
            source.pop(key, None)
    if "seed" not in given and ENV_SEED in os.environ:
        given["seed"] = os.environ[ENV_SEED]
        source["seed"] = "$" + ENV_SEED
    given = {**_text_defaults(cmd), **given}

    overrides = {}  # by config field, and out and jobs
    for key, row in rows.items():
        if key in given:
            try:
                overrides[row.field or key] = row.convert(given[key])
            except ValueError as exc:  # int and float give no reason of ours
                where = source.get(key, "--" + key.replace("_", "-"))
                reason = "is not a valid value" if row.convert in (int, float) else exc
                raise UsageError(f"{where} {given[key]!r} {reason}") from None
    jobs, out = overrides.pop("jobs", os.cpu_count() or 1), overrides.pop("out")
    mesh_N = overrides["N"] if cmd == "mesh-study" else None
    if mesh_N:
        overrides["N"] = mesh_N[0]
    d = overrides.get("d")

    try:
        if cmd == "census":
            make = CensusConfig.default_2d if d == 2 else CensusConfig
        elif d == 2 and cmd == "convergence":
            make = ConvergenceConfig.default_2d
        else:
            make = ConvergenceConfig
        spec = RunSpec(cmd, make(**overrides), mesh_N=mesh_N, out=out, jobs=jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _check_out(out)
    return spec


def _check_out(path: str) -> None:
    """Raise, before the run, the error write_report would raise after it
    for a path that is a directory or whose parent is missing or is not a
    directory. The file itself is neither created nor truncated."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write report to {path}: {OSError(code, os.strerror(code), path)}")


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
            report = positivity_census(spec.config, jobs=spec.jobs)
        elif spec.subcommand == "convergence":
            report = mean_square_error_study(spec.config, jobs=spec.jobs)
        else:
            report = mesh_independence_study(spec.config, spec.mesh_N, jobs=spec.jobs)
        summary = write_report(report, spec.out)
        print(summary)
        print(f"report written to {spec.out}")
        return 0
    except (UsageError, ValueError, OSError) as exc:
        print(f"spde-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import math
import os
import re
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

from spde_lab import cli, experiments
from spde_lab.cli import (
    UsageError,
    main,
    parse_args,
    parse_integrators,
    parse_levels,
    parse_tau,
)
from spde_lab.integrators import IntegratorKind


def test_parse_tau_literals():
    assert parse_tau("2^-5") == 2.0**-5
    assert parse_tau("2^3") == 8.0
    assert parse_tau("0.03125") == 2.0**-5
    assert parse_tau("0.25") == 0.25
    # syntax only: CensusConfig rejects these values
    assert parse_tau("0.1") == 0.1
    assert parse_tau("2^-2000") == 0.0
    with pytest.raises(ValueError, match=r"^is not a 2\^k literal or a decimal$"):
        parse_tau("3^-2")
    with pytest.raises(ValueError, match="^overflows float64$"):
        parse_tau("2^2000")


@pytest.mark.parametrize("bad", ["0.1", "3^-2", "abc", "0.3"])
def test_parse_tau_rejects_non_dyadic(bad):
    # parse_tau rejects what is not a number, CensusConfig a number that is
    # not dyadic
    with pytest.raises(UsageError):
        parse_args(["census", "--tau", bad])


@pytest.mark.parametrize("tau,message", [
    ("2^-2000", "tau = 0.0 is not a positive power of two"),  # rounds to 0.0
    ("2^2000", "--tau '2^2000' overflows float64"),
    ("5e-324", "tau = 2^-1074 over T = 2.0 takes 2^1075 steps, more than the cap 2^24"),
    ("2^3", "tau = 2^3 exceeds the horizon T = 2.0"),
])
def test_census_tau_out_of_range_exits_1_naming_tau(tmp_path, capsys, tau, message):
    out = tmp_path / "census.csv"
    assert main(["census", "--tau", tau, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"spde-lab: error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("cmd,T", [("census", "2.5"), ("convergence", "0.3")])
def test_non_dyadic_T_exits_1_naming_T(tmp_path, capsys, cmd, T):
    out = tmp_path / "x.csv"
    assert main([cmd, "--T", T, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"spde-lab: error: T = {T} is not an exact power of two\n"
    assert not out.exists()


def test_parse_levels():
    assert parse_levels("4..12") == tuple(range(4, 13))
    assert parse_levels("4,6,8") == (4, 6, 8)
    assert parse_levels("7") == (7,)
    with pytest.raises(ValueError, match="^is not a range like 4..12 or a list like 4,6,8$"):
        parse_levels("4..")
    with pytest.raises(ValueError, match="^is not a range like 4..12 or a list like 4,6,8$"):
        parse_levels("a,b")
    assert parse_levels("12..4") == ()  # ConvergenceConfig rejects it
    with pytest.raises(UsageError, match="^need at least one step level$"):
        parse_args("convergence --levels 12..4".split())


def test_parse_integrators():
    assert parse_integrators("lt,em") == (IntegratorKind.LT, IntegratorKind.EM)
    assert parse_integrators("SEXP") == (IntegratorKind.SEXP,)
    with pytest.raises(ValueError, match=re.escape(
            "names an unknown integrator 'milstein' (choose from lt, em, sem, sexp)")):
        parse_integrators("lt,milstein")


def test_parse_args_census_paper_row():
    spec = parse_args(
        "census --g rational --lambda 2.5 --tau 2^-5 --N 256 --T 2 --samples 100 --seed 42".split()
    )
    assert spec.subcommand == "census"
    cfg = spec.config
    assert cfg.d == 1 and cfg.N == 256 and cfg.T == 2.0
    assert cfg.tau == 2.0**-5 and cfg.lam == 2.5
    assert cfg.samples == 100 and cfg.master_seed == 42
    assert cfg.g_names == ("rational",)


def test_parse_args_census_defaults_cover_all_g():
    for argv in (["census"], ["census", "--g", "all"]):
        cfg = parse_args(argv).config
        assert cfg.g_names == ("linear", "rational", "sineplus", "log1p")
        assert (cfg.T, cfg.tau, cfg.N, cfg.lam, cfg.samples) == (2.0, 2.0**-5, 256, 2.5, 100)
        assert len(cfg.integrators) == 4


def test_parse_args_convergence_figure_config():
    spec = parse_args("convergence --g linear --levels 4..12".split())
    cfg = spec.config
    assert cfg.g_name == "linear"
    assert cfg.levels == tuple(range(4, 13))
    assert cfg.ref_level == 16 and cfg.T == 0.5 and cfg.N == 256
    assert cfg.samples == 150


def test_parse_args_2d_defaults():
    spec = parse_args("convergence --d 2".split())
    cfg = spec.config
    assert cfg.N == 16 and cfg.ref_level == 14
    assert cfg.levels == tuple(range(4, 11))


def test_parse_args_rejects_unknown_g():
    # the configs name the g, with from_name's message
    message = re.escape("unknown nonlinearity 'cubic'; choose from ['linear', ")
    with pytest.raises(UsageError, match=message):
        parse_args("census --g cubic".split())
    with pytest.raises(UsageError, match=message):
        parse_args("census --g linear,cubic".split())
    with pytest.raises(UsageError, match=message):
        parse_args("convergence --g cubic".split())
    with pytest.raises(UsageError, match="^--g 'linear,rational' takes a single tag for "
                                         "convergence studies$"):
        parse_args("convergence --g linear,rational".split())


def test_parse_args_rejects_level_at_reference():
    with pytest.raises(UsageError, match="coarser than the reference"):
        parse_args("convergence --levels 4..16 --ref-level 16".split())


def test_parse_args_mesh_study_n_list():
    spec = parse_args("mesh-study --N 16,64".split())
    assert spec.mesh_N == [16, 64]
    assert spec.config.lam == 1.5
    assert spec.config.integrators == (IntegratorKind.LT,)


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("SPDE_LAB_SEED", "777")
    spec = parse_args(["census"])
    assert spec.config.master_seed == 777
    monkeypatch.delenv("SPDE_LAB_SEED")
    assert parse_args(["census"]).config.master_seed == 42


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# one census row\ng = rational\nsamples = 7\nseed = 9\n", encoding="utf-8")
    spec = parse_args(["census", "--config", str(cfg)])
    assert spec.config.g_names == ("rational",)
    assert spec.config.samples == 7
    assert spec.config.master_seed == 9
    # flags override the file
    spec = parse_args(["census", "--config", str(cfg), "--samples", "3"])
    assert spec.config.samples == 3


def test_config_file_dashed_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ref-level = 9\nlevels = 3,4\n", encoding="utf-8")
    spec = parse_args(["convergence", "--config", str(cfg)])
    assert spec.config.ref_level == 9
    assert spec.config.levels == (3, 4)


def test_config_file_sets_each_key_once(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 3\n# more samples\nsamples = 5\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        parse_args(["census", "--config", str(cfg)])
    assert str(exc.value) == f"{cfg}:3: samples is set on lines 1 and 3"
    # dashes and underscores spell one key
    cfg.write_text("ref-level = 9\nref_level = 10\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        parse_args(["convergence", "--config", str(cfg)])
    assert str(exc.value) == f"{cfg}:2: ref_level is set on lines 1 and 2"


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 7\nwidgets = 3\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        parse_args(["census", "--config", str(cfg)])
    # named at its line, like every other config-file error
    assert str(exc.value) == f"{cfg}:2: unknown key 'widgets'"


def test_main_usage_error_exits_1(capsys):
    assert main(["census", "--tau", "0.3"]) == 1
    assert "tau = 0.3 is not an exact power of two" in capsys.readouterr().err


def test_main_unknown_flag_exits_1(capsys):
    assert main(["census", "--frobnicate"]) == 1


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "census" in capsys.readouterr().out


def test_main_census_small_run(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main(
        [
            "census", "--g", "rational", "--N", "16", "--samples", "6",
            "--seed", "3", "--jobs", "1", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "integrator,g,lambda,d,N,tau,samples,positive,diverged" in text
    assert "lt,rational,2.5,1,16,0.03125,6,6,0" in text
    stdout = capsys.readouterr().out
    assert "census" in stdout and str(out) in stdout


def test_main_byte_identical_reruns(tmp_path):
    args = ["census", "--g", "linear", "--N", "16", "--samples", "5", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_convergence_small_run(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "convergence", "--g", "rational", "--N", "16", "--levels", "3,4",
            "--ref-level", "7", "--samples", "5", "--seed", "2", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert "integrator,g,lambda,d,N,level,tau,rms_sup_error" in lines
    assert any(l.startswith("# slope:lt=") for l in lines)


def test_main_mesh_study_small_run(tmp_path):
    out = tmp_path / "mesh.csv"
    code = main(
        [
            "mesh-study", "--N", "8,16", "--levels", "3,4", "--ref-level", "7",
            "--samples", "4", "--seed", "2", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert any("# slope:lt[N=8]=" in l for l in lines)
    assert any("# slope:lt[N=16]=" in l for l in lines)


def test_main_bad_output_path_exits_1(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the census ran before its output path was checked")

    monkeypatch.setattr(cli, "positivity_census", no_run)
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    cases = [(tmp_path / "missing" / "dir" / "x.csv", "No such file or directory"),
             (tmp_path / "file" / "x.csv", "Not a directory"),
             (tmp_path, "Is a directory"),
             ("", "No such file or directory")]
    if os.path.isdir("/proc"):  # no file can be created there, even by root
        cases.append(("/proc/x.csv", "No such file or directory"))
    for out, reason in cases:
        code = main(["census", "--g", "linear", "--N", "16", "--samples", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"spde-lab: error: cannot write report to {out}: ")
        assert f"{reason}: '{out}'" in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


def test_main_selftest_exits_0():
    assert main(["selftest"]) == 0


def test_selftest_takes_no_flags(capsys):
    assert main(["selftest", "--jobs", "2"]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_selftest_fails_for_a_census_g_without_a_scalar_oracle(monkeypatch):
    from spde_lab import selftest

    monkeypatch.delitem(selftest._SCALAR_G, "log1p")
    result = selftest.check_scalar_oracle()
    assert not result.passed
    assert result.detail == "no scalar oracle for g = log1p"


def test_scalar_oracle_fails_on_a_nan_step(monkeypatch):
    from spde_lab import integrators, selftest

    monkeypatch.setitem(integrators.UPDATES, integrators.IntegratorKind.LT,
                        lambda ctx, U, dbeta: (np.full_like(U, np.nan), 0))
    result = selftest.check_scalar_oracle()
    assert not result.passed
    assert result.detail == "max deviation nan (tol 1e-13)"


def _nan_f_above_0_9(monkeypatch, g_name):
    """Make f NaN wherever a field passes 0.9, in the package and the oracle
    alike: both build g through from_name."""
    from spde_lab import nonlinearity

    build = nonlinearity.CLI_NAMES[g_name]

    def nan_above(lam):
        nl = build(lam)
        return replace(nl, f=lambda v: np.where(np.asarray(v) > 0.9, np.nan, nl.f(v)))

    monkeypatch.setitem(nonlinearity.CLI_NAMES, g_name, nan_above)


def test_census_check_fails_when_lt_loses_paths_in_package_and_oracle_alike(monkeypatch):
    # both lose every LT path of the linear g, so their counts agree
    from spde_lab import selftest

    _nan_f_above_0_9(monkeypatch, "linear")
    result = selftest.check_census(1, 16)
    assert not result.passed
    assert result.detail == "['em', 'lt', 'sem', 'sexp'] lost a path: LT must not, a comparator must"


def test_study_check_fails_when_no_oracle_sample_stays_finite(monkeypatch):
    # every path of the rational g diverges: the oracle's errors are NaN, and
    # the check fails where it divided 0 by 0
    from spde_lab import selftest

    _nan_f_above_0_9(monkeypatch, "rational")
    result = selftest.check_study(1, 16)
    assert not result.passed
    assert result.detail.startswith("oracle errors [('lt', 2), ('lt', 3)")
    assert result.detail.endswith("'sexp@5': 100}")


def test_selftest_fails_on_a_perturbed_semigroup(monkeypatch, capsys):
    from spde_lab.heat_operator import HeatFlow

    exact = HeatFlow.semigroup_mult.func
    # exp(tau mu + 1e-8): the heat kernel off by 1e-8 in its exponent
    monkeypatch.setattr(HeatFlow, "semigroup_mult",
                        property(lambda flow: exact(flow) * math.exp(1e-8)))
    assert main(["selftest"]) == 2
    assert re.search(r"^FAIL  ", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_main_rejects_non_finite_lambda(tmp_path, capsys, lam):
    out = tmp_path / "c.csv"
    code = main(["census", "--lambda", lam, "--g", "linear", "--N", "16",
                 "--samples", "2", "--out", str(out)])
    assert code == 1
    assert "lambda must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d,diverged", [(1, 3), (2, 1)])
def test_main_diverging_sem_samples_are_counted(tmp_path, d, diverged):
    # the 1d banded solve must carry non-finite samples as data, as 2d does
    out = tmp_path / "c.csv"
    code = main(["census", "--lambda", "1e6", "--g", "linear", "--integrators", "sem",
                 "--d", str(d), "--N", "16", "--samples", "3", "--jobs", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert f"# diverged:sem={diverged}" in lines
    assert lines[-1] == f"sem,linear,1000000.0,{d},16,0.03125,3,0,{diverged}"


LT, EM, SEM, SEXP = (IntegratorKind.LT, IntegratorKind.EM, IntegratorKind.SEM, IntegratorKind.SEXP)
CENSUS_1D = dict(d=1, T=2.0, tau=2.0**-5, N=256,
                 g_names=("linear", "rational", "sineplus", "log1p"), lam=2.5, samples=100,
                 master_seed=42, integrators=(LT, EM, SEM, SEXP))
CONVERGENCE_1D = dict(d=1, T=0.5, N=256, g_name="rational", lam=1.0, samples=150,
                      master_seed=42, levels=tuple(range(4, 13)), ref_level=16,
                      integrators=(LT, SEM, SEXP), reference="lt")
MESH = dict(CONVERGENCE_1D, N=16, lam=1.5, integrators=(LT,))


@pytest.mark.parametrize("cmd,d,want,mesh_N", [
    ("census", 1, CENSUS_1D, None),
    ("census", 2, dict(CENSUS_1D, d=2, N=16), None),
    ("convergence", 1, CONVERGENCE_1D, None),
    ("convergence", 2, dict(CONVERGENCE_1D, d=2, N=16, levels=tuple(range(4, 11)), ref_level=14),
     None),
    # mesh-study keeps the 1d levels and reference level in 2d
    ("mesh-study", 1, MESH, [16, 64, 256, 1024]),
    ("mesh-study", 2, dict(MESH, d=2), [16, 64, 256, 1024]),
])
def test_parse_args_defaults_table(monkeypatch, cmd, d, want, mesh_N):
    monkeypatch.delenv("SPDE_LAB_SEED", raising=False)
    spec = parse_args([cmd, "--d", str(d)])
    assert spec.out == f"{cmd}.csv" and spec.mesh_N == mesh_N
    assert asdict(spec.config) == want


@pytest.mark.parametrize("cmd", ["census", "convergence", "mesh-study"])
def test_lambda_zero_means_no_noise(cmd):
    assert parse_args([cmd, "--lambda", "0"]).config.lam == 0.0


@pytest.mark.parametrize("cmd,key,text,message", [
    ("census", "samples", "0", "need at least one sample"),
    ("convergence", "samples", "0", "need at least one sample"),
    ("census", "T", "0", "0.0 is not a positive power of two"),
    ("convergence", "T", "0", "0.0 is not a positive power of two"),
    ("convergence", "ref-level", "0", "must be coarser than the reference level 0"),
    ("mesh-study", "ref-level", "0", "must be coarser than the reference level 0"),
])
def test_zero_flags_and_file_keys_fail_alike(tmp_path, capsys, cmd, key, text, message):
    out = tmp_path / "x.csv"
    assert main([cmd, f"--{key}", text, "--out", str(out)]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == from_flag
    assert message in from_flag and not out.exists()


def test_config_key_of_another_subcommand_is_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 3,4\nref-level = 9\nreference = exact-linear\ntau = 2^-3\n",
                   encoding="utf-8")
    census = parse_args(["census", "--config", str(cfg), "--g", "linear"]).config
    assert census.tau == 2.0**-3
    mesh = parse_args(["mesh-study", "--config", str(cfg)]).config
    assert (mesh.levels, mesh.ref_level, mesh.reference) == ((3, 4), 9, "lt")


def test_bad_config_value_is_a_usage_error(tmp_path):
    # the message names the file and its key, not a flag nobody gave
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = many\nref-level = ten\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        parse_args(["census", "--config", str(cfg)])
    assert str(exc.value) == f"{cfg}: samples = 'many' is not a valid value"
    with pytest.raises(UsageError) as exc:
        parse_args(["convergence", "--config", str(cfg), "--samples", "3"])
    assert str(exc.value) == f"{cfg}: ref_level = 'ten' is not a valid value"
    # a flag overrides the file, and a bad flag keeps its own name
    with pytest.raises(UsageError) as exc:
        parse_args(["census", "--config", str(cfg), "--samples", "lots"])
    assert str(exc.value) == "--samples 'lots' is not a valid value"


def test_bad_environment_seed_names_the_variable(monkeypatch, tmp_path):
    monkeypatch.setenv("SPDE_LAB_SEED", "abc")
    with pytest.raises(UsageError) as exc:
        parse_args(["census"])
    assert str(exc.value) == "$SPDE_LAB_SEED 'abc' is not a valid value"
    # a flag or a config-file seed wins over the variable, which is not read
    assert parse_args(["census", "--seed", "7"]).config.master_seed == 7
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 8\n", encoding="utf-8")
    assert parse_args(["census", "--config", str(cfg)]).config.master_seed == 8
    with pytest.raises(UsageError) as exc:
        parse_args(["census", "--seed", "x1"])
    assert str(exc.value) == "--seed 'x1' is not a valid value"


@pytest.mark.parametrize("argv,message", [
    (["census", "--samples", "many"], "--samples 'many' is not a valid value"),
    (["census", "--d", "3"], "dimension must be 1 or 2, got 3"),
    (["convergence", "--jobs", "0"], "jobs must be >= 1, got 0"),
    (["mesh-study", "--N", "16,x"], "--N '16,x' is not a valid value"),
])
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, eight_gb_machine, argv, message):
    # parse_args rejects the others; the library rejects jobs before the run
    # sets up its grid (which eight_gb_machine would fail)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"spde-lab: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["convergence", "--d", "2", "--N", "4096", "--jobs", "1"],
    ["mesh-study", "--d", "2", "--jobs", "2"],
])
def test_main_oversized_run_exits_1_before_allocating(tmp_path, capsys, eight_gb_machine,
                                                     four_cpu_machine, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run needs at least" in err and "the machine has 8.59 GB" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_block_error_exits_1_at_any_jobs(tmp_path, capsys, monkeypatch, four_cpu_machine, jobs):
    # block 50 runs on a forked worker at two processes, in process at one
    real = experiments.sample_increment_batch

    def fails_on_block_50(T, level, seed, block):
        if block.start == 50:
            raise ValueError("increments of block 50 are unavailable")
        return real(T, level, seed, block)

    monkeypatch.setattr(experiments, "sample_increment_batch", fails_on_block_50)
    out = tmp_path / "c.csv"
    argv = ["census", "--g", "linear", "--N", "16", "--T", "0.25", "--samples", "150",
            "--jobs", jobs, "--out", str(out)]
    assert main(argv) == 1
    assert "spde-lab: error: increments of block 50 are unavailable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd,key,text,message", [
    ("census", "integrators", "em,em", "integrators lists em more than once"),
    ("census", "g", "rational,rational", "g lists rational more than once"),
    ("convergence", "levels", "2,2,3", "levels lists 2 more than once"),
    ("convergence", "integrators", "lt,sem,lt", "integrators lists lt more than once"),
    ("mesh-study", "levels", "4,4", "levels lists 4 more than once"),
    ("mesh-study", "N", "8,16,8", "N lists 8 more than once"),
    ("census", "seed", "-5", "seed must be in [0, 2^64), got -5"),
    ("convergence", "seed", "18446744073709551658",
     "seed must be in [0, 2^64), got 18446744073709551658"),
    ("mesh-study", "seed", str(2**64), f"seed must be in [0, 2^64), got {2**64}"),
])
def test_duplicates_and_out_of_range_seeds_fail_alike(tmp_path, capsys, monkeypatch,
                                                       cmd, key, text, message):
    monkeypatch.delenv("SPDE_LAB_SEED", raising=False)
    out = tmp_path / "x.csv"
    assert main([cmd, f"--{key}", text, "--out", str(out)]) == 1
    from_flag = capsys.readouterr().err
    assert from_flag == f"spde-lab: error: {message}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == from_flag
    if key == "seed":
        monkeypatch.setenv("SPDE_LAB_SEED", text)
        assert main([cmd, "--out", str(out)]) == 1
        assert capsys.readouterr().err == from_flag
    assert not out.exists()


def test_help_defaults_come_from_the_configs(monkeypatch, capsys):
    @dataclass(frozen=True)
    class Census(experiments.CensusConfig):
        samples: int = 123

    @dataclass(frozen=True)
    class Study(experiments.ConvergenceConfig):
        T: float = 0.25
        ref_level: int = 17

    for module in (cli, experiments):  # default_2d builds the patched class too
        monkeypatch.setattr(module, "CensusConfig", Census)
        monkeypatch.setattr(module, "ConvergenceConfig", Study)

    def help_of(cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    census = help_of("census")
    assert "Monte Carlo sample count (default 123)" in census
    assert "subdivisions per axis (default 256 in 1d, 16 in 2d)" in census
    convergence = help_of("convergence")
    assert "time horizon (default 0.25)" in convergence
    assert "LT reference level (default 17 in 1d, 14 in 2d)" in convergence
    mesh = help_of("mesh-study")
    assert "LT reference level (default 17)" in mesh
    assert "noise intensity, 0 for no noise (default 1.5)" in mesh


# a text that each _KEYS row, named by its key and first subcommand, cannot
# convert; the other rows convert every text and leave the check to the config
UNCONVERTIBLE = {
    ("seed", "census"): "x1", ("jobs", "census"): "two", ("d", "census"): "one",
    ("N", "census"): "16.5", ("N", "mesh-study"): "16,x", ("T", "census"): "half",
    ("lambda", "census"): "big", ("samples", "census"): "many",
    ("integrators", "census"): "lt,milstein", ("tau", "census"): "3^-2",
    ("g", "convergence"): "linear,rational", ("levels", "convergence"): "4..x",
    ("ref_level", "convergence"): "ten",
}


def test_every_key_that_can_fail_to_convert_is_covered():
    rows = {(row.key, row.commands[0]) for row in cli._KEYS}
    assert rows - UNCONVERTIBLE.keys() == {("out", "census"), ("g", "census"),
                                           ("reference", "convergence")}


@pytest.mark.parametrize("key,cmd", list(UNCONVERTIBLE))
def test_a_bad_value_names_its_source(tmp_path, monkeypatch, key, cmd):
    monkeypatch.delenv("SPDE_LAB_SEED", raising=False)
    text = UNCONVERTIBLE[key, cmd]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(UsageError) as exc:
        parse_args([cmd, flag, text])
    assert str(exc.value).startswith(f"{flag} {text!r} ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    sources = [(f"{cfg}: {key} = {text!r} ", [cmd, "--config", str(cfg)])]
    if key == "seed":
        monkeypatch.setenv("SPDE_LAB_SEED", text)
        sources.append((f"$SPDE_LAB_SEED {text!r} ", [cmd]))
    for source, argv in sources:
        with pytest.raises(UsageError) as exc:
            parse_args(argv)
        message = str(exc.value)
        assert message.startswith(source)
        assert "--" not in message[len(source):]  # no flag nobody gave

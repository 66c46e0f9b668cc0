import pytest

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


@pytest.mark.parametrize("bad", ["0.1", "3^-2", "abc", "0.3"])
def test_parse_tau_rejects_non_dyadic(bad):
    with pytest.raises(UsageError):
        parse_tau(bad)


def test_parse_levels():
    assert parse_levels("4..12") == tuple(range(4, 13))
    assert parse_levels("4,6,8") == (4, 6, 8)
    assert parse_levels("7") == (7,)
    with pytest.raises(UsageError):
        parse_levels("4..")
    with pytest.raises(UsageError):
        parse_levels("a,b")


def test_parse_integrators():
    assert parse_integrators("lt,em") == (IntegratorKind.LT, IntegratorKind.EM)
    assert parse_integrators("SEXP") == (IntegratorKind.SEXP,)
    with pytest.raises(UsageError):
        parse_integrators("lt,milstein")


def test_parse_args_census_paper_row():
    spec = parse_args(
        "census --g rational --lambda 2.5 --tau 2^-5 --N 256 --T 2 --samples 100 --seed 42".split()
    )
    assert spec.subcommand == "census"
    (cfg,) = spec.census_configs
    assert cfg.d == 1 and cfg.N == 256 and cfg.T == 2.0
    assert cfg.tau == 2.0**-5 and cfg.lam == 2.5
    assert cfg.samples == 100 and cfg.master_seed == 42
    assert cfg.g_name == "rational"


def test_parse_args_census_defaults_cover_all_g():
    spec = parse_args(["census"])
    names = [c.g_name for c in spec.census_configs]
    assert names == ["linear", "rational", "sineplus", "log1p"]
    for cfg in spec.census_configs:
        assert (cfg.T, cfg.tau, cfg.N, cfg.lam, cfg.samples) == (2.0, 2.0**-5, 256, 2.5, 100)
        assert len(cfg.integrators) == 4


def test_parse_args_convergence_figure_config():
    spec = parse_args("convergence --g linear --levels 4..12".split())
    cfg = spec.convergence_config
    assert cfg.g_name == "linear"
    assert cfg.levels == tuple(range(4, 13))
    assert cfg.ref_level == 16 and cfg.T == 0.5 and cfg.N == 256
    assert cfg.samples == 150


def test_parse_args_2d_defaults():
    spec = parse_args("convergence --d 2".split())
    cfg = spec.convergence_config
    assert cfg.N == 16 and cfg.ref_level == 14
    assert cfg.levels == tuple(range(4, 11))


def test_parse_args_rejects_unknown_g():
    with pytest.raises(UsageError, match="unknown nonlinearity"):
        parse_args("census --g cubic".split())


def test_parse_args_rejects_level_at_reference():
    with pytest.raises(UsageError, match="coarser than the reference"):
        parse_args("convergence --levels 4..16 --ref-level 16".split())


def test_parse_args_mesh_study_n_list():
    spec = parse_args("mesh-study --N 16,64".split())
    assert spec.mesh_N == [16, 64]
    assert spec.convergence_config.lam == 1.5
    assert spec.convergence_config.integrators == (IntegratorKind.LT,)


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("SPDE_LAB_SEED", "777")
    spec = parse_args(["census"])
    assert spec.census_configs[0].master_seed == 777
    monkeypatch.delenv("SPDE_LAB_SEED")
    assert parse_args(["census"]).census_configs[0].master_seed == 42


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# one census row\ng = rational\nsamples = 7\nseed = 9\n", encoding="utf-8")
    spec = parse_args(["census", "--config", str(cfg)])
    assert [c.g_name for c in spec.census_configs] == ["rational"]
    assert spec.census_configs[0].samples == 7
    assert spec.census_configs[0].master_seed == 9
    # flags override the file
    spec = parse_args(["census", "--config", str(cfg), "--samples", "3"])
    assert spec.census_configs[0].samples == 3


def test_config_file_dashed_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ref-level = 9\nlevels = 3,4\n", encoding="utf-8")
    spec = parse_args(["convergence", "--config", str(cfg)])
    assert spec.convergence_config.ref_level == 9
    assert spec.convergence_config.levels == (3, 4)


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 7\nwidgets = 3\n", encoding="utf-8")
    with pytest.raises(UsageError, match="widgets"):
        parse_args(["census", "--config", str(cfg)])


def test_main_usage_error_exits_1(capsys):
    assert main(["census", "--tau", "0.3"]) == 1
    assert "dyadic" in capsys.readouterr().err


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


def test_main_bad_output_path_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "x.csv"
    code = main(["census", "--g", "linear", "--N", "16", "--samples", "2", "--out", str(out)])
    assert code == 1
    assert "x.csv" in capsys.readouterr().err


def test_main_selftest_exits_0():
    assert main(["selftest"]) == 0


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

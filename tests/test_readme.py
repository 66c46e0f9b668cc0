"""The README's Library example runs against the package as it is, and
the errors it quotes are the ones the CLI prints."""

import re
from pathlib import Path

import pytest

from spde_lab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_readme_library_snippet_runs():
    exec(compile(library_snippet(), f"{README.name} (Library)", "exec"), {})


# argv, the config file run.cfg it may read, and the message the CLI prints
QUOTED_ERRORS = [
    (["census", "--tau", "2^3"], "", "tau = 2^3 exceeds the horizon T = 2.0"),
    (["census", "--T", "2.5"], "", "T = 2.5 is not an exact power of two"),
    (["census", "--integrators", "em,em"], "", "integrators lists em more than once"),
    (["census", "--seed", "-5"], "", "seed must be in [0, 2^64), got -5"),
    (["census", "--tau", "0.1"], "", "tau = 0.1 is not an exact power of two"),
    (["census", "--tau", "3^-2"], "", "--tau '3^-2' is not a 2^k literal or a decimal"),
    (["census", "--config", "run.cfg"], "tau = 3^-2\n",
     "run.cfg: tau = '3^-2' is not a 2^k literal or a decimal"),
    (["convergence", "--levels", "12..4"], "", "need at least one step level"),
    (["census", "--config", "run.cfg"], "samples = 3\n# more\nsamples = 5\n",
     "run.cfg:3: samples is set on lines 1 and 3"),
    (["census", "--config", "run.cfg"], "samples = 3\nwidgets = 3\n",
     "run.cfg:2: unknown key 'widgets'"),
    (["census", "--out", "missing/x.csv"], "",
     "cannot write report to missing/x.csv: [Errno 2] No such file or directory: 'missing/x.csv'"),
]


@pytest.mark.parametrize("argv,config,message", QUOTED_ERRORS,
                         ids=[message for *_, message in QUOTED_ERRORS])
def test_readme_quotes_the_errors_the_cli_prints(tmp_path, monkeypatch, capsys, argv, config,
                                                  message):
    assert f"`{message}`" in README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPDE_LAB_SEED", raising=False)
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"spde-lab: error: {message}\n"

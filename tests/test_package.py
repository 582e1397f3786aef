"""Package layout: every exported name exists, the runtime needs
numpy and the standard library only (scipy, mpmath and hypothesis are
test-only oracles), and a process loads only the submodules it uses."""

import importlib
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["overallprior"] + [f"overallprior.{name}" for name in (
    "catalogue", "cli", "hier", "numerics", "refdist", "shrinkage")]
SUBMODULES = {"catalogue", "hier", "numerics", "refdist", "shrinkage"}

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_runtime_imports_are_numpy_and_stdlib(loaded_modules):
    # Every module by name: importing the package alone loads none of
    # its submodules.
    loaded = loaded_modules("import " + ", ".join(MODULES))
    assert "overallprior.cli" in loaded
    for name in ("scipy", "mpmath", "hypothesis", "pytest"):
        assert not [m for m in loaded
                    if m == name or m.startswith(name + ".")], name
    # The [project] table's dependency list, read with a regex: tomllib
    # needs Python 3.11, and the package supports 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)^\[", text, re.S | re.M)
    deps = re.search(r"^dependencies = \[(.*?)\]", project.group(1),
                     re.S | re.M)
    assert re.findall(r'"([^"]*)"', deps.group(1)) == ["numpy>=1.24"]


def test_gibbs_sample_runs_without_test_only_packages(loaded_modules):
    # A lazy import inside a sampler or a density would not show at
    # import time: run the Gibbs chain once and both prior densities at
    # small and large |mu|^2 (each branch of the closed form), then look
    # for the test-only oracles.
    code = ("import numpy, overallprior.cli; "
            "from overallprior.shrinkage import (MeansData, gibbs_sample, "
            "hierarchical_prior_density as h, reference_prior_density); "
            "gibbs_sample(MeansData(numpy.arange(5.0)), 50, seed=0); "
            "[f(mu) for f in (h, reference_prior_density) for mu in "
            "([0.1, 0.0], [0.1, 0.0, 0.0], [30.0, 0.0, 0.0])]")
    loaded = loaded_modules(code)
    assert "overallprior.shrinkage" in loaded
    for name in ("scipy", "mpmath"):
        assert not [m for m in loaded
                    if m == name or m.startswith(name + ".")], name


def test_readme_examples_run():
    # The README's Python blocks run in order as one script, and print
    # the values the README states next to them.
    readme = (ROOT / "README.md").read_text()
    code = "\n".join(re.findall(r"```python\n(.*?)```", readme, re.S))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert round(float(lines[0]), 4) == 0.0834
    assert float(lines[2]) == pytest.approx(math.sqrt(2) / 1000, rel=0.01)


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # Each command of the README's "Command line" block, continuation
    # lines joined, runs through cli.main on the README's own count file
    # and five means, exits with 0 and writes nothing to stderr.
    from overallprior import cli
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme,
                      re.S).group(1)
    commands = [ln for ln in block.replace("\\\n", " ").splitlines()
                if ln.startswith("overallprior ")]
    assert len(commands) == 5
    counts = re.search(r"Count files for `hier`.*?```\n(.*?)```", readme,
                       re.S).group(1)
    (tmp_path / "counts.txt").write_text(counts)
    (tmp_path / "data.txt").write_text("2.0 -1.0 0.5 1.5 -2.5\n")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().err == "", command


def test_exact_prior_table_loads_no_numpy_polynomial(loaded_modules):
    # numpy.polynomial costs milliseconds to import, which every command
    # would pay: the exact-prior table sums its Chebyshev series itself.
    code = ("import overallprior.cli; "
            "from overallprior.hier import CountTable, sample_posterior; "
            "sample_posterior(CountTable(m=5, counts={0: 2, 1: 1}), 5, "
            "seed=0, warmup=0)")
    loaded = loaded_modules(code)
    assert "overallprior.hier" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]


def test_solver_paths_load_no_numpy_random(tmp_path, loaded_modules):
    # numpy.random costs about 14 ms of CPU to import.  No random number
    # is drawn by the refdist and catalogue commands, nor by reading a
    # count table and finding its modes (what the hier command does
    # before its chain), so none of them may load it.
    code = ("from overallprior.cli import main\n"
            "assert main(['refdist', '--m', '3', '--n', '5', '--out', "
            f"{str(tmp_path / 'rd')!r}]) == 0\n"
            "assert main(['catalogue', 'bivariate-binomial', '0.5', "
            "'0.5']) == 0\n"
            "from overallprior.hier import (CountTable, likelihood_mode_a, "
            "posterior_mode_a)\n"
            "t = CountTable.from_sparse_text('60 5\\n0 3\\n7 2\\n')\n"
            "[posterior_mode_a(t, prior=p) for p in ('exact', 'approx')]\n"
            "likelihood_mode_a(t)")
    loaded = loaded_modules(code)
    assert {"overallprior.refdist", "overallprior.catalogue",
            "overallprior.hier"} <= loaded
    assert not [m for m in loaded if m.startswith("numpy.random")]


def _package_modules(loaded):
    return {m for m in loaded if m.startswith("overallprior.")}


def test_import_loads_submodules_on_first_use(loaded_modules):
    # Each route to a prior is imported when first touched, so a process
    # pays only for the ones it uses.
    assert _package_modules(loaded_modules("import overallprior")) == {
        "overallprior.exceptions"}
    assert "overallprior.hier" in loaded_modules(
        "import overallprior; overallprior.hier")
    listed = loaded_modules(
        "import overallprior\n"
        f"assert {SUBMODULES!r} <= set(dir(overallprior)), dir(overallprior)")
    assert _package_modules(listed) == {"overallprior.exceptions"}


@pytest.mark.parametrize("command, module", [
    ("refdist", "refdist"), ("hier", "hier"), ("shrink", "shrinkage"),
    ("catalogue", "catalogue")])
def test_cli_command_loads_only_its_module(tmp_path, loaded_modules,
                                           command, module):
    counts, means = tmp_path / "counts.txt", tmp_path / "x.txt"
    counts.write_text("4 5\n0 3\n2 2\n")
    means.write_text("1.0 -2.0 0.5 3.0\n")
    out = str(tmp_path / "out")
    argv = {
        "refdist": ["--m", "3", "--n", "5", "--grid", "0.1:1:3",
                    "--out", out],
        "hier": ["--input", str(counts), "--chain", "20",
                 "--grid", "0.1:1:3", "--out", out],
        "shrink": ["--input", str(means), "--chain", "20", "--out", out],
        "catalogue": ["--list"],
    }[command]
    loaded = loaded_modules("from overallprior.cli import main\n"
                            f"assert main({[command, *argv]!r}) == 0")
    others = {"hier", "refdist", "shrinkage", "catalogue"} - {module}
    assert f"overallprior.{module}" in loaded
    assert not loaded & {f"overallprior.{m}" for m in others}
    assert "csv" not in loaded  # the CLI formats its CSV files itself
    if command in ("refdist", "catalogue"):
        # Neither draws a random number; importing numpy.random would
        # add about 12 ms of CPU and 6 MB of peak memory to each run.
        assert "numpy.random" not in loaded

"""Package layout: every exported name exists, and the runtime needs
numpy and the standard library only (scipy, mpmath and hypothesis are
test-only oracles)."""

import importlib
import math
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

MODULES = ["overallprior"] + [f"overallprior.{name}" for name in (
    "catalogue", "cli", "hier", "numerics", "refdist", "shrinkage")]

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_runtime_imports_are_numpy_and_stdlib():
    code = ("import sys, overallprior, overallprior.cli; "
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    assert "overallprior.cli" in loaded
    for name in ("scipy", "mpmath", "hypothesis", "pytest"):
        assert not [m for m in loaded
                    if m == name or m.startswith(name + ".")], name
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def test_gibbs_sample_runs_without_test_only_packages():
    # A lazy import inside a sampler or a density would not show at
    # import time: run the Gibbs chain once and both prior densities at
    # small and large |mu|^2 (each branch of the closed form), then look
    # for the test-only oracles.
    code = ("import sys, numpy, overallprior.cli; "
            "from overallprior.shrinkage import (MeansData, gibbs_sample, "
            "hierarchical_prior_density as h, reference_prior_density); "
            "gibbs_sample(MeansData(numpy.arange(5.0)), 50, seed=0); "
            "[f(mu) for f in (h, reference_prior_density) for mu in "
            "([0.1, 0.0], [0.1, 0.0, 0.0], [30.0, 0.0, 0.0])]; "
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
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


def test_exact_prior_table_loads_no_numpy_polynomial():
    # numpy.polynomial costs milliseconds to import, which every command
    # would pay: the exact-prior table sums its Chebyshev series itself.
    code = ("import sys, overallprior.cli; "
            "from overallprior.hier import CountTable, sample_posterior; "
            "sample_posterior(CountTable(m=5, counts={0: 2, 1: 1}), 5, "
            "seed=0, warmup=0); "
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.split()
    assert "overallprior.hier" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]

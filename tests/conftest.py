"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]

# Every @given test draws the same examples on every run, so two runs of
# one commit check the same cases; each test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def loaded_modules():
    """A function that runs Python ``code`` in a fresh interpreter with
    the package on its path and returns the set of module names in that
    interpreter's ``sys.modules`` once the code has run."""
    def run(code):
        script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())
    return run


@pytest.fixture
def fresh_shape_caches():
    """Empty the per-(m, n) cache of ``hier`` before the test, so that
    what the test counts does not depend on which tests ran before it."""
    from overallprior import hier
    hier._shape.cache_clear()

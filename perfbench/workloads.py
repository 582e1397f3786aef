"""The four benchmark workloads: seeded input generators, the CLI
command each runs, its library calls, and its output checks.

The program sees only the files written by ``write_inputs``, in the
CLI's own formats: the sparse count format ("m n" header, then
"cell_index count" lines) for ``hier`` and whitespace-separated floats
for ``shrink``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _read_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


class Hier:
    """``overallprior hier`` on a Dirichlet-multinomial count table, plus
    the library sampler and the two mode finders."""

    def __init__(self, name, salt, m, n, dm_a, r0, prior, cli_chain, method,
                 length, warmup):
        self.name, self.salt = name, salt
        self.m, self.n, self.dm_a, self.r0 = m, n, dm_a, r0
        self.prior, self.cli_chain = prior, cli_chain
        self.method, self.length, self.warmup = method, length, warmup

    def counts(self, seed: int) -> dict:
        """Dirichlet-multinomial counts conditioned on r0 occupied cells.
        Each likelihood call costs O(r0), so fixing r0 keeps the work the
        same for every seed."""
        rng = _rng(seed, self.salt)
        for _ in range(10000):
            p = rng.dirichlet(np.full(self.m, self.dm_a))
            dense = rng.multinomial(self.n, p)
            if np.count_nonzero(dense) == self.r0:
                return {int(i): int(dense[i]) for i in np.flatnonzero(dense)}
        raise RuntimeError(f"{self.name}: no table with r0 = {self.r0}")

    def write_inputs(self, seed: int, workdir: Path) -> dict:
        counts = self.counts(seed)
        path = workdir / "counts.txt"
        lines = [f"{self.m} {self.n}"] + [f"{i} {c}" for i, c in counts.items()]
        path.write_text("\n".join(lines) + "\n")
        return {"seed": seed, "path": path, "counts": counts}

    def setup_code(self, inputs):
        return ("import pathlib, sys, overallprior; overallprior.hier."
                "CountTable.from_sparse_text(pathlib.Path(sys.argv[1])"
                ".read_text())"), [str(inputs["path"])]

    def cli_argv(self, inputs, out: Path):
        return ["hier", "--input", str(inputs["path"]), "--prior", self.prior,
                "--chain", str(self.cli_chain), "--seed", str(inputs["seed"]),
                "--out", str(out)]

    def reference(self, inputs):
        return oracles.HierReference(inputs["counts"], self.m, self.prior)

    def library(self, op, inputs):
        from overallprior import hier
        from overallprior.exceptions import PreconditionError
        table = hier.CountTable(m=self.m, counts=inputs["counts"])
        chain = op.sample(lambda: hier.sample_posterior(
            table, self.length, seed=inputs["seed"], prior=self.prior,
            method=self.method, warmup=self.warmup), self.length)

        def solve():
            mode = hier.posterior_mode_a(table, prior=self.prior)
            try:
                return mode, hier.likelihood_mode_a(table)
            except PreconditionError:
                return mode, None
        modes = op.solve(solve)
        return chain, modes

    def check_cli(self, inputs, out: Path, ref) -> list:
        summary = _read_json(out / "mode.json")
        problems = []
        if (summary["m"], summary["n"]) != (self.m, self.n) or \
                summary["r0"] != len(inputs["counts"]):
            problems.append(f"mode.json reports m, n, r0 = {summary['m']}, "
                            f"{summary['n']}, {summary['r0']}")
        _, chain_rows = _read_csv(out / "chain.csv")
        if len(chain_rows) != self.cli_chain:
            problems.append(f"chain.csv has {len(chain_rows)} draws")
        _, prior_rows = _read_csv(out / "prior_curve.csv")
        prior_rows = [(float(a), float(v)) for a, v in prior_rows[::20]
                      if float(a) <= 3.0]
        return problems + oracles.check_hier(
            ref, summary["posterior_mode_a"], summary["likelihood_mode_a"],
            [float(a) for _, a in chain_rows], prior_rows)

    def check_library(self, inputs, result, ref) -> list:
        chain, (mode, lik_mode) = result
        return oracles.check_hier(ref, mode, lik_mode, chain.a_samples)

    def chain_stats(self, chain) -> dict:
        """Sampler quality guards on log a: acceptance and ESS per draw."""
        log_a = np.log(chain.a_samples)
        return {"acceptance_rate": chain.acceptance_rate,
                "ess_per_draw": oracles.ess_geyer(log_a) / log_a.size}


class Refdist:
    """``overallprior refdist --m 100 --n 1000`` on a 60-point log grid,
    plus the library ``optimal_a``.  The problem has no data, so the seed
    does not change it.  The CLI's default grid has 200 points and makes
    one command take 4 s, too few per run for a steady median."""

    name = "refdist"
    m, n, grid_points = 100, 1000, 60

    def write_inputs(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed}

    def setup_code(self, inputs):
        return ("import sys, overallprior; overallprior.refdist.RefDistConfig("
                "m=int(sys.argv[1]), n=int(sys.argv[2]))"), [str(self.m),
                                                             str(self.n)]

    def cli_argv(self, inputs, out: Path):
        return ["refdist", "--m", str(self.m), "--n", str(self.n),
                "--grid", f"0.001:10:{self.grid_points}:log",
                "--out", str(out)]

    def reference(self, inputs):
        return None

    def library(self, op, inputs):
        from overallprior import refdist
        cfg = refdist.RefDistConfig(m=self.m, n=self.n)
        return op.solve(lambda: refdist.optimal_a(cfg))

    def check_cli(self, inputs, out: Path, ref) -> list:
        summary = _read_json(out / "summary.json")
        _, rows = _read_csv(out / "loss_curve.csv")
        problems = [] if len(rows) == self.grid_points else [
            f"loss_curve.csv has {len(rows)} rows"]
        return problems + oracles.check_refdist(
            summary["a_star"], summary["d_star"], self.m, self.n,
            [(float(a), float(d)) for a, d in rows[::12]])

    def check_library(self, inputs, result, ref) -> list:
        return oracles.check_refdist(result.argmin, result.min_value,
                                     self.m, self.n)


class Shrink:
    """``overallprior shrink`` on m = 500 observations x ~ N(mu, 1), with
    mu rescaled so that theta_T = |mu|^2 / m = 1, plus the library Gibbs
    sampler.  The 10000 x 500 ``mu_samples`` array takes 40 MB."""

    name = "shrink"
    salt, m, length, burn = 3, 500, 10000, 1000

    def data(self, seed: int) -> np.ndarray:
        rng = _rng(seed, self.salt)
        mu = rng.standard_normal(self.m)
        mu *= math.sqrt(self.m) / np.linalg.norm(mu)
        return mu + rng.standard_normal(self.m)

    def write_inputs(self, seed: int, workdir: Path) -> dict:
        x = self.data(seed)
        path = workdir / "x.txt"
        lines = (" ".join(repr(float(v)) for v in x[i:i + 10])
                 for i in range(0, x.size, 10))
        path.write_text("\n".join(lines) + "\n")
        return {"seed": seed, "path": path,
                "x": np.array(path.read_text().split(), dtype=float)}

    def setup_code(self, inputs):
        return ("import pathlib, sys, numpy, overallprior; "
                "overallprior.shrinkage.MeansData(numpy.array("
                "[float(t) for t in pathlib.Path(sys.argv[1]).read_text()"
                ".split()]))"), [str(inputs["path"])]

    def cli_argv(self, inputs, out: Path):
        return ["shrink", "--input", str(inputs["path"]),
                "--chain", str(self.length), "--seed", str(inputs["seed"]),
                "--out", str(out)]

    def reference(self, inputs):
        return None

    def library(self, op, inputs):
        from overallprior import shrinkage
        data = shrinkage.MeansData(inputs["x"])
        chain = op.sample(lambda: shrinkage.gibbs_sample(
            data, self.length, seed=inputs["seed"]), self.length)
        return chain, shrinkage.theta_posterior_samples(chain)

    def check_cli(self, inputs, out: Path, ref) -> list:
        summary = _read_json(out / "summary.json")
        _, rows = _read_csv(out / "chain.csv")
        problems = [] if len(rows) == self.length else [
            f"chain.csv has {len(rows)} draws"]
        if any(float(tau2) <= 0.0 for _, tau2, _ in rows):
            problems.append("chain.csv holds a non-positive tau2")
        return problems + oracles.check_shrink(
            inputs["x"], summary["flat_theta_mean"],
            summary["hier_theta_mean"])

    def check_library(self, inputs, result, ref) -> list:
        _, theta = result
        return oracles.check_shrink(inputs["x"], None,
                                    float(theta[self.burn:].mean()))


# Sizes keep each command to at most about 3 CPU seconds on a 2-core x86
# VM, so that a 30-second run holds five or more of each: single commands
# vary by 10-15% from one to the next on a shared host, and a median of
# two or three spread by 20-40% over ten runs.  hier-dense is m = n = 60 rather
# than 400: its exact-prior cache build (3000 reference_prior_exact calls)
# made one CLI command take 13 s at 400 and 8 s at 200.
WORKLOADS = {
    "hier-dense": Hier("hier-dense", salt=1, m=60, n=60, dm_a=0.5, r0=26,
                       prior="exact", cli_chain=500, method="mh",
                       length=500, warmup=500),
    "hier-sparse": Hier("hier-sparse", salt=2, m=1000, n=30, dm_a=0.05,
                        r0=24, prior="approx", cli_chain=2000, method="slice",
                        length=300, warmup=200),
    "refdist": Refdist(),
    "shrink": Shrink(),
}

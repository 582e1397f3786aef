"""Self-tests of the benchmark: run with

    python3 -m pytest -q perfbench/selftest.py

from the repository root.  They use small inputs and take seconds.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from overallprior import hier, numerics, refdist, shrinkage  # noqa: E402

TINY = workloads.Hier("tiny-hier", salt=9, m=40, n=30, dm_a=0.5, r0=18,
                      prior="approx", cli_chain=300, method="mh",
                      length=300, warmup=100)
TINY_EXACT = workloads.Hier("tiny-exact", salt=9, m=40, n=30, dm_a=0.5,
                            r0=18, prior="exact", cli_chain=300, method="mh",
                            length=300, warmup=100)


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


@pytest.mark.parametrize("name", ["hier-dense", "hier-sparse", "shrink"])
def test_generators_are_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    written = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        d = tmp_path / label
        d.mkdir()
        written[label] = w.write_inputs(seed, d)["path"].read_bytes()
    assert written["a"] == written["b"]
    assert written["a"] != written["c"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hier_inputs_have_the_documented_shape(seed):
    dense = workloads.WORKLOADS["hier-dense"].counts(seed)
    assert sum(dense.values()) == 60 and len(dense) == 26
    assert len(set(dense.values())) <= 15
    sparse = workloads.WORKLOADS["hier-sparse"].counts(seed)
    assert sum(sparse.values()) == 30 and len(sparse) == 24


def test_hier_oracle_agrees_with_package():
    counts = {0: 3, 1: 1, 4: 2, 7: 5}
    table = hier.CountTable(m=9, counts=counts)
    a = np.array([1e-3, 0.05, 0.7, 4.0, 60.0])
    assert np.allclose(oracles.log_likelihood_grid(counts, 9, a),
                       [hier.marginal_log_likelihood(table, v) for v in a],
                       rtol=1e-12)
    assert np.allclose(np.sqrt(oracles.fisher_sum_grid(a, 9, table.n)),
                       [hier.reference_prior_exact(v, 9, table.n) for v in a],
                       rtol=1e-8)
    for prior in ("exact", "approx"):
        ref = oracles.HierReference(counts, 9, prior)
        assert ref.mode_a == pytest.approx(
            hier.posterior_mode_a(table, prior=prior), rel=1e-6)
        assert ref.lik_mode_a == pytest.approx(
            hier.likelihood_mode_a(table), rel=1e-6)
        chain = hier.sample_posterior(table, 2000, seed=1, prior=prior)
        assert oracles.check_hier(ref, None, None, chain.a_samples) == []


def test_special_function_oracles_agree_with_package():
    x = np.array([1e-3, 0.3, 2.5, 19.0, 450.0, 1e5])
    assert np.allclose(oracles.lgamma(x), [numerics.log_gamma(v) for v in x],
                       rtol=1e-12, atol=1e-13)
    assert np.allclose(oracles.digamma(x), [numerics.digamma(v) for v in x],
                       rtol=1e-12, atol=1e-10)


def test_refdist_oracle_agrees_with_package():
    cfg = refdist.RefDistConfig(m=30, n=200)
    a = np.array([1e-3, 0.02, 0.5, 3.0])
    assert np.allclose(oracles.expected_loss(a, 30, 200),
                       [refdist.expected_loss(v, cfg) for v in a], rtol=1e-9)
    res = refdist.optimal_a(cfg)
    assert oracles.check_refdist(res.argmin, res.min_value, 30, 200) == []
    assert oracles.check_refdist(res.argmin * 1.2, res.min_value, 30, 200)


def test_shrink_oracle_agrees_with_package():
    w = workloads.WORKLOADS["shrink"]
    data = shrinkage.MeansData(w.data(0))
    chain = shrinkage.gibbs_sample(data, 2000, seed=0)
    theta = shrinkage.theta_posterior_samples(chain)[200:].mean()
    assert oracles.check_shrink(data.x, shrinkage.flat_prior_theta_mean(data),
                                theta) == []
    assert oracles.check_shrink(data.x, None,
                                shrinkage.flat_prior_theta_mean(data))


def test_ess_of_independent_and_correlated_draws():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal(4000)
    assert 3000 < oracles.ess_geyer(iid) < 5000
    ar = np.empty(4000)
    ar[0] = 0.0
    for i in range(1, ar.size):
        ar[i] = 0.9 * ar[i - 1] + rng.standard_normal()
    # AR(1) with rho = 0.9: tau = (1 + rho) / (1 - rho) = 19
    assert 4000 / 40 < oracles.ess_geyer(ar) < 4000 / 10


def test_run_passes_on_correct_reference():
    tally, metrics, _ = run.run_untraced(TINY, seed=2, seconds=0)
    assert tally.attempted >= run.SETUP_REPS + 2 and tally.failed == 0
    assert all(v > 0 for v in metrics.values())


def test_times_are_rescaled_by_the_calibrations_around_them(monkeypatch):
    # A CPU at half the reference speed: every calibration takes twice
    # CAL_REF_S, so every time is halved.
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    _, metrics, extras = run.run_untraced(TINY, seed=2, seconds=0)
    for name in ("setup_s", "cli_cpu_s", "lib_cpu_s"):
        assert metrics[name] == pytest.approx(extras[f"{name} unscaled"] / 2)


def test_wrong_reference_gives_nonzero_fail_frac(monkeypatch):
    wrong = oracles.HierReference({0: 1, 1: 1, 2: 1, 3: 27}, TINY.m, "approx")
    monkeypatch.setattr(TINY, "reference", lambda inputs: wrong)
    tally, _, _ = run.run_untraced(TINY, seed=2, seconds=0)
    # The CLI output and every library call are checked against it;
    # the setups are not.
    assert tally.failed == tally.attempted - run.SETUP_REPS > 0


def test_traced_self_times_sum_to_root_span(tmp_path):
    inputs = TINY_EXACT.write_inputs(5, tmp_path)
    t = tracer.Tracer()
    original = hier.log_gamma
    with t.installed(), t.span("bench.root"):
        assert hier.log_gamma is not original
        rc, _, _ = run.call_main(TINY_EXACT.cli_argv(inputs, tmp_path / "o"))
        with t.span("bench.lib"):
            TINY_EXACT.library(run.LibTimer(), inputs)
    assert rc == 0
    assert hier.log_gamma is original and numerics.log_gamma is original
    (root,) = [s for s in t.spans if s[0] == "bench.root"]
    assert sum(t.self_ns.values()) == root[2] - root[1]
    assert all(v >= 0 for v in t.self_ns.values())
    # Each exact-prior call makes 3 scalar log_gamma calls through hier's
    # own binding and 4 arrays of n + 1 through np.vectorize; both count.
    assert t.calls["numerics.log_gamma"] > 4 * TINY_EXACT.n * \
        t.calls["hier.reference_prior_exact"] > 0
    assert t.calls["cli.main"] == 1


def test_missing_traced_name_reports_zero(monkeypatch):
    monkeypatch.setattr(tracer, "COUNTERS",
                        tracer.COUNTERS + ("hier.no_such_function",))
    t = tracer.Tracer()
    with t.installed(), t.span("bench.root"):
        hier.marginal_log_likelihood(hier.CountTable(m=3, counts={0: 2}), 1.0)
    assert t.calls["hier.no_such_function"] == 0
    assert t.calls["hier.marginal_log_likelihood"] == 1


def test_traced_run_reports_every_per_layer_metric():
    tally, values, _ = run.run_traced(TINY_EXACT, seed=5, seconds=0)
    assert tally.failed == 0
    spec = run.json.loads(run.SPEC_PATH.read_text())
    line = run.json.loads(run.result_line(spec, tally, values, trace=1))
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert values["hier.reference_prior_exact.calls"] > 3000
    assert values["refdist.expected_loss.calls"] == 0
    assert values["shrinkage.chain_mb"] == 0
    assert values["hier.sampler.evals_per_draw"] == pytest.approx(1.0, abs=0.01)
    assert math.isfinite(values["trace.overhead_frac"])


def test_child_rss_is_its_own_not_the_benchmark_process(tmp_path):
    hog = np.ones(200 * 2 ** 17)  # 200 MB held by this process
    with run.Spawner() as spawner:
        rc, elapsed, cpu, rss_mb = spawner.run(
            [sys.executable, "-c", "import numpy"], tmp_path / "log")
    assert rc == 0 and elapsed > 0 and cpu > 0
    assert 5 < rss_mb < 100 < hog.nbytes / 2 ** 20

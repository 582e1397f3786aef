"""Command-line interface: exit codes, output files, pins, and
reproducibility."""

import csv
import json

import numpy as np
import pytest

from overallprior import hier, shrinkage
from overallprior.cli import main


def _run(*argv):
    return main(list(argv))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------- refdist


def test_refdist_outputs(tmp_path):
    out = tmp_path / "rd"
    assert _run("refdist", "--m", "10", "--n", "30",
                "--grid", "0.01:2:40:log", "--out", str(out)) == 0
    with (out / "loss_curve.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "expected_loss"]
    assert len(rows) == 41
    summary = _read_json(out / "summary.json")
    assert summary["schema"] == "v1"
    assert 0.4 <= 10 * summary["a_star"] <= 1.1
    assert summary["d_star"] > 0.0


def test_refdist_bad_grid(tmp_path):
    assert _run("refdist", "--m", "5", "--n", "10",
                "--grid", "nope", "--out", str(tmp_path / "x")) == 1
    assert _run("refdist", "--m", "5", "--n", "10",
                "--grid", "2:1:10", "--out", str(tmp_path / "x")) == 1


def test_refdist_pin_cycle(tmp_path):
    out = tmp_path / "rd"
    args = ("refdist", "--m", "4", "--n", "12", "--grid", "0.05:2:10:log",
            "--out", str(out), "--pin")
    assert _run(*args) == 0          # first run writes pins.json
    pins = _read_json(out / "pins.json")
    assert "a_star" in pins
    assert _run(*args) == 0          # second run matches
    pins["a_star"] = pins["a_star"] * 2.0
    with (out / "pins.json").open("w") as fh:
        json.dump(pins, fh)
    assert _run(*args) == 1          # drift is an error


# ------------------------------------------------------------------ hier


def _counts_file(tmp_path, text, name="counts.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_hier_outputs_and_reproducibility(tmp_path):
    inp = _counts_file(tmp_path, "50 8\n0 4\n1 2\n2 1\n3 1\n")
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    common = ("hier", "--input", inp, "--chain", "400", "--seed", "3",
              "--grid", "0.01:5:20:log")
    assert _run(*common, "--out", str(out1)) == 0
    assert _run(*common, "--out", str(out2)) == 0
    assert (out1 / "chain.csv").read_bytes() == \
        (out2 / "chain.csv").read_bytes()
    with (out1 / "chain.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    table = hier.CountTable.from_sparse_text(
        (tmp_path / "counts.txt").read_text())
    chain = hier.sample_posterior(table, 400, seed=3)
    assert [float(a) for _, a in rows] == chain.a_samples.tolist()
    mode = _read_json(out1 / "mode.json")
    assert mode["r0"] == 4 and mode["m"] == 50 and mode["n"] == 8
    assert mode["posterior_mode_a"] > 0.0
    assert mode["sqrt2_over_m"] == pytest.approx(2 ** 0.5 / 50)
    with (out1 / "prior_curve.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "prior"]
    assert len(rows) == 21
    for a, v in rows[1:]:
        assert float(v) == pytest.approx(
            hier.reference_prior_exact(float(a), 50, 8), rel=1e-12)


def test_hier_single_cell_is_precondition_failure(tmp_path):
    inp = _counts_file(tmp_path, "100 4\n0 4\n")
    assert _run("hier", "--input", inp, "--chain", "10",
                "--out", str(tmp_path / "h")) == 3


def test_hier_all_cells_occupied_reports_null_likelihood_mode(tmp_path):
    inp = _counts_file(tmp_path, "3 3\n0 1\n1 1\n2 1\n")
    out = tmp_path / "h"
    assert _run("hier", "--input", inp, "--chain", "200",
                "--out", str(out)) == 0
    assert _read_json(out / "mode.json")["likelihood_mode_a"] is None


def test_hier_missing_file(tmp_path):
    assert _run("hier", "--input", str(tmp_path / "absent.txt"),
                "--out", str(tmp_path / "h")) == 2


def test_hier_malformed_file(tmp_path):
    inp = _counts_file(tmp_path, "10 5\n0 not-a-count\n")
    assert _run("hier", "--input", inp,
                "--out", str(tmp_path / "h")) == 1


# ---------------------------------------------------------------- shrink


def test_shrink_outputs(tmp_path):
    inp = tmp_path / "x.txt"
    inp.write_text("1.0 -2.0 0.5\n3.0 0.0\n")
    out = tmp_path / "s"
    assert _run("shrink", "--input", str(inp), "--chain", "500",
                "--seed", "2", "--out", str(out)) == 0
    summary = _read_json(out / "summary.json")
    assert summary["m"] == 5
    assert summary["flat_theta_mean"] == pytest.approx(
        1.0 + (1 + 4 + 0.25 + 9 + 0) / 5)
    lo, hi = summary["hier_theta_90_interval"]
    assert lo < summary["hier_theta_mean"] < hi
    with (out / "chain.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "tau2", "theta"]
    assert len(rows) == 501


def test_shrink_outputs_reproducible_and_exact(tmp_path):
    # chain.csv holds every draw to the last bit: parsed back with float,
    # it equals the library chain for the same data and seed.
    x = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.5])
    inp = tmp_path / "x.txt"
    inp.write_text(" ".join(repr(v) for v in x.tolist()) + "\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    common = ("shrink", "--input", str(inp), "--chain", "300", "--seed", "7")
    assert _run(*common, "--out", str(out1)) == 0
    assert _run(*common, "--out", str(out2)) == 0
    assert (out1 / "chain.csv").read_bytes() == \
        (out2 / "chain.csv").read_bytes()
    with (out1 / "chain.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    chain = shrinkage.gibbs_sample(shrinkage.MeansData(x), 300, seed=7)
    assert [int(i) for i, _, _ in rows] == list(range(300))
    assert [float(t2) for _, t2, _ in rows] == chain.tau2_samples.tolist()
    assert [float(th) for _, _, th in rows] == chain.theta_samples.tolist()


def test_shrink_too_few_means(tmp_path):
    inp = tmp_path / "x.txt"
    inp.write_text("1.0 2.0\n")
    assert _run("shrink", "--input", str(inp),
                "--out", str(tmp_path / "s")) == 3


def test_shrink_non_numeric(tmp_path):
    inp = tmp_path / "x.txt"
    inp.write_text("1.0 two 3.0\n")
    assert _run("shrink", "--input", str(inp),
                "--out", str(tmp_path / "s")) == 1


# ------------------------------------------------------------- catalogue


def test_catalogue_list(capsys):
    assert _run("catalogue", "--list") == 0
    text = capsys.readouterr().out
    assert "bivariate-binomial" in text and "geometric-average" in text


def test_catalogue_evaluate(capsys):
    assert _run("catalogue", "bivariate-binomial", "0.5", "0.5") == 0
    assert "4.0" in capsys.readouterr().out


def test_catalogue_unknown_entry(capsys):
    assert _run("catalogue", "no-such-prior", "1.0") == 1
    assert "valid names" in capsys.readouterr().err


def test_catalogue_bad_point():
    assert _run("catalogue", "bivariate-binomial", "0.5") == 1
    assert _run("catalogue", "bivariate-binomial", "0.5", "x") == 1


def test_usage_errors():
    assert _run() == 1
    assert _run("refdist", "--m", "10") == 1  # missing required args

"""Command-line interface: exit codes, output files, pins, and
reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from overallprior import hier, shrinkage
from overallprior.cli import _quantiles, _write_csv, main

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("text", [
    "{not json", '{"a_star": "x", "d_star": 1.0}',
    '{"a_star": true, "d_star": 1.0}', "[1, 2]",
], ids=["not-json", "string-pin", "bool-pin", "array"])
def test_refdist_bad_pins_file_is_one_error_line(tmp_path, capsys, text):
    # A pins file that is not a JSON object of numbers is a usage error
    # naming the file, not a traceback.
    out = tmp_path / "rd"
    out.mkdir()
    (out / "pins.json").write_text(text)
    assert _run("refdist", "--m", "4", "--n", "12",
                "--grid", "0.05:2:10:log", "--out", str(out), "--pin") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(out / "pins.json") in err[0]


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


def test_hier_reports_direct_prior_evaluations(tmp_path, capsys):
    # On 1e10 cells the exact chain's MH proposals reach below the
    # prior table, whose low end is 1e-4/m; the approximate prior has
    # no table.
    inp = _counts_file(tmp_path, "10000000000 2\n0 1\n1 1\n")
    table = hier.CountTable.from_sparse_text(
        (tmp_path / "counts.txt").read_text())
    for prior in ("exact", "approx"):
        out = tmp_path / prior
        assert _run("hier", "--input", inp, "--chain", "2000", "--seed", "4",
                    "--prior", prior, "--out", str(out)) == 0
        chain = hier.sample_posterior(table, 2000, seed=4, prior=prior)
        summary = _read_json(out / "mode.json")
        reported = summary["direct_prior_evals"]
        assert reported == chain.direct_prior_evals
        # The command runs the mode search and then the chain on one
        # table; a second chain on a shared table counts only its own.
        again = hier.sample_posterior(table, 2000, seed=4, prior=prior)
        assert again.direct_prior_evals == reported
        assert (reported > 0) == (prior == "exact")
        # MH: the start, 2000 warm-up steps and 2000 draws.
        assert summary["target_evals"] == chain.target_evals == 4001
    assert "direct_prior_evals" not in capsys.readouterr().out


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


_CSV_VALUES = [0.1, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, math.inf,
               -2.5, 0.0]


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025])
def test_write_csv_matches_csv_writer(tmp_path, rows):
    # The block writer formats ints and floats as csv.writer does, on
    # each side of a 1024-row block edge, for every column type the
    # commands pass: range, tuple of floats and ndarray.
    header = ["iteration", "tau2", "theta"]
    array = np.resize(np.array(_CSV_VALUES), rows)
    values = tuple(np.resize(np.array(_CSV_VALUES[::-1]), rows).tolist())
    _write_csv(tmp_path / "new.csv", header, (range(rows), values, array))
    with (tmp_path / "old.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(range(rows), values, array.tolist()))
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 1000, 9001])
def test_quantiles_match_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    qs = (0.0, 0.05, 0.25, 0.5, 0.95, 1.0, *rng.uniform(size=20))
    for scale in (1e-300, 1.0, 1e300):
        x = scale * rng.standard_normal(n)
        assert _quantiles(x, qs) == np.quantile(x, qs).tolist()


def test_quantiles_of_a_chain_match_numpy():
    x = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.5])
    theta = shrinkage.gibbs_sample(shrinkage.MeansData(x), 10000,
                                   seed=3).theta_samples
    assert _quantiles(theta, (0.05, 0.95)) == \
        np.quantile(theta, [0.05, 0.95]).tolist()


def test_shrink_loads_no_numpy_ma(tmp_path, loaded_modules):
    # np.quantile imports numpy.ma, which took over 10 ms of every shrink
    # command: the interval comes from np.sort and numpy's linear rule.
    inp = tmp_path / "x.txt"
    inp.write_text("1.0 -2.0 0.5\n3.0 0.0\n")
    code = ("from overallprior.cli import main; "
            f"main(['shrink', '--input', {str(inp)!r}, '--chain', '300', "
            f"'--out', {str(tmp_path / 's')!r}])")
    loaded = loaded_modules(code)
    assert "overallprior.shrinkage" in loaded
    assert not [m for m in loaded if m.split(".")[:2] == ["numpy", "ma"]]


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


def test_catalogue_rejects_extra_coordinates(capsys):
    assert _run("catalogue", "bivariate-binomial", "0.5", "0.5", "0.7") == 1
    assert _run("catalogue", "geometric-average",
                "1", "2", "0.5", "9", "9") == 1
    assert "expects arguments" in capsys.readouterr().err


def test_catalogue_directional_multinomial_takes_any_length(capsys):
    assert _run("catalogue", "directional-multinomial") == 1
    assert _run("catalogue", "directional-multinomial", "0.5") == 0
    assert _run("catalogue", "directional-multinomial",
                "0.5", "0.5", "0.5") == 0
    assert "= 8.0" in capsys.readouterr().out


def test_usage_errors():
    assert _run() == 1
    assert _run("refdist", "--m", "10") == 1  # missing required args


# ------------------------------------------------------ malformed input

_COUNTS = "50 8\n0 4\n1 2\n2 1\n3 1\n"
_RD = ("refdist", "--m", "10", "--n", "30")
# m = 1e13 cells: past the exact-prior table's m <= 1e12.
_HUGE_M_COUNTS = "10000000000000 24\n0 3\n1 20\n2 1\n"

# (subcommand arguments, {input file name: text}, exit code).  Each run
# must end in one "error:" line, never a traceback or a warning.
_MALFORMED = {
    "refdist-one-cell": (("refdist", "--m", "1", "--n", "5"), {}, 1),
    "refdist-no-sample": (("refdist", "--m", "10", "--n", "0"), {}, 1),
    "refdist-m-not-int": (("refdist", "--m", "x", "--n", "5"), {}, 1),
    "refdist-grid-inf": (_RD + ("--grid", "0.001:inf:5:log"), {}, 1),
    "refdist-grid-nan": (_RD + ("--grid", "nan:1:5"), {}, 1),
    "refdist-grid-zero": (_RD + ("--grid", "0:1:5"), {}, 1),
    "refdist-grid-one-point": (_RD + ("--grid", "1:2:1"), {}, 1),
    "hier-grid-zero": (("hier", "--input", "c.txt", "--grid", "0:10:5"),
                       {"c.txt": _COUNTS}, 1),
    "hier-grid-text": (("hier", "--input", "c.txt", "--grid", "1:x:5"),
                       {"c.txt": _COUNTS}, 1),
    "hier-grid-negative-log": (
        ("hier", "--input", "c.txt", "--grid", "-1:1:5:log"),
        {"c.txt": _COUNTS}, 1),
    "hier-missing-file": (("hier", "--input", "absent.txt"), {}, 2),
    "hier-empty-file": (("hier", "--input", "c.txt"), {"c.txt": ""}, 1),
    "hier-bad-count": (("hier", "--input", "c.txt"),
                       {"c.txt": "10 5\n0 x\n"}, 1),
    "hier-header-mismatch": (("hier", "--input", "c.txt"),
                             {"c.txt": "10 5\n0 4\n"}, 1),
    "hier-cell-out-of-range": (("hier", "--input", "c.txt"),
                               {"c.txt": "10 1\n12 1\n"}, 1),
    "hier-one-cell": (("hier", "--input", "c.txt"),
                      {"c.txt": "100 4\n0 4\n"}, 3),
    "hier-zero-chain": (("hier", "--input", "c.txt", "--chain", "0"),
                        {"c.txt": _COUNTS}, 1),
    "hier-negative-seed": (("hier", "--input", "c.txt", "--seed", "-1"),
                           {"c.txt": _COUNTS}, 1),
    "hier-m-past-float-range": (("hier", "--input", "c.txt"),
                                {"c.txt": f"{10**400} 8\n0 4\n1 4\n"}, 1),
    "hier-exact-m-above-1e12": (("hier", "--input", "c.txt"),
                                {"c.txt": _HUGE_M_COUNTS}, 3),
    "shrink-missing-file": (("shrink", "--input", "absent.txt"), {}, 2),
    "shrink-empty-file": (("shrink", "--input", "x.txt"), {"x.txt": ""}, 1),
    "shrink-text": (("shrink", "--input", "x.txt"), {"x.txt": "1 two 3"}, 1),
    "shrink-nan": (("shrink", "--input", "x.txt"), {"x.txt": "nan 1 2"}, 1),
    "shrink-two-means": (("shrink", "--input", "x.txt"), {"x.txt": "1 2"}, 3),
    "shrink-zero-chain": (("shrink", "--input", "x.txt", "--chain", "0"),
                          {"x.txt": "1 2 3"}, 1),
    "shrink-negative-seed": (("shrink", "--input", "x.txt", "--seed", "-1"),
                             {"x.txt": "1 2 3"}, 1),
    "shrink-square-overflows": (("shrink", "--input", "x.txt"),
                                {"x.txt": "1e200 1e200 1e200"}, 1),
    "shrink-draws-overflow": (("shrink", "--input", "x.txt", "--chain",
                               "2000"), {"x.txt": "1.34e154 0 0"}, 3),
    "catalogue-unknown": (("catalogue", "no-such-prior", "1"), {}, 1),
    "catalogue-text": (("catalogue", "inverse-gaussian", "1", "x"), {}, 1),
    "catalogue-arity": (("catalogue", "inverse-gaussian", "1"), {}, 1),
    "catalogue-boundary": (("catalogue", "bivariate-binomial", "0", "0.5"),
                           {}, 1),
    "catalogue-beta-inf": (("catalogue", "right-haar", "inf", "1", "1", "0"),
                           {}, 1),
    "catalogue-rho-one": (("catalogue", "geometric-average", "1", "1", "1"),
                          {}, 1),
    "catalogue-scale-inf": (("catalogue", "inverse-gaussian", "inf", "1"),
                            {}, 1),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_ends_in_one_error_line(case, tmp_path, capsys,
                                                monkeypatch):
    argv, files, code = _MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = ("--out", "out") if argv[0] != "catalogue" else ()
    assert _run(*argv, *out) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(("error:", "I/O error:", "usage:", "unknown entry"))
    # The arguments are checked before any output is written.
    assert not (tmp_path / "out" / "chain.csv").exists()


@pytest.mark.parametrize("case", ["hier-zero-chain", "hier-negative-seed",
                                  "shrink-zero-chain", "shrink-negative-seed"])
def test_bad_chain_arguments_leave_no_output_directory(case, tmp_path,
                                                       monkeypatch):
    argv, files, code = _MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert _run(*argv, "--out", "out/run") == code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["hier-m-past-float-range",
                                  "hier-exact-m-above-1e12"])
def test_out_of_range_m_is_one_error_line_and_no_output(case, tmp_path,
                                                         capsys, monkeypatch):
    argv, files, code = _MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert _run(*argv, "--prior", "exact", "--out", "out") == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("m", [10**177, 10**250], ids=["1e177", "1e250"])
def test_approx_chain_past_m_1e176_is_one_error_line_and_no_output(
        m, tmp_path, capsys, monkeypatch):
    # The approximate-prior mode exists there, but the chain would miss
    # the posterior: the run stops before the output directory is made.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text(f"{m} 24\n0 3\n1 20\n2 1\n")
    assert _run("hier", "--input", "c.txt", "--prior", "approx",
                "--out", "out") == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, code", [("1e200 1e200 1e200", 1),
                                        ("1.34e154 0 0", 3)])
def test_shrink_out_of_range_data_from_the_shell(tmp_path, data, code):
    # Run as a user would: no traceback and no numpy warning on stderr.
    inp = tmp_path / "x.txt"
    inp.write_text(data)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "overallprior.cli", "shrink", "--input",
         str(inp), "--chain", "2000", "--out", str(tmp_path / "s")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

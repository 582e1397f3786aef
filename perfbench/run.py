#!/usr/bin/env python3
"""Benchmark of the overallprior CLI and library.

    python3 perfbench/run.py --workload hier-dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root; the package is imported from ``src/``.
Each workload is a closed loop with one client: a single process runs
one command after another, single-threaded (BLAS thread pools are set
to one thread).  With ``--trace 0`` it runs rounds of one set-up, one
CLI command and one library call for ``--seconds`` seconds (at least
one round) and measures

- ``setup_s``: a fresh interpreter imports overallprior, parses the
  workload's input with the package's own parser and exits (median of
  at least 9, spread over the run);
- ``cli_cpu_s`` and ``peak_rss_mb``: CPU time and peak resident memory
  of the workload's CLI command, from launch to exit (medians);
- ``lib_cpu_s``: CPU time of the workload's library calls in this warm
  interpreter (median); their parts ``draws_per_s`` and ``solve_s`` are
  printed too.

Times are CPU seconds (user + system) of the process doing the work,
rescaled to a fixed reference speed.  CPU time leaves out the time the
virtual CPU was taken by the host (steal) or by other processes.  The
rescaling takes out the CPU's own speed, which on a shared 2-core VM
jumps by up to 1.7x in streaks of seconds to minutes (a neighbour on
the host's core, or its clock): ``calibrate``, a fixed 25 ms loop of
the kinds of work the package does, runs right before every measured
operation and once after the last, all on one pinned CPU, and each
operation's CPU time is multiplied by ``CAL_REF_S`` over the mean of
the two calibrations around it.  In ten-run sets of each workload
(seeds 101-110) the spread (quartile distance over median) of the run
medians of ``cli_cpu_s`` and ``lib_cpu_s`` was 3-9%; unscaled it was
3-16% in the same sets, and 30% (hier-sparse, ten runs) and 35%
(hier-dense, five runs) in sets that fell into different speed streaks.
In a quiet set the rescaling adds noise (refdist CLI: 3% unscaled, 9%
scaled), because the calibration reacts more strongly to the CPU's
speed than the package does.  The unscaled CPU medians, the CLI's wall
time and the calibration median are printed beside the metrics.

The measured operations and calibrations, in order, go to
``perfbench/.work/<workload>/samples.json``.

With ``--trace 1`` it runs the CLI command (through ``cli.main``) and
the library calls once untraced and once with the timing wrappers of
``tracer.py``, and reports the per-layer metrics.  Every CLI output and
library result is checked against the independent references in
``oracles.py``; a failed check or a crash counts in ``failed`` and does
not stop the run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names,
units and the workloads' reasons are in ``BENCHMARK.json``.
``--workload all`` runs the four workloads in turn, prints one table
and writes ``perfbench/.work/report.json`` with the machine's details.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"

# Set-up runs: one per round and at least SETUP_REPS per run.
SETUP_REPS = 9
# Reference speed: the one at which ``calibrate`` takes this many CPU
# seconds, about its usual time on a 2-core Xeon (Sapphire Rapids) VM.
CAL_REF_S = 0.025

# Single-threaded: no BLAS worker threads, in this process or children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate() -> float:
    """CPU seconds of a fixed loop of scalar float maths, calls and dict
    stores in the interpreter, then small-array numpy calls: the kinds
    of work the package's hot paths do."""
    import numpy as np
    start = time.process_time()
    s, d = 0.0, {}
    for i in range(1, 25000):
        x = i * 0.37 + 0.5
        s += math.lgamma(x) - math.log(x)
        d[i & 511] = s
    a = np.arange(101.0)
    for _ in range(800):
        s += float(np.sum(np.exp(-a / (s % 7 + 1.0))))
    return time.process_time() - start


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU, so that
    the calibration measures the CPU the work runs on: the two virtual
    CPUs of a shared VM change speed independently."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Client of ``spawner.py``, the small process that runs every child
    of a run; see there why it is separate."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv, log_path: Path):
        """Run one child; return (exit code, wall seconds, CPU seconds,
        peak RSS in MB)."""
        request = {"argv": [str(a) for a in argv], "env": child_env(),
                   "cwd": str(ROOT), "log": str(log_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner process exited")
        rc, elapsed, cpu, rss_mb = json.loads(reply)
        return rc, elapsed, cpu, rss_mb


class Tally:
    """Operations attempted and failed; a failure is a non-zero exit,
    an uncaught exception or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, check):
        """Run ``check()`` (returning a list of problems) and count one
        operation."""
        self.attempted += 1
        try:
            problems = check()
        except Exception as exc:  # a crash in the checked output counts
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems


class LibTimer:
    """CPU time of the sampler and point-estimate parts of library calls."""

    def __init__(self):
        self.sample_s, self.draws, self.solve_s = [], [], []

    def sample(self, fn, draws: int):
        start = time.process_time()
        result = fn()
        self.sample_s.append(time.process_time() - start)
        self.draws.append(draws)
        return result

    def solve(self, fn):
        start = time.process_time()
        result = fn()
        self.solve_s.append(time.process_time() - start)
        return result

    def draws_per_s(self):
        return [d / t for d, t in zip(self.draws, self.sample_s)]


def library_round(w, inputs, ref, tally, timer):
    """One library call of the workload, checked; returns (CPU seconds,
    result or None).  Garbage from earlier calls is collected first, so
    that each call starts from the same heap."""
    gc.collect()
    start = time.process_time()
    try:
        result = w.library(timer, inputs)
    except Exception as exc:
        elapsed = time.process_time() - start
        tally.record("library", lambda: [f"{type(exc).__name__}: {exc}"])
        return elapsed, None
    elapsed = time.process_time() - start
    tally.record("library", lambda: w.check_library(inputs, result, ref))
    return elapsed, result


def prepare(w, seed: int):
    workdir = WORK / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = w.write_inputs(seed, workdir)
    return workdir, inputs, w.reference(inputs)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def run_untraced(w, seed: int, seconds: float):
    with Spawner() as spawner:
        return measure(w, seed, seconds, spawner)


def measure(w, seed: int, seconds: float, spawner: Spawner):
    start = time.perf_counter()
    workdir, inputs, ref = prepare(w, seed)
    tally, timer = Tally(), LibTimer()
    log = workdir / "child.log"
    # Measured operations in order, each between two calibrations:
    # (metric name or "calibrate", CPU seconds).
    events = []

    code, args = w.setup_code(inputs)

    def setup_round(count):
        for _ in range(count):
            events.append(("calibrate", calibrate()))
            rc, _, cpu, _ = spawner.run([sys.executable, "-c", code, *args],
                                        log)
            events.append(("setup_s", cpu))
            tally.record("setup", lambda: [] if rc == 0 else [
                f"exit code {rc}: {log.read_text()[-500:]}"])

    rss_mb, cli_wall_s = [], []
    out = workdir / "out"
    argv = [sys.executable, "-m", "overallprior.cli", *w.cli_argv(inputs, out)]
    while True:
        round_start = time.perf_counter()
        setup_round(1)
        events.append(("calibrate", calibrate()))
        rc, wall, cpu, mb = spawner.run(argv, log)
        events.append(("cli_cpu_s", cpu))
        cli_wall_s.append(wall)
        rss_mb.append(mb)
        tally.record("cli", lambda: w.check_cli(inputs, out, ref) if rc == 0
                     else [f"exit code {rc}: {log.read_text()[-500:]}"])
        events.append(("calibrate", calibrate()))
        cpu, _ = library_round(w, inputs, ref, tally, timer)
        events.append(("lib_cpu_s", cpu))
        # Stop when another round would end nearer the deadline's far side.
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= seconds:
            break
    setup_round(SETUP_REPS - sum(1 for e in events if e[0] == "setup_s"))
    events.append(("calibrate", calibrate()))

    (workdir / "samples.json").write_text(json.dumps(events) + "\n")
    raw, scaled = {}, {}
    for i, (name, cpu) in enumerate(events):
        if name != "calibrate":
            speed = CAL_REF_S * 2 / (events[i - 1][1] + events[i + 1][1])
            raw.setdefault(name, []).append(cpu)
            scaled.setdefault(name, []).append(cpu * speed)
    metrics = {name: statistics.median(v) for name, v in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(rss_mb)
    extras = {
        **{f"{name} unscaled": statistics.median(v) for name, v in raw.items()},
        "calibrate_s": statistics.median(
            cpu for name, cpu in events if name == "calibrate"),
        "draws_per_s": statistics.median(timer.draws_per_s())
        if timer.sample_s else None,
        "solve_s": statistics.median(timer.solve_s) if timer.solve_s else None,
        "cli_wall_s": statistics.median(cli_wall_s),
        "samples": {name: len(v) for name, v in raw.items()},
    }
    return tally, metrics, extras


def call_main(argv):
    """Run ``cli.main(argv)`` in this process; return (exit code,
    CPU seconds, captured output).  The attribute is read at call time so
    that a traced wrapper installed on it is used."""
    from overallprior import cli
    sink = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(list(argv))
    return rc, time.process_time() - start, sink.getvalue()


def run_traced(w, seed: int, seconds: float):
    """Traced and untraced passes over the CLI command and the library
    calls, in one process.  ``seconds`` is not used: one pass of each."""
    from tracer import Tracer

    workdir, inputs, ref = prepare(w, seed)
    tally = Tally()
    out = workdir / "out"
    argv = w.cli_argv(inputs, out)

    def cli_pass():
        try:
            rc, elapsed, text = call_main(argv)
        except Exception as exc:
            tally.record("cli", lambda: [f"{type(exc).__name__}: {exc}"])
            return 0.0
        tally.record("cli", lambda: w.check_cli(inputs, out, ref) if rc == 0
                     else [f"exit code {rc}: {text[-500:]}"])
        return elapsed

    timer = LibTimer()
    library_round(w, inputs, ref, tally, timer)

    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer.installed(), tracer.span("bench.root"):
            traced_cli_s = cli_pass()
            with tracer.span("bench.lib"):
                _, result = library_round(w, inputs, ref, tally, LibTimer())
    # After the traced pass, so that first-call costs fall on the traced
    # side and the overhead is not understated.
    untraced_cli_s = cli_pass()
    output_bytes = sum(p.stat().st_size for p in out.iterdir())
    tracer.write_spans(workdir / "spans.jsonl")

    from overallprior import hier
    hier_warnings = sum(1 for c in caught
                        if issubclass(c.category, RuntimeWarning)
                        and Path(c.filename) == Path(hier.__file__))
    root = tracer.spans[tracer.span_indices("bench.root")[0]]
    if sum(tracer.self_ns.values()) != root[2] - root[1]:
        print("warning: traced self times do not sum to the root span",
              file=sys.stderr)
    metrics = layer_metrics(w, tracer, result, timer, hier_warnings)
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_frac"] = (
        (traced_cli_s - untraced_cli_s) / untraced_cli_s
        if untraced_cli_s > 0 else 0.0)
    return tally, metrics, {}


def layer_metrics(w, tracer, lib_result, timer, hier_warnings) -> dict:
    calls, total_ns = tracer.calls, tracer.total_ns

    def per_call(name, unit_ns):
        return total_ns[name] / calls[name] / unit_ns if calls[name] else 0.0

    # Cache misses: reference_prior_exact calls inside sample_posterior
    # after its first likelihood call.
    fallbacks = 0
    for i in tracer.span_indices("hier.sample_posterior"):
        lik = tracer.descendants(i, "hier.marginal_log_likelihood")
        if lik:
            fallbacks += sum(1 for s in tracer.descendants(
                i, "hier.reference_prior_exact") if s[1] > lik[0][1])

    chain = lib_result[0] if isinstance(lib_result, tuple) else None
    lib_index = tracer.span_indices("bench.lib")[0]
    lib_samplers = tracer.span_indices("hier.sample_posterior", lib_index)
    evals_per_draw = acceptance = ess_per_draw = 0.0
    if lib_samplers and chain is not None:
        evals = len(tracer.descendants(lib_samplers[0],
                                       "hier.marginal_log_likelihood"))
        evals_per_draw = evals / (w.warmup + w.length)
        stats = w.chain_stats(chain)
        acceptance, ess_per_draw = stats["acceptance_rate"], stats["ess_per_draw"]

    gibbs_calls = calls["shrinkage.gibbs_sample"]
    rejection = getattr(chain, "rejection_rate", None)
    return {
        "numerics.log_gamma.calls": calls["numerics.log_gamma"],
        "numerics.log_gamma.us_per_call": per_call("numerics.log_gamma", 1e3),
        "numerics.digamma.calls": calls["numerics.digamma"],
        "numerics.kl_beta.self_s": tracer.self_ns["numerics.kl_beta"] / 1e9,
        "numerics.minimize_scalar.iterations":
            tracer.iterations["numerics.minimize_scalar"],
        "hier.marginal_log_likelihood.calls":
            calls["hier.marginal_log_likelihood"],
        "hier.marginal_log_likelihood.us_per_call":
            per_call("hier.marginal_log_likelihood", 1e3),
        "hier.reference_prior_exact.calls": calls["hier.reference_prior_exact"],
        "hier.reference_prior_exact.us_per_call":
            per_call("hier.reference_prior_exact", 1e3),
        "hier.exact_prior.fallback_calls": fallbacks,
        "hier.sampler.evals_per_draw": evals_per_draw,
        "hier.sample_posterior.self_s":
            tracer.self_ns["hier.sample_posterior"] / 1e9,
        "hier.sampler.acceptance_rate": acceptance,
        "hier.sampler.ess_per_draw": ess_per_draw,
        "hier.posterior_mode_a.s": total_ns["hier.posterior_mode_a"] / 1e9,
        "hier.likelihood_mode_a.s": total_ns["hier.likelihood_mode_a"] / 1e9,
        "hier.runtime_warnings": hier_warnings,
        "refdist.expected_loss.calls": calls["refdist.expected_loss"],
        "refdist.expected_loss.ms_per_call":
            per_call("refdist.expected_loss", 1e6),
        "refdist.reference_predictive.calls":
            calls["refdist.reference_predictive"],
        "refdist.loss_curve.s": total_ns["refdist.loss_curve"] / 1e9,
        "refdist.optimal_a.s": total_ns["refdist.optimal_a"] / 1e9,
        "shrinkage.gibbs_sample.us_per_draw":
            total_ns["shrinkage.gibbs_sample"] / 1e3 / (gibbs_calls * w.length)
            if gibbs_calls else 0.0,
        "shrinkage.tau2_proposals_per_draw":
            1.0 / (1.0 - rejection) if rejection is not None else 0.0,
        "shrinkage.chain_mb":
            array_megabytes(chain) if rejection is not None else 0.0,
        "cli.self_s": tracer.self_ns["cli.main"] / 1e9,
        "lib.draws_per_s": median_or_zero(timer.draws_per_s()),
        "lib.solve_s": median_or_zero(timer.solve_s),
    }


def array_megabytes(obj) -> float:
    """Computed size of the numpy arrays held by a result object."""
    import numpy as np
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray)) / 2 ** 20


def environment() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha()}


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(spec, tally, values, trace: int) -> str:
    listed = spec["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    })


def run_one(w, spec, seed, seconds, trace):
    runner = run_traced if trace else run_untraced
    tally, values, extras = runner(w, seed, seconds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {w.name}  seed={seed}  trace={trace}")
    print(f"  {'fail_frac':42s} {tally.failed / tally.attempted:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    for name, unit in (("draws_per_s", "1/s"), ("solve_s", "s"),
                       ("cli_wall_s", "s"), ("calibrate_s", "s"),
                       *((f"{m} unscaled", "s") for m in values)):
        if name in extras:
            value = "n/a" if extras[name] is None else f"{extras[name]:.6g}"
            print(f"  {name:42s} {value:>14s} {unit}")
    if "samples" in extras:
        print(f"  samples per median: {extras['samples']}")
    return tally, values, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    pin_to_one_cpu()

    if not (SRC / "overallprior" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    with SPEC_PATH.open() as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path[:0] = [str(SRC), str(HERE)]
    import overallprior  # noqa: F401  (fail here, before any measuring)
    from workloads import WORKLOADS

    if args.workload == "all":
        env = environment()
        print("# environment: " + json.dumps(env))
        report = {"environment": env, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "workloads": {}}
        for entry in spec["workloads"]:
            w = WORKLOADS[entry["name"]]
            tally, values, extras = run_one(w, spec, args.seed, args.seconds,
                                            args.trace)
            report["workloads"][w.name] = {
                "why": entry["why"], "attempted": tally.attempted,
                "failed": tally.failed, "metrics": values,
                **extras}
        WORK.mkdir(exist_ok=True)
        (WORK / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        return 0

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    tally, values, _ = run_one(WORKLOADS[args.workload], spec, args.seed,
                               args.seconds, args.trace)
    print(result_line(spec, tally, values, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

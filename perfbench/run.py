#!/usr/bin/env python3
"""Run a cyclolab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S [--trace 1]

Run it from anywhere; it benchmarks the source tree next to this
directory (`src/cyclolab`) and fails without a result when that tree is
missing.  A run is a closed loop with one client and no threads: it sets
up the seeded input files (several times, reporting the median), then
repeats the workload's CLI job list through `cyclolab.cli.main(argv)`
until `--seconds` have passed, at least once.  Every job starts from a
fresh import of the package, so it pays the lazy cache fills a CLI
invocation pays, and its exit code, output and files are checked after
its timer stops.

Job times are reported in reference units (`ref`): each job's time is
divided by the median of the timings of `reference`, a fixed
standard-library computation, taken just before and just after it.
On a shared machine neighbours' load slows everything the process runs
by 10% to 100% for seconds to minutes.  Over ten 20-second runs of the
same code on a shared 2-vCPU machine, the quartiles of the medians in
seconds lay 4% to 30% of their median apart, and those in reference
units within 4%.  The reference runs between jobs, never beside
program code, and no program change can alter it.  `wall_ref` is the median, over
the passes of a run, of a pass's job times in reference units, and
`job_p50_ref` the median, over the job list, of each job's median time
in reference units.  The medians in seconds, and of the reference
itself, are printed in the table but are not metrics.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced and traced passes alternate, and the metrics are per-layer
figures per traced pass of the job list; the spans go
to `.perfbench/trace-<workload>-s<seed>.json`.  A table of every metric
with its unit goes to stdout, and the last line is the JSON result.
`--workload all` runs each workload in its own process and prints all
the tables.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
# one reference computation takes 10 to 20 ms on a shared 2-vCPU machine
REFERENCE_TERMS = 700
REFERENCE_REPEATS = 2


class SourceMissing(RuntimeError):
    pass


def fresh_cyclolab():
    """Import cyclolab from the source tree, discarding any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "cyclolab", "__init__.py")):
        raise SourceMissing(f"no cyclolab package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "cyclolab" or n.startswith("cyclolab.")]:
        del sys.modules[name]
    lab = importlib.import_module("cyclolab")
    importlib.import_module("cyclolab.cli")
    if not os.path.abspath(lab.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"imported cyclolab from {lab.__file__}, not from {SRC}")
    return lab


def setup(workload, seed, size, work):
    """Import the package and write the seeded inputs; median time and the jobs."""
    times = []
    jobs = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        gc.collect()
        t0 = time.perf_counter()
        lab = fresh_cyclolab()
        jobs = workload.prepare(lab, seed, work, size)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), jobs


def _call(main, argv, tracer):
    """One CLI job; returns (exit code or error text, stdout, seconds)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(argv) if tracer is None else tracer.run_root(main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            rc = "raised " + traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), elapsed


def reference():
    """A fixed computation on the standard library alone: Fraction
    arithmetic, tuples and a dict, the kinds of work cyclolab's kernel
    does.  Its time is the unit of the `_ref` metrics."""
    acc = Fraction(0)
    table = {}
    for i in range(1, REFERENCE_TERMS):
        term = Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5) - Fraction(1, i)
        acc += term
        table[(i % 37, term.denominator % 11)] = (acc.numerator % 1000003, term)
    return len(table)


def time_reference():
    """REFERENCE_REPEATS timings of `reference`, in seconds."""
    gc.collect()
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return times


class Loop:
    """Timings and failures of one closed-loop run over a job list.

    Reference timings are taken in the gaps before every job and after
    the last one, so each job sample lies between two gaps.
    """

    def __init__(self, n_jobs):
        self.passes = []  # seconds per pass of the job list
        self.job_times = [[] for _ in range(n_jobs)]  # seconds per pass, per job
        self.gaps = []  # reference timings, per gap
        self.samples = []  # (pass, job index, seconds, gap before the job)
        self.attempted = 0
        self.failures = []  # problem lists of failed jobs

    def median_pass(self):
        return statistics.median(self.passes)

    def job_p50(self):
        """Median over the job list of each job's median time."""
        return statistics.median(statistics.median(times) for times in self.job_times)

    def median_reference(self):
        return statistics.median(t for gap in self.gaps for t in gap)

    def _relative(self):
        """(pass, job index, job time / median of the reference timings
        on both sides of it), per job sample."""
        return [
            (p, index, elapsed / statistics.median(self.gaps[g] + self.gaps[g + 1]))
            for p, index, elapsed, g in self.samples
        ]

    def wall_ref(self):
        """Median over passes of the pass's job times in reference units."""
        per_pass = {}
        for p, _, rel in self._relative():
            per_pass[p] = per_pass.get(p, 0.0) + rel
        return statistics.median(per_pass.values())

    def job_p50_ref(self):
        """Median over the job list of each job's median time in reference units."""
        per_job = {}
        for _, index, rel in self._relative():
            per_job.setdefault(index, []).append(rel)
        return statistics.median(statistics.median(v) for v in per_job.values())


def run_pass(jobs, loop, tracer=None):
    """Run the job list once, recording into `loop`; traced when given a tracer."""
    total = 0.0
    for index, job in enumerate(jobs):
        loop.gaps.append(time_reference())
        lab = fresh_cyclolab()
        if tracer is not None:
            tracing.install(tracer, lab)
            tracer.begin_job(len(tracer.jobs), job.name)
        gc.collect()
        rc, out, elapsed = _call(lab.cli.main, job.argv, tracer)
        if tracer is not None:
            tracing.record_cache_entries(tracer)
        loop.attempted += 1
        loop.job_times[index].append(elapsed)
        loop.samples.append((len(loop.passes), index, elapsed, len(loop.gaps) - 1))
        total += elapsed
        problems = workloads.check_job(job, rc, out)
        if problems:
            loop.failures.append(problems)
    loop.passes.append(total)


def run_loops(jobs, seconds, tracer=None):
    """Repeat the job list until `seconds` have passed, at least once.

    With a tracer, untraced and traced passes alternate, so that both see
    the same share of the machine's background load; returns one Loop per
    kind of pass.
    """
    loops = [Loop(len(jobs))] + ([Loop(len(jobs))] if tracer is not None else [])
    start = time.perf_counter()
    while True:
        run_pass(jobs, loops[0])
        if tracer is not None:
            run_pass(jobs, loops[1], tracer)
        if time.perf_counter() - start >= seconds:
            for loop in loops:
                loop.gaps.append(time_reference())
            return loops


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up and measure one workload; returns the result document."""
    workload = workloads.WORKLOADS[name]
    # fail before writing anything when the source tree is missing; this
    # first import also loads mpmath, which the timed setups then share
    fresh_cyclolab()
    work = os.path.join(WORK, f"{name}-s{seed}")
    setup_s, jobs = setup(workload, seed, size, work)
    seconds_taken = {}
    if not trace:
        loops = run_loops(jobs, seconds)
        loop = loops[0]
        metrics = {
            "wall_ref": (loop.wall_ref(), "ref"),
            "job_p50_ref": (loop.job_p50_ref(), "ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        seconds_taken = {
            "median pass": loop.median_pass(),
            "median job": loop.job_p50(),
            "median reference": loop.median_reference(),
        }
    else:
        tracer = tracing.Tracer()
        loops = plain, traced = run_loops(jobs, seconds, tracer)
        metrics = tracing.layer_metrics(
            tracer,
            len(traced.passes),
            plain.median_pass(),
            traced.median_pass(),
        )
        tracer.write(
            os.path.join(WORK, f"trace-{name}-s{seed}.json"),
            {"workload": name, "seed": seed, "size": size, "passes": len(traced.passes)},
        )
    attempted = sum(lp.attempted for lp in loops)
    failures = [p for lp in loops for p in lp.failures]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": sum(len(lp.passes) for lp in loops),
        "seconds_taken": seconds_taken,
        "problems": failures[:5],
    }


def print_table(name, result):
    print(f"workload {name}: {result['passes']} passes, {result['attempted']} jobs, "
          f"failed_share {result['failed'] / result['attempted']:.4f}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<52} {entry['value']:>16.6g} {entry['unit']}")
    if result["seconds_taken"]:
        print("  in seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in result["seconds_taken"].items()))
    for problems in result["problems"]:
        for p in problems:
            print(f"  FAILED {p}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        summary = {}
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        print(json.dumps(summary))
        return 0 if all(r and r["correct"] for r in summary.values()) else 1

    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

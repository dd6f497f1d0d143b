"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench

Smoke size means erdos_purdy(2) at conductor 12 for analyze,
erdos_purdy(3) for gen, a 3x3 grid, `mann --k 3 --modulus 12` and 3x3
lines, so the whole file runs in seconds.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracing
import workloads

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
SMOKE_SECONDS = 0.1
SEED = 7
# self times are differences of one clock's readings and telescope exactly
# to the root duration; the tolerance only absorbs rounding
SELF_TIME_TOLERANCE = 1e-3


@pytest.fixture(scope="module")
def smoke_results():
    return {
        (name, trace): run.run_workload(name, SEED, SMOKE_SECONDS, trace, size="smoke")
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(smoke_results, capsys, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for name in workloads.WORKLOADS:
        result = smoke_results[(name, trace)]
        assert result["correct"], result["problems"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared
        run.print_table(name, result)
        table = capsys.readouterr().out.splitlines()
        for metric, unit in declared.items():
            assert any(line.split()[0] == metric and line.split()[-1] == unit for line in table[1:]), metric


def test_self_times_sum_to_root_span(smoke_results):
    for name in workloads.WORKLOADS:
        with open(os.path.join(run.WORK, f"trace-{name}-s{SEED}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        roots = {s["job"]: s["end_ns"] - s["start_ns"] for s in doc["spans"] if s["name"] == "cli.main"}
        assert doc["jobs"] and set(roots) == {j["job"] for j in doc["jobs"]}
        for job in doc["jobs"]:
            total = sum(job["self_ns"].values())
            assert abs(total - roots[job["job"]]) <= SELF_TIME_TOLERANCE * roots[job["job"]], (name, job["name"])


def test_traced_analyze_calls_cross_matrix_twice(smoke_results):
    metrics = smoke_results[("analyze-ep5", 1)]["metrics"]
    assert metrics["geometry.cross_matrix.calls"]["value"] == 2
    assert metrics["trace.overhead_ratio"]["value"] > 0


def _wrong_grid_paths_line(mp):
    analyze_out, paths_out = workloads.GRID_STDOUT["smoke"]
    mp.setitem(workloads.GRID_STDOUT, "smoke", (analyze_out, paths_out[:1] + ["pair_max=7"] + paths_out[2:]))


WRONG_FIGURES = {
    "printed": ("analyze-ep5", lambda mp: mp.setattr(
        workloads, "EP_STDOUT", ["n=4 mode=unit k=2 edges=6"] + workloads.EP_STDOUT[1:])),
    "report": ("analyze-ep5", lambda mp: mp.setitem(workloads.EP_REPORT, "path_source_min", 9)),
    "file": ("gen-scatter", lambda mp: mp.setitem(workloads.EP_FILE_SHA256, 3, "0" * 64)),
    "census": ("census-grid", _wrong_grid_paths_line),
}


@pytest.mark.parametrize("case", sorted(WRONG_FIGURES))
def test_wrong_expected_figure_counts_as_failure(monkeypatch, case):
    workload, corrupt = WRONG_FIGURES[case]
    corrupt(monkeypatch)
    result = run.run_workload(workload, SEED, SMOKE_SECONDS, 0, size="smoke")
    assert result["failed"] > 0 and not result["correct"]


def test_same_seed_same_inputs(tmp_path):
    lab = run.fresh_cyclolab()
    for name, workload in workloads.WORKLOADS.items():
        docs = []
        for attempt in ("a", "b"):
            work = tmp_path / name / attempt
            work.mkdir(parents=True)
            jobs = workload.prepare(lab, SEED, str(work), "smoke")
            files = {p.name: p.read_bytes() for p in work.iterdir()}
            docs.append((files, [[a.replace(str(work), "") for a in j.argv] for j in jobs]))
        assert docs[0] == docs[1], name


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_walk_count():
    # path 0-1-2: two-step walks from 0 are 0-1-0 and 0-1-2
    assert tracing._walks(((1,), (0, 2), (1,)), 2) == [2, 2, 2]


def test_job_times_in_reference_units():
    # two passes of two jobs; every reference timing is 0.5 s except the
    # gap after the last job, so the last job's normaliser is 0.75 s
    loop = run.Loop(2)
    loop.gaps = [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [1.0, 1.0]]
    loop.samples = [(0, 0, 1.0, 0), (0, 1, 2.0, 1), (1, 0, 1.5, 2), (1, 1, 3.0, 3)]
    assert loop.wall_ref() == statistics.median([2.0 + 4.0, 3.0 + 4.0])
    assert loop.job_p50_ref() == statistics.median([2.5, 4.0])

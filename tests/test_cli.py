"""Command line behaviour plus serialization round trips."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclolab import cli, cyclotomic, distgraph, erdos_purdy, geometry, mann, pointsets, serialize
from cyclolab.cli import main
from cyclolab.errors import WorkBudgetExceeded

import oracles


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_erdos_purdy(tmp_path, capsys):
    out = tmp_path / "ep.json"
    assert run(["gen", "erdos-purdy", "--levels", 2, "--out", out]) == 0
    assert "n=4" in capsys.readouterr().out
    ps = serialize.load_pointset(out)
    assert len(ps) == 4
    assert ps.provenance["name"] == "erdos_purdy"


@pytest.mark.parametrize(
    "levels, digest",
    [
        (3, "69e1e43f01e892c01e72904bb9fef685606782a9f6aa932446f8e44259743e04"),
        (5, "818f852590c30c6089e5c636e6f07b7d25b6ddbbce4e40131a7b10d7e6262f7e"),
        (7, "6847c9bae2a6efab687d93765891cf656e7ea0966e626e61fec313061361341f"),
    ],
    ids=["L3", "L5", "L7"],
)
def test_gen_erdos_purdy_file_bytes(tmp_path, levels, digest):
    # the kernel's output bytes are pinned, not only their round trip
    out = tmp_path / "ep.json"
    assert run(["gen", "erdos-purdy", "--levels", levels, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_analyze_report_file_bytes(tmp_path):
    ep, rep, csv = tmp_path / "ep.json", tmp_path / "rep.json", tmp_path / "rep.csv"
    assert run(["gen", "erdos-purdy", "--levels", 5, "--out", ep]) == 0
    assert run(["analyze", "--in", ep, "--mode", "unit", "--k", 2, "--out", rep, "--csv", csv]) == 0
    assert _sha256(rep) == "2a3b200b58fe947160d8b7ccdf4d2775224049d935278900e1e9acd62aae184b"
    assert _sha256(csv) == "21d1642a4bf5ad7c11ddcb49e44f9f58459d33adcc9e85cd9f3429d799c489c1"


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--k", 5, "--modulus", 15], "c61b19a45f785290c13b1782f6df3e9ecde85429d5c471e1cbcb67d960d0cff3"),
        (
            ["--k", 3, "--modulus", 12, "--coeffs", "1,-1"],
            "0a99585d0eafeab65a88971ee3d2c8147865135c326d10d0a9f58e0cdb8836d4",
        ),
    ],
    ids=["k5-m15", "k3-m12-signed"],
)
def test_mann_file_bytes(tmp_path, args, digest):
    out = tmp_path / "rel.json"
    assert run(["mann", *args, "--out", out]) == 0
    assert _sha256(out) == digest


def test_fractional_grid_and_paths_file_bytes(tmp_path):
    # non-integer coordinates pin the Fraction boundary of the file formats
    grid, paths = tmp_path / "grid.json", tmp_path / "paths.json"
    assert run(["gen", "grid", "--rows", 5, "--cols", 5, "--spacing", "3/4", "--out", grid]) == 0
    assert _sha256(grid) == "961193d0f58c77a5b882f83585b5a1b987c506610fab782109916cb29a126c9e"
    assert run(["paths", "--in", grid, "--mode", "rational", "--k", 3, "--out", paths]) == 0
    assert _sha256(paths) == "e32e41efed146c60e6f446a5fefd2fbb10cef4690611e91f8ecd707fea05c47e"


@pytest.mark.parametrize(
    "args, build, message",
    [
        (
            ["grid", "--rows", 100, "--cols", 100],
            pointsets.square_grid,
            "a grid of 10000 points exceeds the 5000-point limit",
        ),
        (
            ["lines", "--lines", 100, "--per-line", 100],
            pointsets.parallel_lines,
            "10000 points on parallel lines exceed the 5000-point limit",
        ),
    ],
    ids=["grid", "lines"],
)
def test_gen_point_limit_error_gives_no_budget_advice(capsys, args, build, message):
    # gen takes no budget, so its refusal names the fixed point limit instead
    assert run(["gen", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(WorkBudgetExceeded):
        build(100, 100)


@pytest.mark.parametrize("lines, per_line", [(70, 70), (2500, 2)])
def test_gen_lines_refuses_pair_walk_over_budget(monkeypatch, capsys, lines, per_line):
    # within the point limit, but placing the lines walks over 10^8 pairs;
    # the refusal must come before any point is placed
    def no_placement():
        raise AssertionError("placement started")

    monkeypatch.setattr(pointsets, "_rational_stream", no_placement)
    with pytest.raises(WorkBudgetExceeded):
        pointsets.parallel_lines(lines, per_line)
    assert run(["gen", "lines", "--lines", lines, "--per-line", per_line]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "raise the budget" not in err


def test_gen_grid_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "grid"]) == 0
    assert (tmp_path / "grid_3x3.json").exists()


def test_gen_lines_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "lines", "--lines", 2, "--per-line", 4, "--seed", 7, "--out", a]) == 0
    assert run(["gen", "lines", "--lines", 2, "--per-line", 4, "--seed", 7, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_grid_fractional_spacing(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "grid", "--rows", 2, "--cols", 3, "--spacing", "1/2", "--out", out]) == 0
    ps = serialize.load_pointset(out)
    assert ps.provenance["params"]["spacing"] == "1/2"


# CLI rationals read like file rationals: these are refused, the error naming the form
_NOT_LOWEST_TERMS = {"abc", "1/0", "1e5000", "0.5", "1,x", "1,0.5"}


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "grid", "--spacing", "0"],
        ["gen", "grid", "--spacing", "abc"],
        ["gen", "grid", "--rows", 100, "--cols", 100],
        ["gen", "erdos-purdy", "--levels", 9],
        ["gen", "lines", "--lines", 0],
        ["gen", "grid", "--spacing", "1/0"],
        ["gen", "grid", "--spacing", "1e5000"],
        ["gen", "grid", "--spacing", "0.5"],
    ],
)
def test_gen_validation_errors(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if set(map(str, args)) & _NOT_LOWEST_TERMS:
        assert "lowest-terms form" in err


def test_bad_choice_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--in", tmp_path / "x.json", "--mode", "euclidean"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        *([cmd, "--help"] for cmd in ("gen", "analyze", "mann", "paths", "report")),
        *(["gen", name, "--help"] for name in ("erdos-purdy", "grid", "lines")),
        ["bogus"],
        ["gen", "bogus"],
        ["gen"],
        ["analyze"],
        ["mann", "--k", "2"],
        ["paths", "--k", "3"],
        ["report", "--csv", "x.csv"],
        ["analyze", "--in", "x.json", "--mode", "euclidean"],
        ["gen", "grid", "--rows", "2", "--spacing", "1/2"],
        ["gen", "lines", "--per-line", "4", "--out", "analyze"],
        ["paths", "--in", "gen", "--shortest", "--scope", "neighbors"],
        ["mann", "--k", "3", "--modulus", "6", "--coeffs=1,-1", "--target-scan"],
        ["analyze", "--in", "x.json", "--bogus"],
        ["gen", "grid", "extra"],
        ["paths", "--in", "x.json", "--", "y"],
        ["analyze", "--in", "x.json", "-h"],
    ],
)
def test_parser_for_argv_reads_it_as_the_whole_parser(argv, capsys):
    # main builds the parser of the named command only; every output,
    # exit code and parse must be the full parser's
    def parse(parse_args):
        try:
            outcome = vars(parse_args(argv))
        except SystemExit as exc:
            outcome = exc.code
        out = capsys.readouterr()
        return outcome, out.out, out.err

    assert parse(cli._parse_args) == parse(cli._build_parser().parse_args)


class _WholeParserBuilt(Exception):
    pass


def _refuse_whole_parser():
    raise _WholeParserBuilt


def test_well_formed_argv_never_builds_the_whole_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_build_parser", _refuse_whole_parser)
    grid = tmp_path / "grid.json"
    assert run(["gen", "grid", "--rows", 2, "--cols", 2, "--out", grid]) == 0
    assert run(["analyze", "--in", grid, "--k", 2]) == 0
    assert run(["paths", "--in", grid, "--k", 2, "--shortest"]) == 0
    assert run(["mann", "--k", 2, "--modulus", 6]) == 0
    for argv in (["--help"], ["bogus"], ["gen", "grid", "--out", grid, "extra"]):
        with pytest.raises(_WholeParserBuilt):
            run(argv)


# ---------------------------------------------------------------------------
# analyze and report
# ---------------------------------------------------------------------------

@pytest.fixture
def ep3(tmp_path):
    path = tmp_path / "ep3.json"
    assert run(["gen", "erdos-purdy", "--levels", 3, "--out", path]) == 0
    return path


def test_analyze_unit_graph(ep3, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    csv_path = tmp_path / "rep.csv"
    code = run(
        ["analyze", "--in", ep3, "--mode", "unit", "--k", 2,
         "--out", rep_path, "--csv", csv_path]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ceiling relation_count: holds" in out
    assert "ceiling peeling: holds" in out
    report = serialize.load_report(rep_path)
    assert report.all_ceilings_hold and report.mode == "unit"
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(serialize.REPORT_CSV_HEADER)


def test_analyze_missing_file(tmp_path, capsys):
    assert run(["analyze", "--in", tmp_path / "nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_wrong_document_kind(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    assert run(["mann", "--k", 2, "--modulus", 12, "--out", rel]) == 0
    capsys.readouterr()
    assert run(["analyze", "--in", rel]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_exit_code_on_ceiling_failure(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ps.json"
    assert run(["gen", "grid", "--rows", 2, "--cols", 2, "--out", path]) == 0
    real = distgraph.analyze

    def doctored(ps, mode, k=2):
        rep = real(ps, mode, k)
        rep.ceilings["two_path"]["holds"] = False
        return dataclasses.replace(rep, all_ceilings_hold=False)

    monkeypatch.setattr(distgraph, "analyze", doctored)
    assert run(["analyze", "--in", path]) == 1
    assert "ceiling two_path: FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("k", [0, 9])
def test_analyze_checks_path_length_on_one_point(tmp_path, capsys, k):
    one = tmp_path / "one.json"
    assert run(["gen", "grid", "--rows", 1, "--cols", 1, "--out", one]) == 0
    capsys.readouterr()
    assert run(["analyze", "--in", one, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_analyze_large_collinear_points_at_conductor_one(tmp_path, capsys):
    # near 10^9 the norm bound fails, so collinearity is confirmed by
    # pair_vec, whose conjugation at conductor 1 maps by zeta_1^0
    path = tmp_path / "line.json"
    serialize.save_json(path, {
        "format_version": serialize.FORMAT_VERSION, "kind": "pointset", "conductor": 1,
        "provenance": {"name": "line", "params": {}, "seed": 0},
        "points": [["1000000000"], ["1000000001"], ["1000000003"]],
    })
    assert run(["analyze", "--in", path, "--mode", "rational"]) == 0
    assert "max_collinear=3" in capsys.readouterr().out


def test_analyze_deterministic_bytes(ep3, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["analyze", "--in", ep3, "--mode", "unit", "--out", r1]) == 0
    assert run(["analyze", "--in", ep3, "--mode", "unit", "--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_report_roundtrip_matches_analyze_csv(ep3, tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    csv_direct = tmp_path / "direct.csv"
    assert run(
        ["analyze", "--in", ep3, "--mode", "unit", "--out", rep_path, "--csv", csv_direct]
    ) == 0
    capsys.readouterr()

    assert run(["report", "--in", rep_path]) == 0
    stdout_text = capsys.readouterr().out
    assert stdout_text == csv_direct.read_text(encoding="utf-8")

    csv_again = tmp_path / "again.csv"
    assert run(["report", "--in", rep_path, "--csv", csv_again]) == 0
    assert csv_again.read_bytes() == csv_direct.read_bytes()


# ---------------------------------------------------------------------------
# mann
# ---------------------------------------------------------------------------

def test_mann_unit_k2(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    assert run(["mann", "--k", 2, "--modulus", 12, "--coeffs", "1", "--out", rel]) == 0
    out = capsys.readouterr().out
    assert "1 minimal vanishing sums, 1 certified" in out
    relations = serialize.load_relations(rel)
    assert len(relations) == 1 and len(relations[0]) == 2


def test_mann_trivial_modulus(capsys):
    assert run(["mann", "--k", 2, "--modulus", 1]) == 0
    assert "0 minimal vanishing sums" in capsys.readouterr().out


def test_mann_target_scan(capsys):
    assert run(["mann", "--k", 2, "--modulus", 6, "--coeffs", "1", "--target-scan"]) == 0
    out = capsys.readouterr().out
    assert "target scan:" in out and "(bound 144)" in out


@pytest.mark.parametrize(
    "args",
    [
        ["mann", "--k", 2, "--modulus", 12, "--coeffs", ""],
        ["mann", "--k", 2, "--modulus", 12, "--coeffs", "1,x"],
        ["mann", "--k", 3, "--modulus", 60, "--budget", 10],
        ["mann", "--k", 0, "--modulus", 12],
        ["mann", "--k", 2, "--modulus", 3, "--coeffs", "1e5000"],
        ["mann", "--k", 2, "--modulus", 3, "--coeffs", "1,0.5"],
    ],
)
def test_mann_errors(capsys, args):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if set(map(str, args)) & _NOT_LOWEST_TERMS:
        assert "lowest-terms form" in err


def test_mann_target_scan_rejects_zero_modulus(capsys):
    assert run(["mann", "--k", 2, "--modulus", 0, "--target-scan"]) == 2
    assert capsys.readouterr().err == "error: modulus must be positive\n"


def test_mann_target_scan_budget_charged_up_front(capsys, monkeypatch):
    def no_rows(terms, m):
        raise RuntimeError(f"_power_sum at {m} reached")

    # the enumeration alone passes the budget; the whole scan does not,
    # and it is refused before the scan writes its first root row
    monkeypatch.setattr(mann, "_power_sum", no_rows)
    assert run(["mann", "--k", 2, "--modulus", 3000, "--target-scan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds budget" in err
    with pytest.raises(WorkBudgetExceeded):
        mann.two_term_target_scan(2, 3000, (1,))


@pytest.mark.parametrize("k, code", [(0, 2), (1, 2), (2, 0), (3, 0)])
def test_mann_target_scan_charges_once(capsys, monkeypatch, k, code):
    # the scan's charge of its m(m+1)/2 |cs|^2 targets comes first and is not
    # repeated when the scan runs; the enumeration charges one census, and
    # refuses k < 2 before charging
    charge = mann._charge
    calls = []
    monkeypatch.setattr(mann, "_charge", lambda *args: calls.append(args[5:]) or charge(*args))
    assert run(["mann", "--k", k, "--modulus", 6, "--coeffs=1,-1,2", "--target-scan"]) == code
    capsys.readouterr()
    assert calls == [(6 * 7 // 2 * 3**2,), ()][: 1 + (k >= 2)]


def test_mann_budget_charges_the_root_table(capsys, monkeypatch):
    def no_rows(terms, m):
        raise RuntimeError(f"_power_sum at {m} reached")

    # 10^4 squared tuples fit the default budget; the 10^4 x phi(10^4)
    # coefficients of the root rows do not, and the charge comes before
    # the first row is written
    monkeypatch.setattr(mann, "_power_sum", no_rows)
    assert run(["mann", "--k", 2, "--modulus", 10000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds budget" in err
    with pytest.raises(WorkBudgetExceeded) as exc:
        mann.enumerate_target_relations(1, 2, 10000, (1,))
    assert exc.value.estimate == 10 ** 8 + 10 ** 4 * 4000


_TABLE_RECORDER = """
import sys
from cyclolab import cli, cyclotomic, serialize
real, built = cyclotomic._power_table, set()

def recorder(m):
    built.add(m)
    return real(m)

# every module that imported the table by name reads the recorder
for module in list(sys.modules.values()):
    if getattr(module, "_power_table", None) is real:
        module._power_table = recorder
ep7, rel = sys.argv[1:]
for argv in (
    ["gen", "erdos-purdy", "--levels", "7", "--out", ep7],
    ["analyze", "--in", ep7, "--mode", "unit", "--k", "2"],
    ["paths", "--in", ep7, "--mode", "unit", "--k", "3"],
    ["mann", "--k", "3", "--modulus", "12", "--coeffs=1,-1", "--target-scan"],
    ["mann", "--k", "3", "--modulus", "60", "--out", rel],
):
    assert cli.main(argv) == 0
assert serialize.load_relations(rel)
print(*sorted(built))
"""


def test_gen_analyze_paths_build_root_tables_at_squarefree_conductors_only(tmp_path):
    # a fresh interpreter, so no root row, root or root index cached by an
    # earlier test hides a table request; ep7 has conductor 1260 = 2^2 3^2 5 7,
    # and the mann runs work at 12 = 2^2 3 and 60 = 2^2 3 5
    src = os.path.dirname(os.path.dirname(cyclotomic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _TABLE_RECORDER, str(tmp_path / "ep7.json"), str(tmp_path / "rel.json")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    built = [int(m) for m in out.splitlines()[-1].split()]
    assert serialize.load_pointset(tmp_path / "ep7.json").conductor == 1260
    assert {6, 30, 210} <= set(built)
    assert all(m % (q * q) for m in built for q in range(2, math.isqrt(m) + 1)), built


def test_no_cli_command_descends_to_the_minimal_conductor(tmp_path, monkeypatch, capsys):
    # only hashing, min_conductor and change_conductor descend, and no
    # command needs them; a cached root may hold its descent already
    def refuse(*args):
        raise AssertionError("descended to the minimal conductor")

    cyclotomic.root_of_unity.cache_clear()
    monkeypatch.setattr(cyclotomic, "_descend_to_minimal", refuse)
    ep, grid, lines = tmp_path / "ep6.json", tmp_path / "grid.json", tmp_path / "lines.json"
    rep, csv, rel = tmp_path / "rep.json", tmp_path / "rep.csv", tmp_path / "rel.json"
    assert run(["gen", "erdos-purdy", "--levels", 6, "--out", ep]) == 0
    assert run(["gen", "grid", "--rows", 3, "--cols", 3, "--out", grid]) == 0
    assert run(["gen", "lines", "--lines", 3, "--per-line", 3, "--out", lines]) == 0
    assert run(["analyze", "--in", ep, "--mode", "unit", "--k", 3, "--out", rep, "--csv", csv]) == 0
    assert run(["analyze", "--in", lines, "--mode", "rational"]) == 0
    for scope in ("all", "neighbors"):
        assert run(["paths", "--in", grid, "--k", 2, "--shortest", "--scope", scope]) == 0
    assert run(["mann", "--k", 2, "--modulus", 6, "--target-scan", "--out", rel]) == 0
    assert run(["report", "--in", rep]) == 0
    assert capsys.readouterr().err == ""


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a')
)


@given(
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner) | st.lists(st.text()) | st.dictionaries(st.text(), inner),
        max_leaves=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_canonical_json_is_sorted_indented_dumps(doc):
    assert serialize.canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@pytest.fixture
def grid33(tmp_path):
    path = tmp_path / "g33.json"
    assert run(["gen", "grid", "--rows", 3, "--cols", 3, "--out", path]) == 0
    return path


def test_paths_grid(grid33, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert run(["paths", "--in", grid33, "--k", 2, "--out", stats]) == 0
    out = capsys.readouterr().out
    assert "ceiling relation_count: not applicable" in out  # 3 collinear, rational
    assert "floor continuation: holds" in out
    doc = serialize.load_json(stats)
    assert doc["kind"] == "path_stats"
    assert doc["min_degree"] == 4 and doc["max_collinear"] == 3
    assert doc["source_totals"] == [12] * 9
    assert doc["bounds"] == {"relation_count": 144, "continuation": 12}


def test_relation_count_condition_is_shared(grid33, tmp_path, capsys, monkeypatch):
    # unit mode: the ceiling applies unless the shared condition says otherwise
    monkeypatch.setattr(distgraph, "relation_count_applies", lambda mode, max_collinear: False)
    report = tmp_path / "report.json"
    assert run(["analyze", "--in", grid33, "--mode", "unit", "--out", report]) == 0
    doc = serialize.load_json(report)
    assert doc["ceilings"]["relation_count"] == {"applicable": False, "holds": None}
    capsys.readouterr()
    assert run(["paths", "--in", grid33, "--mode", "unit", "--k", 2]) == 0
    assert "ceiling relation_count: not applicable" in capsys.readouterr().out


def test_paths_shortest_drops_floor(grid33, capsys):
    assert run(["paths", "--in", grid33, "--k", 2, "--shortest"]) == 0
    out = capsys.readouterr().out
    assert "floor continuation: not applicable (shortest-only pruning)" in out


def test_paths_unit_mode_ceiling(ep3, capsys):
    assert run(["paths", "--in", ep3, "--mode", "unit", "--k", 2]) == 0
    assert "ceiling relation_count: holds" in capsys.readouterr().out


def test_paths_k_over_cap(grid33, capsys):
    assert run(["paths", "--in", grid33, "--k", 9]) == 2
    assert "capped at 8" in capsys.readouterr().err


def test_one_collinearity_per_point_set(grid33, monkeypatch):
    ep3 = erdos_purdy(3)
    calls = []
    real = geometry.collinearity

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(geometry, "collinearity", counting)
    distgraph.analyze(ep3, "unit", 2)
    assert calls == [8]
    calls.clear()
    assert run(["paths", "--in", grid33, "--k", 2, "--shortest"]) == 0
    assert calls == [9]


def test_paths_needs_two_points(tmp_path, capsys):
    one = tmp_path / "one.json"
    assert run(["gen", "grid", "--rows", 1, "--cols", 1, "--out", one]) == 0
    capsys.readouterr()
    assert run(["paths", "--in", one]) == 2
    assert "two points" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_pointset_roundtrip_identity(tmp_path):
    from cyclolab import parallel_lines

    ps = parallel_lines(3, 4, seed=9)
    path = tmp_path / "ps.json"
    serialize.save_pointset(path, ps)
    back = serialize.load_pointset(path)
    assert back.conductor == ps.conductor
    assert back.points == ps.points
    assert back.provenance == ps.provenance
    assert back.seed == ps.seed
    # saving the loaded copy reproduces the bytes
    path2 = tmp_path / "ps2.json"
    serialize.save_pointset(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_relation_roundtrip_identity(tmp_path):
    from cyclolab import enumerate_minimal_vanishing_sums

    relations = enumerate_minimal_vanishing_sums(3, 12, (1, -1))
    path = tmp_path / "rel.json"
    serialize.save_relations(path, relations)
    back = serialize.load_relations(path)
    assert back == relations
    path2 = tmp_path / "rel2.json"
    serialize.save_relations(path2, back)
    assert path.read_bytes() == path2.read_bytes()


_HAND_RELATION = {
    "format_version": 1,
    "kind": "relation",
    "k": 3,
    "conductor": 6,
    "roots": [0, 2, 4],
    "coeffs": ["1", "1", "1"],
    "target": {"conductor": 1, "coeffs": ["0"]},
    "minimal": True,
}
_ONE_TERM = {"k": 1, "roots": [0], "coeffs": ["1"], "target": {"conductor": 1, "coeffs": ["1"]}}


@pytest.mark.parametrize(
    "change",
    [
        {"roots": [0, -4, 4]},
        {"roots": [0, 2, 10]},
        {"roots": [0, "2", 4]},
        {"roots": [0, 2.0, 4]},
        {"roots": [True, 3, 5]},
        {"roots": "024"},
        {"coeffs": "111"},
        dict(_ONE_TERM, conductor=True),
        dict(_ONE_TERM, conductor=1, k=True),
        {"k": 3.0},
        {"minimal": "no"},
        {"relations": [list(_HAND_RELATION.items())]},
        dict(_ONE_TERM, target={"conductor": 4, "coeffs": "1"}),
        dict(_ONE_TERM, target={"conductor": True, "coeffs": ["1"]}),
        dict(_ONE_TERM, target={"conductor": 4, "coeffs": ["1"]}),
        dict(_ONE_TERM, target={"conductor": 30030, "coeffs": ["1"]}),
    ],
    ids=[
        "exp-negative", "exp-large", "exp-str", "exp-float", "exp-bool", "roots-str",
        "coeffs-str", "conductor-bool", "k-bool", "k-float", "minimal-str", "entry-pairs",
        "target-coeffs-str", "target-conductor-bool", "target-row-length", "target-30030",
    ],
)
def test_malformed_relation_rejected(monkeypatch, change):
    serialize.obj_to_relation(_HAND_RELATION)
    serialize.obj_to_relation(dict(_HAND_RELATION, roots=[1, 3, 5]))
    serialize.obj_to_relation(dict(_HAND_RELATION, **_ONE_TERM, conductor=1))
    real = cyclotomic.cyclotomic_polynomial

    def small_only(n):
        # a declared conductor must be rejected before any work that grows with it
        if n > 1000:
            raise RuntimeError(f"cyclotomic_polynomial({n}) reached")
        return real(n)

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", small_only)
    if "relations" in change:
        doc = dict(change, format_version=1, kind="relation_list")
        with pytest.raises(ValueError):
            serialize.obj_to_relations(doc)
        return
    with pytest.raises(ValueError):
        serialize.obj_to_relation(dict(_HAND_RELATION, **change))


@pytest.mark.parametrize("conductor", [30030, 10 ** 30])
def test_relation_conductor_charged_before_any_root(monkeypatch, conductor):
    def refuse(n):
        raise AssertionError(f"cyclotomic_polynomial({n}) reached")

    # the root table a relation's check needs is charged before any root is built
    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", refuse)
    with pytest.raises(WorkBudgetExceeded):
        serialize.obj_to_relation(dict(_HAND_RELATION, **_ONE_TERM, conductor=conductor))


def test_relation_root_table_error_gives_no_budget_advice():
    # the loader takes no budget, so its refusal must not ask for one
    with pytest.raises(WorkBudgetExceeded) as info:
        serialize.obj_to_relation(dict(_HAND_RELATION, **_ONE_TERM, conductor=30030))
    assert str(info.value) == (
        "relation root table at conductor 30030 is too large to check "
        "(over 100000000 entries)"
    )


def test_mann_budget_error_keeps_its_advice(capsys):
    assert run(["mann", "--k", 3, "--modulus", 60, "--budget", 10]) == 2
    assert capsys.readouterr().err == (
        "error: estimated work 216960 exceeds budget 10; "
        "raise the budget explicitly to proceed\n"
    )


@pytest.mark.parametrize("extra", [[], ["--target-scan"]])
def test_mann_budget_refuses_huge_modulus_without_factoring(monkeypatch, capsys, extra):
    factors = cyclotomic._prime_factors

    def small_only(n):
        if n > 10 ** 8:
            raise AssertionError(f"factored {n}")
        return factors(n)

    monkeypatch.setattr(cyclotomic, "_prime_factors", small_only)
    assert run(["mann", "--k", 2, "--modulus", 100000000000031, *extra]) == 2
    assert "exceeds budget 100000000" in capsys.readouterr().err


def test_report_roundtrip_fields(tmp_path):
    from cyclolab import analyze, erdos_purdy

    rep = analyze(erdos_purdy(3), "unit", 2)
    path = tmp_path / "rep.json"
    serialize.save_report(path, rep)
    back = serialize.load_report(path)
    assert back == rep


def test_malformed_documents_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "kind": "pointset"}', encoding="utf-8")
    with pytest.raises(ValueError, match="missing keys"):
        serialize.load_pointset(bad)
    stale = tmp_path / "stale.json"
    stale.write_text('{"format_version": 99, "kind": "pointset"}', encoding="utf-8")
    with pytest.raises(ValueError, match="format_version"):
        serialize.load_pointset(stale)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("plain text", encoding="utf-8")
    with pytest.raises(ValueError):
        serialize.load_pointset(notjson)
    listroot = tmp_path / "list.json"
    listroot.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError, match="^document root must be an object$"):
        serialize.load_pointset(listroot)
    with pytest.raises(ValueError, match="^malformed pointset document$"):
        serialize.obj_to_pointset([])


def test_malformed_document_via_cli_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "kind": "pointset"}', encoding="utf-8")
    assert run(["analyze", "--in", bad]) == 2
    assert "missing keys" in capsys.readouterr().err


_HAND_POINTSET = {
    "format_version": 1,
    "kind": "pointset",
    "conductor": 4,
    "provenance": {"name": "hand", "params": {}, "seed": 0},
    "points": [["0", "0"], ["1", "0"], ["0", "1"]],
}


@pytest.mark.parametrize(
    "change",
    [
        {"points": 5},
        {"provenance": {"name": "hand", "params": [], "seed": 0}},
        {"provenance": 5},
        {"points": [["0", "0"], ["1", "0"], ["0", "1", "0"]]},
        {"conductor": True, "points": [["0"], ["1"]]},
        {"points": [["0", "0"], ["1.5", "0"], ["0", "1"]]},
        {"provenance": {"name": "hand", "params": {}, "seed": "x"}},
        {"provenance": {"name": 5, "params": {}, "seed": 0}},
        {"conductor": 30030, "points": [["0"]]},
        {"conductor": 10 ** 18 + 9, "points": [["0"]]},
        {"points": [["0", "0"], ["1/0", "0"], ["0", "1"]]},
        {"points": [["0", "0"], ["RAW:1e400", "0"], ["0", "1"]]},
        {"points": [["0", "0"], ["RAW:-1e400", "0"], ["0", "1"]]},
    ],
    ids=[
        "points-int", "params-list", "provenance-int", "row-length", "conductor-bool", "decimal",
        "seed-str", "name-int", "conductor-30030", "conductor-huge", "coord-div0",
        "coord-overflow", "coord-neg-overflow",
    ],
)
def test_malformed_pointset_via_cli_exits_2(tmp_path, capsys, monkeypatch, change):
    serialize.obj_to_pointset(_HAND_POINTSET)
    real = cyclotomic.cyclotomic_polynomial

    def small_only(n):
        # a declared conductor must be rejected before any work that grows with it
        if n > 1000:
            raise RuntimeError(f"cyclotomic_polynomial({n}) reached")
        return real(n)

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", small_only)
    bad = tmp_path / "bad.json"
    bad.write_text(_raw_json(dict(_HAND_POINTSET, **change)), encoding="utf-8")
    assert run(["analyze", "--in", bad, "--k", 1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


_EMPTY_ANALYZE = """\
n=0 mode=rational k=2 edges=0 max_collinear=0 excess=none
peeled: n=0 edges=0 min_degree=None threshold=0
paths k=2: pair_max=0 source_min=None two_path_noncollinear_max=0
ceiling relation_count: holds
ceiling two_path: holds
ceiling peeling: not applicable
ceiling continuation: not applicable
"""


@pytest.mark.parametrize("conductor", [1, 4, 1000003, 2**89 - 1])
def test_empty_pointset_answers_without_factoring_its_conductor(tmp_path, conductor):
    # a set with no points has no row length to bound its conductor, and
    # nothing it reaches factors the conductor: the prime 2^89 - 1 is far
    # past trial division, yet both commands answer at once
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(_HAND_POINTSET, conductor=conductor, points=[])), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cyclotomic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    analyze, paths = (
        subprocess.run(
            [sys.executable, "-m", "cyclolab.cli", command, "--in", str(path)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        for command in ("analyze", "paths")
    )
    assert (analyze.returncode, analyze.stdout, analyze.stderr) == (0, _EMPTY_ANALYZE, "")
    assert (paths.returncode, paths.stdout) == (2, "")
    assert paths.stderr == "error: need at least two points for path statistics\n"


def _raw_json(obj) -> str:
    """json.dumps(obj) with each string "RAW:text" written as the bare
    literal text, for numbers such as 1e400 that load as no finite float."""
    return re.sub(r'"RAW:([^"]*)"', r"\1", json.dumps(obj))


@pytest.mark.parametrize(
    "coord, reduced", [("2/4", "1/2"), ("-2/4", "-1/2"), ("3/1", "3"), ("0/5", "0")]
)
def test_non_lowest_terms_rational_names_its_reduced_form(tmp_path, capsys, coord, reduced):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(_HAND_POINTSET, points=[["0", "0"], [coord, "0"], ["0", "1"]])), encoding="utf-8")
    assert run(["analyze", "--in", bad]) == 2
    assert f"rational {coord!r} is not in lowest-terms form {reduced!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "points, message",
    [
        ([["1/2", "1/2"]] * 25 + [["2/4", "0"]], "rational '2/4' is not in lowest-terms form '1/2'"),
        ([["0", "0"], [1, "0"]], "expected a rational string, got 1"),
        ([["0", "0"], [["1"], "0"]], "expected a rational string, got ['1']"),
        ([["0", "0"], [{"a": 1}, "0"]], "expected a rational string, got {'a': 1}"),
        ([["0", "0"], [" 1", "0"]], "bad rational ' 1': expected lowest-terms form such as '3' or '-1/2'"),
        ([["1/2", "0"], ["2/4", ["1"]]], "rational '2/4' is not in lowest-terms form '1/2'"),
        ([["1/2", "0"], [["1"], "2/4"]], "expected a rational string, got ['1']"),
        ([["0", "0"], ["1", 1], ["2/4", "0"]], "expected a rational string, got 1"),
    ],
    ids=["unreduced-after-50", "int", "list", "object", "space", "bad-then-list", "list-then-bad", "int-then-bad"],
)
def test_loader_refuses_the_first_bad_coordinate_in_file_order(tmp_path, capsys, points, message):
    # each distinct string is parsed once a load, and a value that is no
    # string is never a key, so a list or an object gives the same line
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(_HAND_POINTSET, points=points)), encoding="utf-8")
    assert run(["analyze", "--in", bad]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "change, text",
    [
        ({"points": [["0", "0"], ["1/" + "7" * 5000, "0"], ["0", "1"]]}, None),
        ({"points": [["0", "0"], ["7" * 5000, "0"], ["0", "1"]]}, None),
        ({"conductor": "X"}, "1" * 5000),
    ],
    ids=["denominator", "numerator", "json-int"],
)
def test_digit_limit_error_gives_no_interpreter_advice(tmp_path, capsys, change, text):
    # int() refuses over 4300 digits with advice to raise the limit, which
    # the user of a file cannot take
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(_HAND_POINTSET, **change)).replace('"X"', str(text)), encoding="utf-8")
    assert run(["analyze", "--in", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "set_int_max_str_digits" not in err


@given(st.one_of(st.text(alphabet="0123456789-+/ ._e\u0661\uff12", max_size=6), st.fractions().map(str)))
@settings(max_examples=400, deadline=None)
def test_rational_strings_read_as_fraction_reads_them(s):
    expected = oracles.fraction_rational(s)
    if expected is None:
        with pytest.raises(ValueError):
            serialize.str_to_fraction(s)
    else:
        assert serialize.str_to_fraction(s) == expected


_BASE_ROWS = [["0", "0", "0", "0"], ["1", "0", "0", "0"], ["1/2", "-3", "0", "7/5"], ["-2", "1/3", "0", "1"]]

_ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_COORD_MUTATIONS = {
    "sign": lambda s: "-" + s,
    "unsign": lambda s: s.lstrip("-"),
    "zero": lambda s: "0" + s,
    "plus": lambda s: "+" + s,
    "space": lambda s: s + " ",
    "over-1": lambda s: s + "/1",
    "double": lambda s: "/".join(str(2 * int(x)) for x in (s.split("/") + ["1"])[:2]),
    "minus-zero": lambda s: "-0",
    "arabic": lambda s: s.translate(_ARABIC_INDIC_DIGITS),
    "decimal": lambda s: s + ".0",
    "underscore": lambda s: s[:1] + "_" + s[1:],
    "float": lambda s: 1.0,
    "overflow": lambda s: "RAW:1e400",
    "nested": lambda s: [s],
}
_ROW_MUTATIONS = {"append": lambda row: row + ["0"], "drop": lambda row: row[:-1]}


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.sampled_from(sorted(_COORD_MUTATIONS) + sorted(_ROW_MUTATIONS))
        ),
        max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
def test_mutated_pointset_exits_2_or_loads_as_fraction_reads_it(edits):
    rows = [list(row) for row in _BASE_ROWS]
    for r, c, name in edits:
        if name in _ROW_MUTATIONS:
            rows[r] = _ROW_MUTATIONS[name](rows[r])
        elif c < len(rows[r]) and isinstance(rows[r][c], str):
            try:
                rows[r][c] = _COORD_MUTATIONS[name](rows[r][c])
            except ValueError:  # "double" of an entry that is no longer an int string
                pass
    expected = oracles.fraction_points(12, rows)
    if expected is not None and len(set(expected)) < len(expected):
        expected = None  # repeated points are refused too
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ps.json"
        path.write_text(_raw_json(dict(_HAND_POINTSET, conductor=12, points=rows)), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(["analyze", "--in", path, "--k", 1])
        if expected is None:
            assert rc == 2 and err.getvalue().startswith("error:"), rows
        else:
            assert rc in (0, 1), rows
            got = serialize.load_pointset(path).points
            assert [(p.nums, p.den) for p in got] == [(p.nums, p.den) for p in expected]


def _document_paths(doc, path=()):
    """Every key path into a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _document_paths(value, path + (key,))


def _swap_type(v):
    return {str: 7, int: "7", bool: 1, float: "0.5", list: {}, dict: [], type(None): False}[type(v)]


def _edit_value(v):
    """Changed exponents and conductors for ints, changed rational strings for strs."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        return [_swap_type(v)]
    if isinstance(v, int):
        return [v + 1, v - 1, -v, 2 * v, 0, 10 ** 40]
    return [v + "/0", "-" + v, "2/4", "x" + v, "", "9" * 5000, v.replace("/", "/-")]


def _valid_documents():
    zeta6 = cyclotomic.root_of_unity(1, 6)
    relations = mann.enumerate_minimal_vanishing_sums(3, 6, (1, -1)) + mann.enumerate_target_relations(
        1 + zeta6, 2, 6, (1, Fraction(1, 2))
    )
    report = distgraph.analyze(erdos_purdy(3), "unit", 2)
    return {"relations": serialize.relations_to_obj(relations), "report": serialize.report_to_obj(report)}


_VALID_DOCUMENTS = _valid_documents()


@given(
    st.sampled_from(sorted(_VALID_DOCUMENTS)),
    st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(["drop", "swap", "edit"]), st.integers(0, 6)),
             min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_mutated_relation_and_report_documents_load_or_raise_value_error(kind, edits):
    doc = json.loads(json.dumps(_VALID_DOCUMENTS[kind]))
    for where, how, which in edits:
        paths = list(_document_paths(doc))
        if not paths:
            break
        *parents, key = paths[where % len(paths)]
        parent = doc
        for k in parents:
            parent = parent[k]
        if how == "drop":
            del parent[key]
        elif how == "swap":
            parent[key] = _swap_type(parent[key])
        else:
            edited = _edit_value(parent[key])
            parent[key] = edited[which % len(edited)]
    load = serialize.load_relations if kind == "relations" else serialize.load_report
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load(path)
        except ValueError:
            pass
        if kind == "report":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run(["report", "--in", path])
            if rc == 0:
                assert err.getvalue() == "", doc
            else:
                assert rc == 2 and err.getvalue().startswith("error:"), doc
                assert err.getvalue().count("\n") == 1 and out.getvalue() == "", doc


@pytest.mark.parametrize(
    "change",
    [
        {"ceilings": []},
        {"bounds": 5},
        {"ceilings": {"x": 1}},
        {"seed": "x"},
        {"mode": 7},
        {"n": True},
        {"peel_threshold": "1/0"},
    ],
    ids=[
        "ceilings-list", "bounds-int", "ceilings-unknown", "seed-str", "mode-int", "n-bool",
        "threshold-div0",
    ],
)
def test_malformed_report_via_cli_exits_2(ep3, tmp_path, capsys, change):
    rep_path = tmp_path / "rep.json"
    assert run(["analyze", "--in", ep3, "--mode", "unit", "--out", rep_path]) == 0
    doc = json.loads(rep_path.read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, **change)), encoding="utf-8")
    capsys.readouterr()
    assert run(["report", "--in", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["analyze", "paths", "report"])
@pytest.mark.parametrize(
    "constant", [None, "NaN", "Infinity", "-Infinity"], ids=["deep", "nan", "inf", "-inf"]
)
def test_hostile_json_via_cli_exits_2(ep3, tmp_path, capsys, command, constant):
    if constant is None:
        text = "[" * 100000
    else:
        # a stored report, otherwise valid, whose excess exponent is not a JSON number
        rep_path = tmp_path / "rep.json"
        assert run(["analyze", "--in", ep3, "--mode", "unit", "--out", rep_path]) == 0
        doc = json.loads(rep_path.read_text(encoding="utf-8"))
        text = json.dumps(dict(doc, excess_exponent="X")).replace('"X"', constant)
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run([command, "--in", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "field, literal", [("excess_exponent", "1e999"), ("continuation_discounted", "-1e999")]
)
def test_overflowing_json_number_is_refused(ep3, tmp_path, capsys, field, literal):
    # float() reads these literals as +-inf, which no report holds and save_report cannot write back
    rep_path = tmp_path / "rep.json"
    assert run(["analyze", "--in", ep3, "--mode", "unit", "--out", rep_path]) == 0
    doc = json.loads(rep_path.read_text(encoding="utf-8"))
    (doc if field in doc else doc["bounds"])[field] = "X"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"X"', literal), encoding="utf-8")
    with pytest.raises(ValueError, match="out of range"):
        serialize.load_report(bad)
    capsys.readouterr()
    assert run(["report", "--in", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1

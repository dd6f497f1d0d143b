"""Acceptance suite: exact ceilings, recursions, and oracle equivalences.

Each criterion is one test that prints a single PASS line with the
measured statistics; an assertion failure keeps that line from
appearing.  Wall-clock budgets are asserted where a criterion sets one.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cyclolab
from cyclolab import (
    CycNum,
    DistanceGraph,
    RationalAngleForm,
    analyze,
    build_graph,
    certify_mann,
    chebyshev_bound_range,
    enumerate_minimal_vanishing_sums,
    enumerate_target_relations,
    erdos_purdy,
    irredundant_path_census,
    make_pointset,
    mann_modulus,
    max_points_on_line,
    min_degree_subgraph,
    parallel_lines,
    paths_lower_bound,
    phi,
    noncollinear_two_path_stats,
    relation_count_bound,
    serialize,
    square_grid,
    two_term_target_scan,
    unit_roots,
)

import oracles

ONE = Fraction(1)

_EP_CACHE = {}


@pytest.fixture
def announce(request):
    """Emit the criterion's pass line on the live terminal, not captured."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(line):
        if reporter is None:
            announce(line)
        else:
            reporter.ensure_newline()
            reporter.write_line(line)

    return _announce


def _ep(level):
    """Doubling construction and its unit graph, shared across criteria."""
    if level not in _EP_CACHE:
        ps = erdos_purdy(level)
        _EP_CACHE[level] = (ps, build_graph(ps, "unit"))
    return _EP_CACHE[level]


def _exponent_table(m):
    return {r.coeffs: e for e, r in enumerate(unit_roots(m))}


def test_criterion_1_mann_certification(announce):
    started = time.perf_counter()
    expected = {2: 1, 3: 1, 4: 0, 5: 1}
    parts = []
    for k in (2, 3, 4, 5):
        m = 30 if k == 5 else 60
        relations = enumerate_minimal_vanishing_sums(k, m, (ONE,))
        for t in relations:
            cert = certify_mann(t)
            assert cert.verdict, (k, t)
            assert cert.modulus == mann_modulus(k)
        table = _exponent_table(m)
        got = {
            oracles.canonical_exponents(
                tuple(table[r.lift(m).coeffs] for r in t.roots), m
            )
            for t in relations
        }
        brute = oracles.brute_unit_vanishing_sums(k, m)
        assert len(relations) == expected[k], (k, len(relations))
        assert got == brute, k
        parts.append(f"k={k}:{len(relations)}")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(
        f"criterion 1 PASS mann certification over mu_60/mu_30: counts "
        f"{' '.join(parts)} match oracle, all certified ({elapsed:.1f}s)"
    )


def test_criterion_2_corollary_ceiling(announce):
    started = time.perf_counter()
    coeffs = (ONE, -ONE, Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
    roots = unit_roots(12)
    targets = {}
    for e1 in range(12):
        for e2 in range(12):
            for c1 in coeffs:
                for c2 in coeffs:
                    a = roots[e1] * c1 + roots[e2] * c2
                    if not a.is_zero():
                        targets.setdefault(a.coeffs, a)
    bound = relation_count_bound(2)
    assert bound == 144
    worst = 0
    for a in targets.values():
        hits = enumerate_target_relations(a, 2, 12, coeffs)
        worst = max(worst, len(hits))
        assert len(hits) <= bound, a
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert (len(targets), worst) == (540, 24)
    lib_worst, _, lib_total = two_term_target_scan(2, 12, coeffs)
    assert (lib_total, lib_worst) == (len(targets), worst)
    announce(
        f"criterion 2 PASS two-term mu_12 targets: {len(targets)} targets, "
        f"census max {worst} <= {bound} ({elapsed:.1f}s)"
    )


def test_criterion_3_erdos_purdy_recursion(announce):
    started = time.perf_counter()
    counts = {}
    for level in range(1, 6):
        ps, g = _ep(level)
        assert len(ps) == 2 ** level
        assert max_points_on_line(ps)[0] == 2, level
        counts[level] = g.edge_count
        assert counts[level] >= 2 ** (level - 1) * (level - 1), level
        if level >= 2:
            assert counts[level] >= 2 * counts[level - 1] + 2 ** (level - 1), level
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    summary = " ".join(f"{k}:{v}" for k, v in counts.items())
    announce(
        f"criterion 3 PASS doubling recursion: unit edge counts {summary}, "
        f"no 3 collinear ({elapsed:.1f}s)"
    )


def test_criterion_4_peeling_lemma(announce):
    rng = random.Random(20260816)
    row_cache = {}
    for trial in range(200):
        n = rng.randrange(2, 201)
        if n not in row_cache:
            row_cache[n] = make_pointset(
                [CycNum.from_rational(i) for i in range(n)], "row", {}
            )
        if trial % 10 == 0:
            attempts = rng.randrange(n, n * (n - 1) // 2 + 1)
        else:
            attempts = rng.randrange(1, 3 * n + 1)
        edges = {}
        for _ in range(attempts):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            i, j = min(a, b), max(a, b)
            if (i, j) in edges:
                continue
            edges[(i, j)] = RationalAngleForm(Fraction(j - i), 0, 2)
        if not edges:
            edges[(0, 1)] = RationalAngleForm(ONE, 0, 2)
        g = DistanceGraph(pointset=row_cache[n], mode="rational", edges=edges)
        e = g.edge_count
        threshold = Fraction(e, 2 * n)
        sub = min_degree_subgraph(g, threshold)
        assert sub.n > 0, trial
        assert sub.min_degree() >= threshold, trial
        assert Fraction(sub.edge_count) > Fraction(e, 2), trial
    announce(
        "criterion 4 PASS peeling lemma: 200 seeded graphs (n <= 200), "
        "min degree >= e/(2n) and > e/2 edges kept"
    )


def test_criterion_5_continuation_bound(announce):
    started = time.perf_counter()
    checked = 0
    # the sets from criterion 3 have no 3 collinear points (asserted there),
    # so their rational-mode graphs qualify alongside the unit-mode ones
    for level in range(1, 6):
        ps, unit_graph = _ep(level)
        for g in (unit_graph, build_graph(ps, "rational")):
            delta = g.min_degree()
            for k in range(1, 5):
                floor = paths_lower_bound(delta, k)
                for v in range(g.n):
                    total = sum(irredundant_path_census(g, v, k).values())
                    assert total >= floor, (level, g.mode, k, v, total, floor)
                    checked += 1
    elapsed = time.perf_counter() - started
    announce(
        f"criterion 5 PASS continuation bound: {checked} (vertex, k) censuses "
        f">= paths_lower_bound(delta, k) ({elapsed:.1f}s)"
    )


def test_criterion_6_grid_two_path_ceiling(announce):
    started = time.perf_counter()
    g = build_graph(square_grid(10, 10), "rational")
    bound = relation_count_bound(2)
    best, witness = noncollinear_two_path_stats(g)
    assert best <= bound, witness
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(
        f"criterion 6 PASS 10x10 grid: noncollinear 2-path max {best} <= {bound} "
        f"over all vertex pairs ({elapsed:.1f}s)"
    )


def test_criterion_7_chebyshev_bound(announce):
    ok, counterexample = chebyshev_bound_range(2, 10 ** 4)
    assert ok and counterexample is None
    announce(
        "criterion 7 PASS chebyshev bound: theta(x) < 4x log 2 certified "
        "for all 2 <= x <= 10000"
    )


def _random_cyc(rng, n, d):
    coeffs = []
    for _ in range(d):
        v = rng.randrange(-3, 4)
        if rng.random() < 0.1:
            coeffs.append(Fraction(v, 2))
        else:
            coeffs.append(Fraction(v))
    return CycNum(n, tuple(coeffs))


def test_criterion_8_arithmetic_oracle(announce):
    started = time.perf_counter()
    rng = random.Random(88)
    conductors = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 21, 24]
    degrees = {n: phi(n) for n in conductors}
    total = 100_000
    tally = {"add": 0, "sub": 0, "mul": 0, "neg": 0, "conj": 0, "inv": 0}
    for _ in range(total):
        n = conductors[rng.randrange(len(conductors))]
        x = _random_cyc(rng, n, degrees[n])
        lx = oracles.LongForm.from_cyc(x)
        r = rng.random()
        if r < 0.30:
            y = _random_cyc(rng, n, degrees[n])
            got, want, kind = x + y, lx.add(oracles.LongForm.from_cyc(y)), "add"
        elif r < 0.55:
            y = _random_cyc(rng, n, degrees[n])
            got, want, kind = x - y, lx.sub(oracles.LongForm.from_cyc(y)), "sub"
        elif r < 0.80:
            y = _random_cyc(rng, n, degrees[n])
            got, want, kind = x * y, lx.mul(oracles.LongForm.from_cyc(y)), "mul"
        elif r < 0.88:
            got, want, kind = -x, lx.neg(), "neg"
        elif r < 0.96:
            flipped = [lx.vec[0]] + lx.vec[1:][::-1]
            got, want, kind = x.conj(), oracles.LongForm(n, flipped), "conj"
        else:
            if x.is_zero():
                got, want, kind = -x, lx.neg(), "neg"
            else:
                product = lx.mul(oracles.LongForm.from_cyc(x.inverse()))
                got, want, kind = CycNum.one().lift(n), product, "inv"
        assert want.equals_cyc(got), (kind, n, x)
        tally[kind] += 1
    assert sum(tally.values()) == total
    elapsed = time.perf_counter() - started
    mix = " ".join(f"{k}:{v}" for k, v in sorted(tally.items()))
    announce(
        f"criterion 8 PASS arithmetic oracle: {total} ops at conductors <= 24 "
        f"match the x^N - 1 oracle ({mix}) ({elapsed:.1f}s)"
    )


def test_criterion_9_determinism_roundtrip(tmp_path, announce):
    builders = {
        "erdos_purdy": lambda: erdos_purdy(3),
        "grid": lambda: square_grid(4, 4, Fraction(1, 2)),
        "lines": lambda: parallel_lines(3, 4, seed=11),
    }
    for name, make in builders.items():
        first = tmp_path / f"{name}_1.json"
        second = tmp_path / f"{name}_2.json"
        serialize.save_pointset(first, make())
        serialize.save_pointset(second, make())
        assert first.read_bytes() == second.read_bytes(), name
        loaded = serialize.load_pointset(first)
        assert loaded.points == make().points, name
        resaved = tmp_path / f"{name}_3.json"
        serialize.save_pointset(resaved, loaded)
        assert resaved.read_bytes() == first.read_bytes(), name

    report = analyze(parallel_lines(3, 4, seed=11), "rational", 2)
    again = analyze(parallel_lines(3, 4, seed=11), "rational", 2)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    serialize.save_report(r1, report)
    serialize.save_report(r2, again)
    assert r1.read_bytes() == r2.read_bytes()
    loaded = serialize.load_report(r1)
    assert loaded == report
    r3 = tmp_path / "r3.json"
    serialize.save_report(r3, loaded)
    assert r3.read_bytes() == r1.read_bytes()
    assert serialize.report_csv_text([loaded]) == serialize.report_csv_text([report])
    announce(
        "criterion 9 PASS determinism: regeneration is byte-identical and "
        "pointset/report files round-trip losslessly (JSON and CSV)"
    )


_COLD_DESCENT = """
import time
from fractions import Fraction
from cyclolab import CycNum
started = time.perf_counter()
conductor = CycNum.from_rational(Fraction(3, 7)).lift(2310).min_conductor()
print(conductor, time.perf_counter() - started)
"""


def test_criterion_10_cold_descent(announce):
    # a fresh interpreter, so no root table or descent state is warm; the
    # timed work includes the lift to 2310 = 2*3*5*7*11
    src = os.path.dirname(os.path.dirname(cyclolab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", _COLD_DESCENT], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    conductor, elapsed = int(out[0]), float(out[1])
    assert conductor == 1
    assert elapsed < 10.0, f"cold descent from 2310 took {elapsed:.1f}s"
    announce(
        f"criterion 10 PASS cold descent: 3/7 lifted to conductor 2310 has minimal "
        f"conductor 1 in a fresh process ({elapsed:.2f}s)"
    )

"""Distance graphs: classification, peeling, lines, paths, analysis."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclolab import (
    CapExceeded,
    CycNum,
    DistanceGraph,
    PathRecord,
    RationalAngleForm,
    analyze,
    build_graph,
    classify_rational_angle,
    count_irredundant_paths,
    distgraph,
    erdos_purdy,
    geometry,
    irredundant_path_census,
    make_pointset,
    max_points_on_line,
    min_degree_subgraph,
    noncollinear_two_path_stats,
    parallel_lines,
    path_direction_tuple,
    path_stats,
    paths_lower_bound,
    peel_vertices,
    pointsets,
    root_of_unity,
    square_grid,
)

import oracles
from test_pointsets import _shifted_grid, _small_residue_field


def triangle():
    """Unit equilateral triangle {0, 1, zeta_6}."""
    return make_pointset([CycNum.zero(), CycNum.one(), root_of_unity(1, 6)], "tri", {})


def integer_row(n):
    return make_pointset([CycNum.from_rational(i) for i in range(n)], "row", {})


# ---------------------------------------------------------------------------
# classification into edges
# ---------------------------------------------------------------------------

def test_triangle_unit_graph():
    g = build_graph(triangle(), "unit")
    assert g.edge_count == 3
    assert g.min_degree() == 2
    for (i, j), form in g.edges.items():
        assert form.length == 1


def test_empty_graph_has_no_min_degree():
    g = build_graph(make_pointset([], "empty", {}), "unit")
    assert (g.n, g.edge_count, g.min_degree()) == (0, 0, None)


def test_grid_2x2_rational_graph():
    g = build_graph(square_grid(2, 2), "rational")
    assert g.edge_count == 4  # sides only; the diagonals have length sqrt 2
    assert all(form.length == 1 for form in g.edges.values())


def test_sqrt2_gives_no_edge():
    ps = make_pointset([CycNum.zero(), CycNum(4, (1, 1))], "pair", {})
    for mode in ("unit", "rational"):
        assert build_graph(ps, mode).edge_count == 0


def test_grid_3x3_rational_edges():
    g = build_graph(square_grid(3, 3), "rational")
    assert g.edge_count == 18  # 9 per axis direction


def test_unit_vs_rational_modes_differ():
    ps = integer_row(3)  # contains a distance-2 pair
    unit = build_graph(ps, "unit")
    rational = build_graph(ps, "rational")
    assert unit.edge_count == 2
    assert rational.edge_count == 3


def test_mode_validation():
    with pytest.raises(ValueError):
        build_graph(triangle(), "euclidean")


def test_edge_form_orientation():
    g = build_graph(integer_row(2), "unit")
    fwd = g.edge_form(0, 1)
    rev = g.edge_form(1, 0)
    assert fwd.length == rev.length == 1
    assert (fwd.exponent + rev.exponent) % fwd.modulus == fwd.modulus // 2
    assert rev.value() == -fwd.value()


def _random_unit_sums(seed):
    """Eight sums of up to three 12th roots of unity: many pairs differ by a root."""
    rng = random.Random(seed)
    roots = [root_of_unity(e, 12) for e in range(12)]
    pts = set()
    while len(pts) < 8:
        pts.add(sum(rng.sample(roots, rng.randint(0, 3)), CycNum.zero()))
    return make_pointset(sorted(pts, key=lambda x: x.nums), "sums", {"seed": seed})


def _counting_classify(monkeypatch):
    calls = []
    real = distgraph.classify_rational_angle
    monkeypatch.setattr(distgraph, "classify_rational_angle", lambda w: calls.append(w) or real(w))
    return calls


def _graph_forms(g):
    return {pair: form.astuple() for pair, form in g.edges.items()}


def _screened_differences(ps, mode):
    """The distinct displacements x_j - x_i of the pairs i < j that pass
    build_graph's residue screen in mode."""
    F, G, p = ps.residues
    den = ps.scaled[1]
    h = math.lcm(2, ps.conductor) // 2
    pts = ps.points
    return {
        pts[j] - pts[i]
        for i, j in itertools.combinations(range(len(ps)), 2)
        if pow(F[j] - F[i], h, p) == pow(G[j] - G[i], h, p)
        and (mode == "rational" or (F[j] - F[i]) * (G[j] - G[i]) % p == den * den % p)
    }


def _edge_differences(g):
    pts = g.pointset.points
    return {pts[j] - pts[i] for i, j in g.edges}


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_unit_sums(1),
        lambda: _random_unit_sums(2),
        lambda: _random_unit_sums(3),
        lambda: square_grid(3, 6, Fraction(1, 3)),
        lambda: erdos_purdy(4),
    ],
    ids=["sums-1", "sums-2", "sums-3", "grid-3x6-thirds", "ep4"],
)
def test_residue_screen_matches_brute_classify_over_a_tiny_prime(monkeypatch, make):
    # over the tiny prime many pairs pass the screen without being edges,
    # and each distinct displacement among them is decided once, by the
    # exact classification
    monkeypatch.setattr(geometry, "residue_field", _small_residue_field)
    calls = _counting_classify(monkeypatch)
    ps = make()
    pts = ps.points
    brute = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        form = oracles.brute_classify(pts[j] - pts[i])
        if form is not None:
            brute[(i, j)] = form
    screened = edge_differences = 0
    for mode in distgraph.MODES:
        calls.clear()
        g = build_graph(ps, mode)
        assert _graph_forms(g) == {
            pair: form for pair, form in brute.items() if mode == "rational" or form[0] == 1
        }, mode
        assert len(calls) == len(_screened_differences(ps, mode)), mode
        screened += len(calls)
        edge_differences += len(_edge_differences(g))
    assert screened > edge_differences


def test_residue_screen_matches_exact_classification_on_ep5(monkeypatch):
    # brute_classify divides by 420 roots per pair, too slow for 496 pairs at
    # conductor 420; the exact kernel, checked against it elsewhere, decides here
    monkeypatch.setattr(geometry, "residue_field", _small_residue_field)
    ps = erdos_purdy(5)
    pts = ps.points
    forms = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        form = classify_rational_angle(pts[j] - pts[i])
        if form is not None:
            forms[(i, j)] = form.astuple()
    assert _graph_forms(build_graph(ps, "rational")) == forms
    assert _graph_forms(build_graph(ps, "unit")) == {k: v for k, v in forms.items() if v[0] == 1}


def test_residue_screen_leaves_few_exact_classifications(monkeypatch):
    # 2016 pairs: the unit screen admits only the 208 edges, which have 7
    # distinct displacements, each classified once to a length-1 form
    calls = _counting_classify(monkeypatch)
    ps = erdos_purdy(6)
    g = build_graph(ps, "unit")
    assert g.edge_count == 208
    assert len(calls) == len(_edge_differences(g)) == 7
    assert all(classify_rational_angle(w).length == 1 for w in calls)
    # the rational screen admits 560 pairs with 32 distinct displacements
    calls.clear()
    build_graph(ps, "rational")
    assert len(calls) == len(_screened_differences(ps, "rational")) == 32


def _unit_shifted_grid():
    """A 4x4 grid of unit spacing moved off the lattice, so unit mode has edges."""
    shift = CycNum(4, (Fraction(1, 3), Fraction(-2, 5)))
    return make_pointset([p + shift for p in square_grid(4, 4).points], "shifted_grid", {})


@pytest.mark.parametrize(
    "make",
    [_unit_shifted_grid, lambda: erdos_purdy(4), lambda: parallel_lines(3, 4, seed=3)],
    ids=["shifted-grid-4x4", "ep4", "lines-3x4"],
)
@pytest.mark.parametrize("mode", distgraph.MODES)
def test_build_graph_classifies_each_distinct_difference_once(monkeypatch, make, mode):
    calls = _counting_classify(monkeypatch)
    ps = make()
    pts = ps.points
    brute = {}
    for i, j in itertools.combinations(range(len(pts)), 2):
        form = oracles.brute_classify(pts[j] - pts[i])
        if form is not None and (mode == "rational" or form[0] == 1):
            brute[(i, j)] = form
    assert _graph_forms(build_graph(ps, mode)) == brute
    assert len(set(calls)) == len(calls) > 0


def test_degrees_and_adjacency():
    g = build_graph(square_grid(2, 2), "rational")
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert g.adjacency[0] == (1, 2)


def test_graph_adjacency_derives_from_edges():
    built = build_graph(erdos_purdy(4), "unit")
    # edges in reverse order still give sorted, symmetric neighbour lists
    g = DistanceGraph(pointset=built.pointset, mode="unit", edges=dict(reversed(built.edges.items())))
    assert g.adjacency == built.adjacency
    assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency)
    pairs = {(v, u) for v, nbrs in enumerate(g.adjacency) for u in nbrs}
    assert pairs == set(g.edges) | {(j, i) for i, j in g.edges}
    with pytest.raises(TypeError):
        DistanceGraph(pointset=built.pointset, mode="unit", edges={}, adjacency=built.adjacency)
    for seed in range(6):
        g = synthetic_graph(seed)
        sub = min_degree_subgraph(g, Fraction(g.edge_count, 2 * g.n))
        assert sub.adjacency == DistanceGraph(pointset=sub.pointset, mode=sub.mode, edges=sub.edges).adjacency


# ---------------------------------------------------------------------------
# peeling
# ---------------------------------------------------------------------------

def star_adjacency(leaves):
    adj = [tuple(range(1, leaves + 1))] + [(0,)] * leaves
    return adj


def test_peel_star_collapses():
    assert peel_vertices(6, star_adjacency(5), 2) == []


def test_peel_cycle_stable():
    adj = [((v - 1) % 6, (v + 1) % 6) for v in range(6)]
    assert peel_vertices(6, adj, 2) == list(range(6))


def test_peel_threshold_zero_keeps_all():
    assert peel_vertices(4, star_adjacency(3), 0) == [0, 1, 2, 3]


def test_peel_fraction_threshold():
    # degree 1 < 3/2 peels the leaves, then the centre
    assert peel_vertices(4, star_adjacency(3), Fraction(3, 2)) == []


def test_peel_matches_naive_repeated_scan():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 40)
        edges = set()
        for _ in range(rng.randrange(1, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        threshold = Fraction(len(edges), 2 * n)
        got = peel_vertices(n, [tuple(s) for s in adj], threshold)
        # naive: rescan until stable
        alive = set(range(n))
        while True:
            doomed = {
                v for v in alive if sum(1 for u in adj[v] if u in alive) < threshold
            }
            if not doomed:
                break
            alive -= doomed
        assert got == sorted(alive)


def test_min_degree_subgraph_grid():
    g = build_graph(square_grid(3, 3), "rational")
    t = Fraction(g.edge_count, 2 * g.n)  # 1
    sub = min_degree_subgraph(g, t)
    assert sub.min_degree() >= t
    assert sub.edge_count > g.edge_count / 2
    assert sub.pointset.provenance["name"] == "square_grid:peeled"
    assert sub.pointset.provenance["params"]["threshold"] == "1"


def test_min_degree_subgraph_reindexes_consistently():
    g = build_graph(parallel_lines(2, 4, seed=5), "rational")
    sub = min_degree_subgraph(g, Fraction(g.edge_count, 2 * g.n))
    for (i, j), form in sub.edges.items():
        assert i < j
        d = sub.pointset.points[j] - sub.pointset.points[i]
        assert form.value() == d


# ---------------------------------------------------------------------------
# collinearity
# ---------------------------------------------------------------------------

def test_max_points_on_line_examples():
    row_plus = make_pointset(
        [CycNum.from_rational(i) for i in range(4)] + [root_of_unity(1, 4)],
        "probe",
        {},
    )
    count, members = max_points_on_line(row_plus)
    assert count == 4
    assert members == (0, 1, 2, 3)
    assert max_points_on_line(square_grid(3, 3))[0] == 3


def test_max_points_on_line_needs_two():
    with pytest.raises(ValueError):
        max_points_on_line(make_pointset([CycNum.zero()], "one", {}))


@pytest.mark.parametrize(
    "ps",
    [
        lambda: erdos_purdy(3),
        lambda: square_grid(3, 4),
        lambda: parallel_lines(3, 3, seed=11),
    ],
)
def test_max_points_on_line_matches_brute(ps):
    ps = ps()
    got_count, got_members = max_points_on_line(ps)
    brute_count, _ = oracles.brute_max_collinear(list(ps.points))
    assert got_count == brute_count
    # the witness really is collinear
    pts = ps.points
    for a in range(2, len(got_members)):
        assert oracles.is_collinear(
            pts[got_members[0]], pts[got_members[1]], pts[got_members[a]]
        )


def test_line_scan_confirms_only_residue_collisions(monkeypatch):
    # one residue key per later point from each anchor, not a triple test
    # per pair of later points: C(64, 3) = 41664 tests would be cubic
    calls = []
    real = geometry.collinearity

    def counting(*args):
        test = real(*args)

        @functools.wraps(test)
        def collinear(*triple):
            calls.append(triple)
            return test(*triple)

        return collinear

    monkeypatch.setattr(geometry, "collinearity", counting)
    ps = erdos_purdy(6)
    assert max_points_on_line(ps) == (2, (0, 1))
    assert len(calls) < 64 ** 2


def test_pointset_collinear_against_oracle():
    ps = parallel_lines(3, 3, seed=2)
    pts = ps.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                assert ps.collinear(i, j, k) == oracles.is_collinear(
                    pts[i], pts[j], pts[k]
                )


# ---------------------------------------------------------------------------
# irredundant paths
# ---------------------------------------------------------------------------

def test_paths_lower_bound_values():
    assert paths_lower_bound(4, 2) == 12
    assert paths_lower_bound(3, 2) == 6
    assert paths_lower_bound(5, 4) == 0
    assert paths_lower_bound(0, 3) == 0
    assert paths_lower_bound(7, 1) == 7
    assert paths_lower_bound(9, 0) == 1
    with pytest.raises(ValueError):
        paths_lower_bound(-1, 2)


def test_triangle_paths():
    g = build_graph(triangle(), "unit")
    assert count_irredundant_paths(g, 0, 1, 1) == 1
    assert count_irredundant_paths(g, 0, 1, 2) == 1  # via zeta_6 only
    census = irredundant_path_census(g, 0, 2)
    assert census == {1: 1, 2: 1}


def test_collinear_row_paths():
    g = build_graph(integer_row(4), "rational")
    # 0 -> x -> 1 for x in {2, 3}: edge vectors never cancel
    assert count_irredundant_paths(g, 0, 1, 2) == 2
    # 0 -> 1 -> 2 and 0 -> 3 -> 2; backtracking walks are pruned
    assert count_irredundant_paths(g, 0, 2, 2) == 2


def test_path_validation():
    g = build_graph(triangle(), "unit")
    with pytest.raises(ValueError):
        count_irredundant_paths(g, 0, 0, 2)
    with pytest.raises(ValueError):
        count_irredundant_paths(g, 0, 9, 2)
    with pytest.raises(ValueError):
        count_irredundant_paths(g, 0, 1, 0)
    with pytest.raises(CapExceeded):
        count_irredundant_paths(g, 0, 1, 9)
    with pytest.raises(ValueError):
        count_irredundant_paths(g, 0, 1, 2, vertex_scope="nearby")
    with pytest.raises(ValueError):
        irredundant_path_census(
            build_graph(square_grid(3, 3), "rational"),
            0,
            2,
            shortest_only=True,
            vertex_scope="nearby",
        )
    with pytest.raises(ValueError):
        irredundant_path_census(g, 5, 2)


def far_grid():
    """3x3 grid of spacing 1/2 shifted to 1000/7 + (999/11)i: the point
    coordinates dwarf the edge coordinates."""
    shift = Fraction(1000, 7) + Fraction(999, 11) * root_of_unity(1, 4)
    return make_pointset([p + shift for p in square_grid(3, 3, Fraction(1, 2)).points], "far_grid", {})


@pytest.mark.parametrize(
    "make,mode",
    [
        (lambda: erdos_purdy(2), "unit"),
        (lambda: erdos_purdy(3), "unit"),
        (lambda: erdos_purdy(3), "rational"),
        (lambda: square_grid(3, 3), "rational"),
        (far_grid, "rational"),
        (lambda: parallel_lines(3, 3, seed=5), "rational"),
    ],
)
def test_census_matches_brute_walks(make, mode):
    g = build_graph(make(), mode)
    for k in (1, 2, 3):
        pairs, totals = [], []
        for v in range(g.n):
            brute = oracles.brute_path_census(g, v, k)
            assert irredundant_path_census(g, v, k) == brute, (mode, k, v)
            row = [brute.get(w, 0) for w in range(g.n) if w != v]
            pairs += row
            totals.append(sum(row))
        assert path_stats(g, k) == (max(pairs), min(pairs), totals), (mode, k)


@pytest.mark.parametrize(
    "make,mode", [(lambda: square_grid(4, 4), "rational"), (lambda: erdos_purdy(4), "unit")]
)
def test_census_at_depth_four_matches_brute_census(make, mode):
    # at k = 4 the bulk last step meets positions in both pos and pos + d,
    # and with collect the last step is taken one step at a time at depth 3
    g = build_graph(make(), mode)
    k = 4
    pairs, totals = [], []
    for v in range(g.n):
        brute = oracles.brute_path_census(g, v, k)
        census = irredundant_path_census(g, v, k)
        assert census == brute, (mode, v)
        row = [brute.get(w, 0) for w in range(g.n) if w != v]
        pairs += row
        totals.append(sum(row))
        for w in range(g.n):
            if w != v:
                count, records = count_irredundant_paths(g, v, w, k, collect=True)
                assert count == len(records) == census.get(w, 0), (mode, v, w)
    assert path_stats(g, k) == (max(pairs), min(pairs), totals), mode


@given(
    # a dense cut of a 4x3 grid, so that paths close rectangles and double back
    st.sets(st.sampled_from([(x, y) for x in range(4) for y in (-1, 0, 1)]), min_size=3, max_size=9),
    st.sampled_from(distgraph.MODES),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_census_matches_brute_census_on_gaussian_points(coords, mode, k):
    g = build_graph(make_pointset([CycNum(4, xy) for xy in sorted(coords)], "gauss", {}), mode)
    for v in range(g.n):
        census = irredundant_path_census(g, v, k)
        assert census == oracles.brute_path_census(g, v, k), (mode, k, v)
        # the bulk last step drops the endpoints it counts down to zero
        assert 0 not in census.values()
        for w in range(g.n):
            if w != v:
                count, records = count_irredundant_paths(g, v, w, k, collect=True)
                assert count == len(records) == census.get(w, 0)


def test_census_packs_deep_enough_for_three_edge_sums():
    # at k = 5 the census tests the edge sum 4 - i + 1 = 5 - i of the path
    # -2+2i, 2+2i, 2i, i, 0, 1.  It is a sum of six point terms, each
    # coordinate at most M = 2, so packing with depth 1 (base 2M + 1 = 5)
    # would read it as 5 - 5 = 0 and drop the path.
    pts = [CycNum(4, xy) for xy in ((-2, 2), (2, 2), (0, 2), (0, 1), (0, 0), (1, 0))]
    g = build_graph(make_pointset(pts, "five_minus_i", {}), "rational")
    census = irredundant_path_census(g, 0, 5)
    assert census == oracles.brute_path_census(g, 0, 5)
    assert census[5] == 1


def _counting_packs(monkeypatch):
    pack = pointsets.pack_vectors
    calls = []

    def counting(vectors, depth):
        vectors = list(vectors)
        calls.append(len(vectors))
        return pack(vectors, depth)

    monkeypatch.setattr(pointsets, "pack_vectors", counting)
    return calls


def test_path_stats_packs_once_per_graph(monkeypatch):
    calls = _counting_packs(monkeypatch)
    g = build_graph(erdos_purdy(3), "unit")
    path_stats(g, 3)
    assert calls == [g.n]


@pytest.mark.parametrize(
    "make, peeled_n",
    [(lambda: erdos_purdy(5), 32), (lambda: _random_unit_sums(1), 5)],
    ids=["ep5", "sums-1"],
)
def test_analyze_packs_each_point_set_once(monkeypatch, make, peeled_n):
    # the graph and the census of the input set read one pack of its
    # points, and the peeled set is handed its survivors' packs
    calls = _counting_packs(monkeypatch)
    ps = make()
    report = analyze(ps, "unit", 3)
    assert report.peeled_n == peeled_n
    assert calls == [len(ps)]


def test_handed_packs_serve_the_peeled_census():
    g = build_graph(_random_unit_sums(1), "unit")
    sub = min_degree_subgraph(g, Fraction(g.edge_count, 2 * g.n))
    assert 2 <= sub.n < g.n
    # the same points, packed on their own at their own depth
    ps = sub.pointset
    fresh = DistanceGraph(pointset=make_pointset(ps.points, "fresh", {}), mode="unit", edges=sub.edges)
    for k in (1, 2, 3):
        assert path_stats(sub, k) == path_stats(fresh, k)


def test_census_count_consistency():
    g = build_graph(erdos_purdy(3), "unit")
    census = irredundant_path_census(g, 0, 3)
    for w in range(1, g.n):
        assert census.get(w, 0) == count_irredundant_paths(g, 0, w, 3)


def test_collected_records_are_irredundant_paths():
    g = build_graph(erdos_purdy(3), "unit")
    count, records = count_irredundant_paths(g, 0, 1, 3, collect=True)
    assert count == len(records)
    for rec in records:
        assert isinstance(rec, PathRecord)
        assert rec.irredundant and not rec.shortest
        assert len(set(rec.vertices)) == len(rec.vertices)  # no revisits
        assert rec.vertices[0] == 0 and rec.vertices[-1] == 1
        total = CycNum.zero()
        for vec in rec.edge_vectors:
            total = total + vec
        assert total == g.pointset.points[1] - g.pointset.points[0]


def test_direction_tuple_triangle():
    g = build_graph(triangle(), "unit")
    _, records = count_irredundant_paths(g, 0, 1, 2, collect=True)
    (rec,) = records
    assert rec.vertices == (0, 2, 1)
    # conductor 6, so the modulus is 6: zeta_6 up, then its inverse back down
    assert path_direction_tuple(rec) == (1, 5)


def test_direction_tuple_injective_without_collinear_triples():
    g = build_graph(erdos_purdy(3), "unit")
    for v in range(g.n):
        for w in range(g.n):
            if v == w:
                continue
            count, records = count_irredundant_paths(g, v, w, 2, collect=True)
            tuples = [path_direction_tuple(r) for r in records]
            assert len(set(tuples)) == len(tuples) == count


def test_direction_tuple_collides_on_collinear_sets():
    g = build_graph(integer_row(4), "rational")
    _, records = count_irredundant_paths(g, 0, 3, 2, collect=True)
    tuples = [path_direction_tuple(r) for r in records]
    assert len(records) == 2 and len(set(tuples)) == 1  # (0, 0) twice


def test_direction_tuple_rejects_irrational_angles():
    rec = PathRecord(
        vertices=(0, 1),
        edge_vectors=(CycNum(4, (1, 1)),),
        irredundant=True,
        shortest=False,
    )
    with pytest.raises(ValueError):
        path_direction_tuple(rec)


def test_two_path_stats_triangle():
    g = build_graph(triangle(), "unit")
    best, witness = noncollinear_two_path_stats(g)
    assert best == 1
    assert witness is not None


def test_two_path_stats_ignores_collinear_middles():
    g = build_graph(integer_row(3), "rational")
    best, _ = noncollinear_two_path_stats(g)
    assert best == 0  # every 2-path in a row is collinear


# ---------------------------------------------------------------------------
# shortest mode
# ---------------------------------------------------------------------------

def test_shortest_scope_distinguishes():
    ps = make_pointset(
        [CycNum.zero(), CycNum.one(), CycNum.from_rational(Fraction(1, 2))],
        "probe",
        {},
    )
    g = build_graph(ps, "unit")
    assert g.edge_count == 1  # only 0 - 1
    assert count_irredundant_paths(g, 0, 1, 1, shortest_only=True) == 0
    assert (
        count_irredundant_paths(
            g, 0, 1, 1, shortest_only=True, vertex_scope="neighbors"
        )
        == 1
    )


def test_shortest_equals_plain_without_collinearity():
    g = build_graph(triangle(), "unit")
    for v in range(3):
        for w in range(3):
            if v == w:
                continue
            for k in (1, 2):
                assert count_irredundant_paths(
                    g, v, w, k, shortest_only=True
                ) == count_irredundant_paths(g, v, w, k)


def test_shortest_blocks_longer_collinear_step():
    g = build_graph(integer_row(3), "rational")
    # step 0 -> 2 is blocked by the nearer collinear vertex 1
    assert count_irredundant_paths(g, 0, 2, 1, shortest_only=True) == 0
    assert count_irredundant_paths(g, 0, 1, 1, shortest_only=True) == 1


def test_shortest_paths_are_subset_of_plain():
    g = build_graph(parallel_lines(2, 3, seed=4), "rational")
    for v in range(g.n):
        plain = irredundant_path_census(g, v, 2)
        short = irredundant_path_census(g, v, 2, shortest_only=True)
        for w, c in short.items():
            assert c <= plain.get(w, 0)


def rivals_on_both_sides():
    """The axis points -1, 0, 1/2, 1, 3 with unit steps up from -1, 0, 1
    and down from 0, 1: an axis step meets rivals on both sides of its
    start, some at the same distance, and in unit mode 1/2 and 3 are
    rivals that are nobody's neighbours."""
    xs = [-1, 0, Fraction(1, 2), 1, 3]
    ys = [(-1, 1), (0, 1), (1, 1), (0, -1), (1, -1)]
    return make_pointset([CycNum(4, (x, 0)) for x in xs] + [CycNum(4, xy) for xy in ys], "rivals", {})


@pytest.mark.parametrize("mode", distgraph.MODES)
@pytest.mark.parametrize(
    "make",
    [lambda: _shifted_grid(4, 4), lambda: parallel_lines(3, 4, seed=5), rivals_on_both_sides],
    ids=["shifted_grid", "parallel_lines", "rivals"],
)
def test_line_table_readers_match_brute_force(make, mode):
    g = build_graph(make(), mode)
    for scope in ("all", "neighbors"):
        for k in (1, 2, 3):
            for v in range(g.n):
                census = irredundant_path_census(g, v, k, shortest_only=True, vertex_scope=scope)
                assert census == oracles.brute_path_census(g, v, k, scope), (scope, k, v)
    assert noncollinear_two_path_stats(g) == oracles.brute_noncollinear_two_paths(g)


def test_shortest_rule_weighs_rivals_on_both_sides():
    g = build_graph(rivals_on_both_sides(), "unit")
    # 0 -> 1 ties with 0 -> -1 until -1 is used, and 1/2 is nearer still,
    # though no neighbour of 0
    assert count_irredundant_paths(g, 1, 3, 1, shortest_only=True, vertex_scope="neighbors") == 0
    assert count_irredundant_paths(g, 0, 3, 2, shortest_only=True, vertex_scope="neighbors") == 1
    assert count_irredundant_paths(g, 0, 3, 2, shortest_only=True) == 0
    assert count_irredundant_paths(g, 0, 3, 2) == 1


def test_line_table_is_built_once_and_read_without_triple_tests(monkeypatch):
    ps = erdos_purdy(5)
    g = build_graph(ps, "rational")
    tests, scans = [], []
    real_collinearity, real_lines_through = geometry.collinearity, geometry.lines_through

    def counting(*args):
        test = real_collinearity(*args)

        @functools.wraps(test)
        def collinear(*triple):
            tests.append(triple)
            return test(*triple)

        return collinear

    monkeypatch.setattr(geometry, "collinearity", counting)
    monkeypatch.setattr(geometry, "lines_through", lambda *args: scans.append(args[0]) or real_lines_through(*args))
    assert max_points_on_line(ps) == (2, (0, 1))
    built = len(tests)
    noncollinear_two_path_stats(g)
    for scope in ("all", "neighbors"):
        path_stats(g, 3, shortest_only=True, vertex_scope=scope)
    assert len(scans) <= len(ps) - 1
    assert len(tests) == built


# ---------------------------------------------------------------------------
# the analysis report
# ---------------------------------------------------------------------------

def test_analyze_triangle():
    rep = analyze(triangle(), "unit", 2)
    assert rep.n == 3 and rep.edge_count == 3
    assert rep.max_collinear == 2
    assert rep.peel_threshold == Fraction(1, 2)
    assert rep.peeled_n == 3 and rep.peeled_edge_count == 3
    assert rep.peeled_min_degree == 2
    assert rep.path_pair_max == 1
    assert rep.path_source_min == 2
    assert rep.two_path_noncollinear_max == 1
    assert rep.bounds["relation_count"] == 144
    assert rep.bounds["continuation"] == paths_lower_bound(2, 2)
    assert rep.all_ceilings_hold
    assert rep.ceilings["relation_count"]["applicable"]  # unit mode


def test_analyze_grid_rational_relation_ceiling_not_applicable():
    rep = analyze(square_grid(3, 3), "rational", 2)
    assert rep.max_collinear == 3
    assert not rep.ceilings["relation_count"]["applicable"]
    assert rep.ceilings["relation_count"]["holds"] is None
    assert rep.ceilings["two_path"]["applicable"]
    assert rep.all_ceilings_hold


def test_analyze_erdos_purdy_4():
    rep = analyze(erdos_purdy(4), "unit", 2)
    assert rep.n == 16
    assert rep.edge_count >= 24  # 2^3 * 3
    assert rep.max_collinear == 2
    assert rep.all_ceilings_hold


def test_analyze_singleton():
    rep = analyze(make_pointset([CycNum.zero()], "one", {}), "rational", 2)
    assert rep.n == 1 and rep.edge_count == 0
    assert rep.max_collinear == 1
    assert rep.excess_exponent is None
    assert rep.path_source_min is None
    assert not rep.ceilings["peeling"]["applicable"]
    assert rep.all_ceilings_hold


def test_analyze_excess_exponent():
    import math

    rep = analyze(square_grid(3, 3), "rational", 2)
    assert rep.excess_exponent == pytest.approx(math.log(18) / math.log(9) - 1)


def _discounted_loop(delta, max_col, k):
    """The continuation floor discounted by collinearity, as a float loop."""
    out = 1.0
    for level in range(k):
        out *= max(0.0, delta / max(max_col, 1) - (1 << level) + 1)
    return out


def test_continuation_discounted_matches_float_loop():
    for delta, max_col, k in itertools.product(range(21), range(1, 7), range(1, 9)):
        got = float(paths_lower_bound(delta / max_col, k))
        assert repr(got) == repr(_discounted_loop(delta, max_col, k)), (delta, max_col, k)


@pytest.mark.parametrize(
    "ps, mode",
    [
        (square_grid(3, 3), "rational"),
        (square_grid(4, 4), "unit"),
        (parallel_lines(3, 4, seed=1), "rational"),
        (erdos_purdy(4), "unit"),
    ],
    ids=["grid33", "grid44-unit", "lines", "ep4"],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_analyze_continuation_discounted_matches_float_loop(ps, mode, k):
    rep = analyze(ps, mode, k)
    want = _discounted_loop(rep.peeled_min_degree or 0, rep.max_collinear, k)
    assert repr(rep.bounds["continuation_discounted"]) == repr(want)


def test_relation_count_applies():
    assert distgraph.relation_count_applies("unit", 5)
    assert distgraph.relation_count_applies("rational", 2)
    assert not distgraph.relation_count_applies("rational", 3)


# ---------------------------------------------------------------------------
# synthetic random graphs driven through the peeling contract
# ---------------------------------------------------------------------------

def synthetic_graph(seed):
    """Random adjacency grafted onto an integer row of points."""
    rng = random.Random(seed)
    n = rng.randrange(2, 60)
    ps = integer_row(n)
    edges = {}
    for _ in range(rng.randrange(1, 4 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        i, j = min(a, b), max(a, b)
        if (i, j) in edges:
            continue
        edges[(i, j)] = RationalAngleForm(Fraction(j - i), 0, 2)
    if not edges:
        edges[(0, 1)] = RationalAngleForm(Fraction(1), 0, 2)
    return DistanceGraph(pointset=ps, mode="rational", edges=edges)


@pytest.mark.parametrize("seed", range(12))
def test_min_degree_subgraph_peeling_contract(seed):
    g = synthetic_graph(seed)
    t = Fraction(g.edge_count, 2 * g.n)
    sub = min_degree_subgraph(g, t)
    assert sub.n > 0
    assert sub.min_degree() >= t
    assert sub.edge_count > Fraction(g.edge_count, 2)

"""Point set constructions: doubling, grids, parallel lines."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, count

import pytest
import sympy

from cyclolab import (
    CapExceeded,
    CycNum,
    PointSet,
    analyze,
    build_graph,
    erdos_purdy,
    geometry,
    make_pointset,
    max_points_on_line,
    noncollinear_two_path_stats,
    parallel_lines,
    path_stats,
    pointsets,
    root_of_unity,
    serialize,
    square_grid,
)
from cyclolab.errors import WorkBudgetExceeded

import oracles


# ---------------------------------------------------------------------------
# the PointSet container
# ---------------------------------------------------------------------------

def test_make_pointset_lifts_mixed_conductors():
    pts = [CycNum.one(), root_of_unity(1, 3), root_of_unity(1, 4)]
    ps = make_pointset(pts, "mixed", {})
    assert ps.conductor == 12
    assert all(p.conductor == 12 for p in ps.points)
    assert len(ps) == 3
    assert ps.provenance["name"] == "mixed"


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        make_pointset([CycNum.one(), root_of_unity(0, 5)], "dup", {})


def test_make_pointset_coerces_rationals():
    ps = make_pointset([0, 1, Fraction(1, 2)], "row", {})
    assert ps.conductor == 1
    assert ps.points[2].as_rational() == Fraction(1, 2)


def test_pointset_rejects_non_cycnum():
    with pytest.raises(ValueError):
        make_pointset([CycNum.one(), "east"], "bad", {})
    with pytest.raises(ValueError):
        PointSet(conductor=1, points=(CycNum.one(), 2), provenance={"name": "x"})


def test_pointset_requires_name():
    with pytest.raises(ValueError):
        PointSet(conductor=1, points=(CycNum.one(),), provenance={})


def test_pointset_conductor_must_match():
    with pytest.raises(ValueError):
        PointSet(
            conductor=4,
            points=(CycNum.one(), root_of_unity(1, 4)),
            provenance={"name": "x"},
        )


def _loader_error(provenance):
    doc = serialize.pointset_to_obj(make_pointset([0, 1], "x", {}))
    doc["provenance"] = {**doc["provenance"], **provenance} if isinstance(provenance, dict) else provenance
    with pytest.raises(ValueError) as info:
        serialize.obj_to_pointset(doc)
    return str(info.value)


@pytest.mark.parametrize(
    "build, provenance",
    [
        (lambda: parallel_lines(2, 2, seed=True), {"seed": True}),
        (lambda: make_pointset([0, 1], "x", {}, seed=True), {"seed": True}),
        (lambda: make_pointset([0, 1], "x", {}, seed=1.0), {"seed": 1.0}),
        (lambda: make_pointset([0, 1], 5, {}), {"name": 5}),
        (lambda: PointSet(conductor=1, points=(), provenance={"name": "x", "params": [1]}), {"params": [1]}),
        (lambda: PointSet(conductor=1, points=(), provenance="name"), "name"),
    ],
    ids=["lines-bool-seed", "bool-seed", "float-seed", "int-name", "list-params", "str-provenance"],
)
def test_pointset_refuses_provenance_its_loader_refuses(build, provenance):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == _loader_error(provenance)


def test_valid_provenance_round_trips_unchanged(tmp_path):
    for ps in (parallel_lines(2, 2, seed=3), make_pointset([0, 1], "x", {"a": [1, "b"]}, seed=-4), erdos_purdy(2)):
        path = tmp_path / "ps.json"
        serialize.save_json(path, serialize.pointset_to_obj(ps))
        back = serialize.load_pointset(path)
        assert (back.provenance, back.seed, back.points) == (ps.provenance, ps.seed, ps.points)
        assert serialize.canonical_json(serialize.pointset_to_obj(back)) == path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# translation doubling
# ---------------------------------------------------------------------------

def test_erdos_purdy_small_levels():
    for level, n in ((1, 2), (2, 4), (3, 8)):
        ps = erdos_purdy(level)
        assert len(ps) == n
        assert ps.provenance["name"] == "erdos_purdy"
        assert ps.provenance["params"]["levels"] == level
        assert len({p.coeffs for p in ps.points}) == n
        assert oracles.collinear_triples(list(ps.points)) == []


def test_erdos_purdy_level_one_is_zero_one():
    ps = erdos_purdy(1)
    assert ps.points[0] == CycNum.zero()
    assert ps.points[1] == CycNum.one()


def test_erdos_purdy_deterministic():
    a = erdos_purdy(3)
    b = erdos_purdy(3)
    assert a.conductor == b.conductor
    assert [p.coeffs for p in a.points] == [p.coeffs for p in b.points]


def test_erdos_purdy_prefix_property():
    # each level extends the previous one by a translate
    small = erdos_purdy(2)
    big = erdos_purdy(3)
    lifted = [p.lift(big.conductor) for p in small.points]
    assert [p.coeffs for p in big.points[: len(lifted)]] == [
        p.coeffs for p in lifted
    ]


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_erdos_purdy_matches_greedy_oracle(levels):
    ps = erdos_purdy(levels)
    chosen, pts = oracles.greedy_doubling(levels)
    # level l appends the translate of the first 2^l points by its root
    assert [ps.points[2 ** l] for l in range(1, levels)] == chosen
    assert list(ps.points) == pts


def _small_residue_field(n):
    """residue_field over the smallest prime p = 1 (mod n) with p >= 3, where
    residues of distinct directions often agree."""
    p = next(q for q in count(n + 1, n) if q >= 3 and sympy.isprime(q))
    omega = next(
        w for w in (pow(g, (p - 1) // n, p) for g in range(2, p))
        if all(pow(w, n // q, p) != 1 for q in sympy.primefactors(n))
    )
    return p, omega


def test_residue_field_has_a_root_of_phi_of_exact_order():
    for n in [*range(1, 301), 420, 1260, 13860]:
        p, omega = geometry.residue_field(n)
        assert p > 2**61 and (p - 1) % n == 0 and sympy.isprime(p), n
        assert pow(omega, n, p) == 1, n
        assert all(pow(omega, n // q, p) != 1 for q in sympy.primefactors(n)), n
        value = 0
        for c in reversed(oracles.phi_coeffs(n)):
            value = (value * omega + c) % p
        assert value == 0, n


def _plain_residue_field(n):
    """The search `residue_field` makes for an n that does not divide
    SMOOTH_PRIME - 1: one primality test per candidate p and one power per
    g, with no shortcut."""
    p = next(q for q in count((2**61 // n + 1) * n + 1, n) if sympy.isprime(q))
    omega = next(
        w for w in (pow(g, (p - 1) // n, p) for g in range(2, p))
        if all(pow(w, n // q, p) != 1 for q in sympy.primefactors(n))
    )
    return p, omega


_SMOOTH = 3066842656354276801  # 14 lcm(1..42) + 1
# conductors of grids and lines, of erdos_purdy L1-L10, and some that
# do not divide _SMOOTH - 1 (a prime, or a prime power above its share)
_CONSTRUCTED = [4, 1, 3, 12, 60, 420, 1260, 13860, 180180]
_OFF_SMOOTH = [43, 47, 81, 121, 125, 128, 169]


def test_smooth_prime_is_a_prime_with_generator_43():
    assert geometry.SMOOTH_PRIME == _SMOOTH and _SMOOTH.bit_length() == 62
    assert sympy.isprime(_SMOOTH)
    assert _SMOOTH - 1 == 14 * math.lcm(*range(1, 43))
    assert all(pow(43, (_SMOOTH - 1) // q, _SMOOTH) != 1 for q in sympy.primefactors(_SMOOTH - 1))


def test_residue_field_matches_the_plain_search():
    # n dividing _SMOOTH - 1 takes _SMOOTH and 43^((P-1)/n); any other n the plain search
    assert all((_SMOOTH - 1) % n == 0 for n in _CONSTRUCTED)
    assert all((_SMOOTH - 1) % n for n in _OFF_SMOOTH)
    for n in [*range(1, 201), 420, 1260, 13860, 180180]:
        if (_SMOOTH - 1) % n == 0:
            expected = (_SMOOTH, pow(43, (_SMOOTH - 1) // n, _SMOOTH))
        else:
            expected = _plain_residue_field(n)
        assert geometry.residue_field(n) == expected, n


def test_residue_field_tests_no_prime_for_a_divisor_of_smooth_prime_minus_one(monkeypatch):
    calls = []
    real = geometry._is_prime
    monkeypatch.setattr(geometry, "_is_prime", lambda q: calls.append(q) or real(q))
    for n in _CONSTRUCTED:
        geometry.residue_field.__wrapped__(n)  # past the cache
    assert calls == []
    for n in _OFF_SMOOTH:
        assert geometry.residue_field.__wrapped__(n) == geometry.residue_field(n)
    assert len(calls) >= len(_OFF_SMOOTH)


@pytest.mark.parametrize(
    "n, big",
    [(420, 420), (60, 420), (4, 13860), (12, 180180), (1, 420), (1, 1), (43, 43), (1, 43), (4, 172)],
)
def test_fingerprints_match_horner_on_dense_and_sparse_vectors(n, big):
    rng = random.Random(n * 1000003 + big)
    p, omega = geometry.residue_field(big)
    eta = pow(omega, big // n, p)
    width = int(sympy.totient(n))
    for density in (1.0, 0.3, 0.05, 0.0):
        vecs = [
            [rng.choice([-1, 1]) * rng.randint(1, 2**rng.choice([3, 40, 90])) if rng.random() < density else 0
             for _ in range(width)]
            for _ in range(6)
        ]
        F, G = geometry.fingerprints(vecs, n, big)
        assert F == [geometry._horner(x, eta, p) for x in vecs], (n, big, density)
        assert G == [geometry._horner(x, pow(eta, -1, p), p) for x in vecs], (n, big, density)


def test_erdos_purdy_small_prime_confirms_collisions_exactly(monkeypatch):
    # over a tiny prime most residue collisions are false; each must be
    # refuted by exact arithmetic, so the points cannot change
    calls = []
    real = geometry.pair_vec
    monkeypatch.setattr(geometry, "pair_vec", lambda *args: calls.append(args) or real(*args))
    expected = erdos_purdy(6).points
    confirmations = len(calls)
    monkeypatch.setattr(geometry, "residue_field", _small_residue_field)
    assert erdos_purdy(6).points == expected
    assert len(calls) - confirmations > 10 * confirmations > 0


def test_translate_union_matches_cubic_oracle_over_a_tiny_prime(monkeypatch):
    # at conductor 4 the tiny prime is 5, so points often share a residue
    # direction or have no usable one, distinct points of a union often share
    # their residue pair, and every such case is decided exactly; a repeated
    # point is refused by the point comparison, before any exact pairing
    monkeypatch.setattr(geometry, "residue_field", _small_residue_field)
    calls = _count_pair_vecs(monkeypatch)
    rng = random.Random(11)
    keyless = repeated = collisions = checked = 0
    while checked < 400:
        pts = [CycNum(4, (rng.randint(-6, 6), rng.randint(-6, 6))) for _ in range(rng.randint(3, 5))]
        if len(set(pts)) < len(pts) or oracles.collinear_triples(pts):
            continue
        vecs = [p.nums for p in pts]
        prints = geometry.fingerprints(vecs, 4, 4)
        keyless += len(prints[1]) - len(set(prints[1]))  # pairs in P with G_i = G_j
        for q in range(4):
            union = pts + [p + root_of_unity(q, 4) for p in pts]
            before = len(calls)
            got = pointsets._translate_union(vecs, 4, q, 4, prints)
            pairs = list(zip(*geometry.fingerprints([x.nums for x in union], 4, 4)))
            collisions += sum(x != y and s == t for (x, s), (y, t) in combinations(zip(union, pairs), 2))
            if len(set(union)) < len(union):
                assert got is None and len(calls) == before, (pts, q)
                repeated += 1
            elif oracles.collinear_triples(union):
                assert got is None, (pts, q)
            else:
                got_vecs, got_prints = got
                assert [CycNum(4, v) for v in got_vecs] == union, (pts, q)
                assert list(got_prints) == geometry.fingerprints(got_vecs, 4, 4), (pts, q)
            checked += 1
    assert keyless > 100
    assert repeated > 10 and collisions > 100, (repeated, collisions)


def test_erdos_purdy_validation():
    with pytest.raises(ValueError):
        erdos_purdy(0)
    with pytest.raises(CapExceeded):
        erdos_purdy(9)


# ---------------------------------------------------------------------------
# square grids
# ---------------------------------------------------------------------------

def test_square_grid_shape():
    ps = square_grid(2, 3)
    assert len(ps) == 6
    assert ps.conductor == 4
    assert ps.provenance["params"]["rows"] == 2
    assert ps.provenance["params"]["cols"] == 3
    assert ps.provenance["params"]["spacing"] == "1"
    # row-major order: points are x + y * zeta_4
    assert ps.points[0] == CycNum.zero()
    assert ps.points[1] == CycNum.one()
    assert ps.points[3] == root_of_unity(1, 4)


def test_square_grid_fractional_spacing():
    ps = square_grid(2, 2, Fraction(1, 2))
    assert ps.points[1].coeffs[0] == Fraction(1, 2)
    assert ps.provenance["params"]["spacing"] == "1/2"


def test_square_grid_rejects_float_spacing():
    with pytest.raises(TypeError):
        square_grid(2, 2, 0.5)


def test_square_grid_validation():
    with pytest.raises(ValueError):
        square_grid(0, 3)
    with pytest.raises(ValueError):
        square_grid(2, 2, Fraction(0))
    with pytest.raises(WorkBudgetExceeded):
        square_grid(100, 100)


def test_single_row_grid_is_collinear():
    from cyclolab import max_points_on_line

    ps = square_grid(1, 5)
    count, members = max_points_on_line(ps)
    assert count == 5
    assert members == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# parallel lines
# ---------------------------------------------------------------------------

def test_parallel_lines_shape():
    ps = parallel_lines(3, 4, seed=1)
    assert len(ps) == 12
    assert ps.conductor == 4
    assert ps.seed == 1
    assert ps.provenance["params"]["lines"] == 3
    assert ps.provenance["params"]["per_line"] == 4


def test_parallel_lines_rows_have_constant_height():
    ps = parallel_lines(3, 4, seed=0)
    for i, p in enumerate(ps.points):
        assert p.coeffs[1] == i // 4  # imaginary part is the line index


def test_parallel_lines_no_triple_spanning_three_lines():
    ps = parallel_lines(4, 5, seed=3)
    pts = list(ps.points)
    for (i, j, k) in oracles.collinear_triples(pts):
        rows = {i // 5, j // 5, k // 5}
        assert len(rows) < 3, (i, j, k)


def test_parallel_lines_single_point_rows():
    from cyclolab import max_points_on_line

    ps = parallel_lines(4, 1, seed=2)
    count, _ = max_points_on_line(ps)
    assert count == 2


def test_parallel_lines_deterministic_and_seed_sensitive():
    a = parallel_lines(3, 5, seed=9)
    b = parallel_lines(3, 5, seed=9)
    c = parallel_lines(3, 5, seed=10)
    assert [p.coeffs for p in a.points] == [p.coeffs for p in b.points]
    assert [p.coeffs for p in a.points] != [p.coeffs for p in c.points]


@pytest.mark.parametrize(
    "lines, per_line, seed",
    [(3, 4, 0), (3, 4, 1), (3, 4, 2), (3, 4, 3), (4, 5, 3), (5, 5, 2991)],
)
def test_parallel_lines_matches_greedy_oracle(lines, per_line, seed):
    ps = parallel_lines(lines, per_line, seed=seed)
    rows = oracles.greedy_parallel_lines(lines, per_line, seed)
    assert [p.coeffs for p in ps.points] == [(x, line) for line, row in enumerate(rows) for x in row]


def test_parallel_lines_validation():
    with pytest.raises(ValueError):
        parallel_lines(0, 3)
    with pytest.raises(ValueError):
        parallel_lines(3, 0)
    with pytest.raises(WorkBudgetExceeded):
        parallel_lines(200, 200)


# ---------------------------------------------------------------------------
# the collinearity test
# ---------------------------------------------------------------------------

def _shifted_grid(rows=3, cols=4):
    grid = square_grid(rows, cols, Fraction(3, 4))
    shift = CycNum(4, (Fraction(1, 3), Fraction(-2, 5)))
    return make_pointset([p + shift for p in grid.points], "shifted_grid", {})


def _moved_doubling():
    turn = root_of_unity(7, 60)
    pts = [p.lift(60) * turn + Fraction(2, 7) for p in erdos_purdy(2).points]
    # a point a third of the way from the first point to the second makes
    # one collinear triple, and a denominator of 3
    pts.append(pts[0] + (pts[1] - pts[0]) / 3)
    return make_pointset(pts, "moved_doubling", {})


@pytest.mark.parametrize("build", [_shifted_grid, _moved_doubling])
def test_cross_matrix_zero_tests_match_oracle(build, monkeypatch):
    # ps.collinear under the real prime, then under a tiny prime whose zero
    # residues are mostly false and must be refuted exactly
    pts = list(build().points)
    assert any(c.denominator > 1 for p in pts for c in p.coeffs)
    expected = oracles.collinear_triples(pts)
    assert 0 < len(expected) < len(list(combinations(pts, 3)))
    for field in (geometry.residue_field, _small_residue_field):
        monkeypatch.setattr(geometry, "residue_field", field)
        ps = build()
        assert [t for t in combinations(range(len(pts)), 3) if ps.collinear(*t)] == expected


def _count_pair_vecs(monkeypatch):
    calls = []
    real = geometry.pair_vec
    monkeypatch.setattr(geometry, "pair_vec", lambda *args: calls.append(args) or real(*args))
    return calls


def test_norm_certificate_spares_pair_vec_on_small_coordinates(monkeypatch):
    grid = _shifted_grid(5, 5)
    doubling = _moved_doubling()
    calls = _count_pair_vecs(monkeypatch)
    # every collinear triple of the grid is certified by its zero residue
    report = analyze(grid, "rational", 2)
    assert report.max_collinear == 5 and calls == []
    # at conductor 60 the bound (8 L^2)^16 exceeds p, so the one collinear
    # triple is confirmed by pair_vec, and every other one is refuted by its residue
    triples = list(combinations(range(len(doubling)), 3))
    assert [t for t in triples if doubling.collinear(*t)] == oracles.collinear_triples(doubling.points)
    assert len(calls) == 1


def _line_statistics(ps, g):
    shortest = [path_stats(g, 2, shortest_only=True, vertex_scope=s) for s in ("all", "neighbors")]
    return max_points_on_line(ps), noncollinear_two_path_stats(g), shortest


def test_tiny_prime_line_statistics_match_the_real_prime(monkeypatch):
    # the tiny prime collides residue keys, so the line table and the
    # shortest-step rule that reads it rest on the exact confirmations
    sets = [_shifted_grid(5, 5), parallel_lines(3, 4, seed=5), erdos_purdy(4)]
    graphs = [build_graph(ps, "rational") for ps in sets]
    expected = [_line_statistics(ps, g) for ps, g in zip(sets, graphs)]
    monkeypatch.setattr(geometry, "residue_field", _small_residue_field)
    calls = _count_pair_vecs(monkeypatch)
    for ps, want in zip(sets, expected):
        before = len(calls)
        fresh = dataclasses.replace(ps)  # a new PointSet builds its test afresh
        assert _line_statistics(fresh, build_graph(fresh, "rational")) == want
        assert len(calls) > before, fresh.provenance["name"]


def test_line_scan_over_a_tiny_prime_matches_brute_force(monkeypatch):
    # the union test only sees collinear-free sets; here lines through an
    # anchor hold several points, and at conductor 4 the tiny prime is 5,
    # so many later points share a key or have none (G_j = G_i), some of
    # them even with F_j = F_i (coordinates that differ by 5)
    rng = random.Random(5)
    sets = []
    while len(sets) < 150:
        pts = {CycNum(4, (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(rng.randint(4, 12))}
        if len(pts) >= 3 and oracles.collinear_triples(list(pts)):
            sets.append(make_pointset(sorted(pts, key=lambda x: x.nums), "random", {}))
    expected = [max_points_on_line(ps) for ps in sets]
    monkeypatch.setattr(geometry, "residue_field", _small_residue_field)
    keyless = both = 0
    for ps, want in zip(sets, expected):
        fresh = dataclasses.replace(ps)
        count_, members = got = max_points_on_line(fresh)
        assert got == want
        assert count_ == oracles.brute_max_collinear(list(ps.points))[0]
        pts = ps.points
        line = {k for k in range(len(pts)) if oracles.is_collinear(pts[members[0]], pts[members[1]], pts[k])}
        assert line == set(members)
        F, G = geometry.fingerprints([x.nums for x in pts], 4, 4)
        for i, j in combinations(range(len(pts)), 2):
            keyless += G[i] == G[j]
            both += G[i] == G[j] and F[i] == F[j]
    assert keyless > both > 0


# ---------------------------------------------------------------------------
# the derived views of a point set
# ---------------------------------------------------------------------------

def _mixed_denominators():
    pts = [Fraction(1, 2), Fraction(-2, 3), CycNum(4, (Fraction(1, 5), Fraction(3, 4))), root_of_unity(1, 4)]
    return make_pointset(pts, "mixed", {})


@pytest.mark.parametrize("build", [lambda: erdos_purdy(5), _mixed_denominators])
def test_pointset_views_match_independent_scaling(build):
    ps = build()
    n = ps.conductor
    den = math.lcm(*(c.denominator for p in ps.points for c in p.coeffs))
    vecs = [[int(c * den) for c in p.coeffs] for p in ps.points]
    got_vecs, got_den = ps.scaled
    assert ([list(v) for v in got_vecs], got_den) == (vecs, den)
    assert ps.residues == (*geometry.fingerprints(vecs, n, n), geometry.residue_field(n)[0])
    assert not hasattr(ps.collinear, "residues")


def test_pointset_fingerprints_its_points_once(monkeypatch):
    calls = []
    real = geometry.fingerprints
    monkeypatch.setattr(geometry, "fingerprints", lambda *args: calls.append(args[1:]) or real(*args))
    for ps in (erdos_purdy(4), _mixed_denominators(), square_grid(3, 3)):
        calls.clear()
        build_graph(ps, "rational")
        max_points_on_line(ps)
        ps.collinear(0, 1, 2)
        assert calls == [(ps.conductor, ps.conductor)], ps.provenance["name"]

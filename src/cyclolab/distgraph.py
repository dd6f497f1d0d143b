"""Rational-angle distance graphs and their path statistics.

Vertices are the points of a PointSet.  Two points are joined when
their displacement is a positive rational multiple of a root of unity;
in "unit" mode the rational length must additionally be exactly 1.
Both tests depend on the displacement alone, so the graph classifies
each distinct displacement once, keyed by the difference of the two
points' packed ints `PointSet.packs`.  On top of the graph live the
operations that drive the counting results: degree peeling, line
statistics read from the point set's line table `PointSet.lines`, and
the census of irredundant paths (paths no nonempty subset of whose edge
vectors sums to zero), which compares the same packs and whose
shortest-step rule reads the line table too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Optional

from . import geometry
from .cyclotomic import CycNum, RationalAngleForm, _from_ints, classify_rational_angle, real_sign
from .errors import CapExceeded
from .mann import relation_count_bound
from .pointsets import PointSet

PATH_CAP = 8

MODES = ("unit", "rational")


@dataclass
class DistanceGraph:
    """A PointSet together with its rational-angle edges.

    `edges` maps index pairs (i, j) with i < j to the classified form of
    points[j] - points[i]; the reverse orientation is the same length
    with the exponent advanced by half a turn.  `adjacency`, the sorted
    neighbours of each vertex, is derived from the edges on construction.
    The points' scaled vectors, residues and packs are the point set's own
    (`PointSet.scaled`, `PointSet.residues`, `PointSet.packs`).
    """

    pointset: PointSet
    mode: str
    edges: dict
    adjacency: tuple = field(init=False)
    _sq: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        adj = [[] for _ in range(len(self.pointset))]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)

    @property
    def n(self) -> int:
        return len(self.pointset)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def min_degree(self) -> Optional[int]:
        if self.n == 0:
            return None
        return min(len(a) for a in self.adjacency)

    def edge_form(self, i: int, j: int):
        """Classified form of points[j] - points[i] for an existing edge."""
        if i < j:
            return self.edges[(i, j)]
        form = self.edges[(j, i)]
        m = form.modulus
        return RationalAngleForm(form.length, (form.exponent + m // 2) % m, m)

    # -- lazy exact-geometry caches ----------------------------------------

    def squared_distance(self, i: int, j: int) -> CycNum:
        key = (i, j) if i < j else (j, i)
        out = self._sq.get(key)
        if out is None:
            pts = self.pointset.points
            out = geometry.squared_distance(pts[key[0]], pts[key[1]])
            self._sq[key] = out
        return out

    @cached_property
    def _near(self) -> tuple:
        """For each vertex, a dict from each neighbour's pack to that neighbour."""
        packs = self.pointset.packs
        return tuple({packs[u]: u for u in adj} for adj in self.adjacency)


def build_graph(ps: PointSet, mode: str) -> DistanceGraph:
    """Classify the pairs of points and keep the rational-angle ones.

    In "rational" mode an edge needs a rational length and a rational
    angle; "unit" mode further requires length exactly 1.

    Pairs are screened first by the residue pairs (F, G, p) =
    `ps.residues` of the points scaled by their common denominator den
    (`ps.scaled`).  For points i < j let f = F_j - F_i and g = G_j - G_i,
    the residues of v = den (x_j - x_i) and of conj(v) under zeta_N -> omega.
    If v = q zeta_M^e (M = lcm(2, N)), then v = zeta_M^(2e) conj(v), and
    zeta_M^(2e) is an h-th root of unity, h = M / 2; so f^h != g^h (mod p)
    proves the pair has no rational angle.  In unit mode v conj(v) = den^2,
    so f g != den^2 (mod p) proves |x_j - x_i| != 1.  Each rejection is a
    proof.  A pair that passes is looked up by the difference of its packs
    `ps.packs`, which is equal for two pairs exactly when their
    displacements are (see `PointSet.packs`); each distinct displacement
    is classified exactly once, and its form, or None, serves every pair
    that shares it.  The unit length is checked after the lookup.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = len(ps)
    if n < 2:  # no pair, so no residue field: the conductor is not factored
        return DistanceGraph(pointset=ps, mode=mode, edges={})
    vecs, den = ps.scaled
    F, G, p = ps.residues
    packs = ps.packs
    h = math.lcm(2, ps.conductor) // 2
    unit = mode == "unit"
    forms = {}  # pack difference -> form of that displacement, or None
    edges = {}
    for i in range(n):
        fi, gi, top = F[i], G[i], packs[i]
        for j in range(i + 1, n):
            f, g = F[j] - fi, G[j] - gi
            if unit and (f * g - den * den) % p or pow(f, h, p) != pow(g, h, p):
                continue
            d = packs[j] - top
            if d not in forms:
                w = _from_ints(ps.conductor, tuple(map(sub, vecs[j], vecs[i])), den)
                forms[d] = classify_rational_angle(w)
            form = forms[d]
            if form is None or unit and form.length != 1:
                continue
            edges[(i, j)] = form
    return DistanceGraph(pointset=ps, mode=mode, edges=edges)


# ---------------------------------------------------------------------------
# degree peeling
# ---------------------------------------------------------------------------

def peel_vertices(n: int, adjacency, threshold) -> list:
    """Vertices surviving iterated deletion of degree < threshold.

    Works on any adjacency structure (sequence of neighbour sequences);
    the threshold may be an exact Fraction.  Returns sorted indices.
    """
    deg = [len(adjacency[v]) for v in range(n)]
    alive = [True] * n
    stack = [v for v in range(n) if deg[v] < threshold]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for u in adjacency[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] < threshold:
                    stack.append(u)
    return [v for v in range(n) if alive[v]]


def min_degree_subgraph(g: DistanceGraph, threshold) -> DistanceGraph:
    """Induced subgraph on the vertices that survive peeling at threshold.

    With threshold e/(2n) the survivor keeps more than half of the edges
    and has minimum degree at least the threshold (it can be empty only
    when that is impossible, i.e. never for positive edge count).
    """
    survivors = peel_vertices(g.n, g.adjacency, threshold)
    index = {v: i for i, v in enumerate(survivors)}
    pts = g.pointset.points
    prov = g.pointset.provenance
    sub_ps = PointSet(
        conductor=g.pointset.conductor,
        points=tuple(pts[v] for v in survivors),
        provenance={
            "name": prov["name"] + ":peeled",
            "params": {**prov.get("params", {}), "threshold": str(Fraction(threshold))},
        },
        seed=g.pointset.seed,
    )
    # the survivors' zero tests combine no more points than their parent's,
    # so the parent's packs serve them (see PointSet.packs)
    packs = g.pointset.packs
    sub_ps.packs = [packs[v] for v in survivors]
    # survivors are sorted, so reindexing preserves the i < j orientation
    edges = {(index[i], index[j]): form for (i, j), form in g.edges.items() if i in index and j in index}
    return DistanceGraph(pointset=sub_ps, mode=g.mode, edges=edges)


# ---------------------------------------------------------------------------
# collinearity statistics
# ---------------------------------------------------------------------------

def max_points_on_line(ps: PointSet):
    """Largest number of points of ps on one line, with a witness.

    The witness is the first longest line of the point set's line table
    `ps.lines`, which holds each line of three or more points in the
    order of its lowest point; with no such line it is the pair (0, 1).
    Returns (count, sorted tuple of member indices).  Needs at least 2
    points.
    """
    if len(ps) < 2:
        raise ValueError("need at least two points")
    line = max(ps.lines.values(), key=len, default=(0, 1))
    return len(line), line


# ---------------------------------------------------------------------------
# irredundant paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathRecord:
    """One enumerated path: vertices visited and exact edge displacements."""

    vertices: tuple
    edge_vectors: tuple
    irredundant: bool
    shortest: bool


def paths_lower_bound(delta, k: int):
    """prod over l < k of max(0, delta - 2^l + 1).

    At step l of an irredundant path, at most 2^l - 1 of at least delta
    continuations are excluded by subset-sum cancellation, so a graph of
    minimum degree delta admits at least this many k-step irredundant
    paths from every vertex.  An int delta gives an int; delta may also
    be fractional, as in the floor discounted by collinearity.
    """
    if delta < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    out = 1
    for level in range(k):
        out *= max(0, delta - (1 << level) + 1)
    return out


def relation_count_applies(mode: str, max_collinear: int) -> bool:
    """Does the relation-count ceiling apply?  The paper's path bound covers
    unit distances, and rational distances when no three points lie on a line."""
    return mode == "unit" or max_collinear <= 2


def _admissible_shortest(g: DistanceGraph, p: int, u: int, path, scope: str) -> bool:
    """May a path standing at p step to u under the shortness rule?

    The step must be strictly shorter than the distance from p to every
    other in-scope vertex not yet on the path that lies on the line of p
    and u in `PointSet.lines`; distance ties are inadmissible.
    """
    return all(
        real_sign(g.squared_distance(p, x) - g.squared_distance(p, u)) > 0
        for x in g.pointset.lines.get((p, u), ())
        if x != u and x not in path and (scope == "all" or x in g.adjacency[p])
    )


def _check_path_args(k: int, vertex_scope: str) -> None:
    if vertex_scope not in ("all", "neighbors"):
        raise ValueError("vertex_scope must be 'all' or 'neighbors'")
    if k < 1:
        raise ValueError("path length must be at least 1")
    if k > PATH_CAP:
        raise CapExceeded(f"path length capped at {PATH_CAP}, got {k}")


def _path_census(g, source, k, shortest_only, vertex_scope, collect, target):
    """Endpoint -> count of the irredundant k-edge paths from source, and the
    collected records.

    Each level of the recursion is given pos, the positions reachable from
    packs[source] along subsets of the path's edges, and stands on cur; a
    step to u is irredundant iff packs[u] is not in pos, and the next level
    gets pos together with pos + d, d = packs[u] - packs[cur].  The last
    step is counted as it is taken, except that with no per-step rule and
    k >= 2 it is counted in bulk: each vertex u that step k - 1 reaches adds
    1 to reach[u] and takes 1 from each neighbour of u whose pack is in pos
    or in pos + d, found by lookups in _near[u], and every neighbour of a
    vertex v gains reach[v] at the end.

    A step to u tests u - source - sum of T for the subsets T of the path's
    edges, and the bulk last step tests the neighbours of u the same way,
    against the subsets of the path's edges and the step to u.  Those
    paths are irredundant, so their vertices are distinct and they hold at
    most n - 1 edges; a test then has at most 2 + 2(n - 1) = 2n signed
    point terms, within the depth of `PointSet.packs`, and stays exact.
    """
    counts = [0] * g.n
    reach = [0] * g.n
    records = []
    packs = g.pointset.packs
    near = g._near
    adjacency = g.adjacency
    path = [source]
    bulk = not (shortest_only or collect)

    def rec(cur, pos, depth):
        top = packs[cur]
        last = depth == k - 1
        ends_here = bulk and depth == k - 2
        for u in adjacency[cur]:
            if packs[u] in pos:
                continue
            if shortest_only and not _admissible_shortest(g, cur, u, path, vertex_scope):
                continue
            if last:
                counts[u] += 1
                if collect and u == target:
                    path.append(u)
                    records.append(_make_record(g, path, shortest_only))
                    path.pop()
                continue
            d = packs[u] - top
            if ends_here:
                reach[u] += 1
                ends = near[u]
                for q in pos:
                    if q in ends:
                        counts[ends[q]] -= 1
                    # a position in both pos and pos + d is counted once
                    q += d
                    if q in ends and q not in pos:
                        counts[ends[q]] -= 1
                continue
            path.append(u)
            rec(u, pos.union([q + d for q in pos]), depth + 1)
            path.pop()

    rec(source, frozenset((packs[source],)), 0)
    for v, r in enumerate(reach):
        if r:
            for w in adjacency[v]:
                counts[w] += r
    return {w: c for w, c in enumerate(counts) if c}, records


def _make_record(g, path, shortest):
    pts = g.pointset.points
    vecs = tuple(pts[b] - pts[a] for a, b in zip(path, path[1:]))
    return PathRecord(
        vertices=tuple(path), edge_vectors=vecs, irredundant=True, shortest=shortest
    )


def count_irredundant_paths(
    g: DistanceGraph,
    v: int,
    w: int,
    k: int,
    shortest_only: bool = False,
    vertex_scope: str = "all",
    collect: bool = False,
):
    """Number of irredundant k-edge paths from v to w.

    A path is irredundant when no nonempty subset of its edge vectors
    sums to zero; pruning is exact, so revisited vertices and cancelling
    detours never appear.  With shortest_only, each step must also be
    strictly shorter than the distance from its start to every other
    unused vertex on its line (vertex_scope "all" checks all graph
    vertices, "neighbors" only the start's neighbours).  With collect,
    returns (count, list of PathRecords).
    """
    _check_path_args(k, vertex_scope)
    if not (0 <= v < g.n and 0 <= w < g.n):
        raise ValueError("vertex index out of range")
    if v == w:
        raise ValueError("endpoints must differ")
    counts, records = _path_census(g, v, k, shortest_only, vertex_scope, collect, target=w)
    count = counts.get(w, 0)
    return (count, records) if collect else count


def irredundant_path_census(
    g: DistanceGraph,
    source: int,
    k: int,
    shortest_only: bool = False,
    vertex_scope: str = "all",
) -> dict:
    """Endpoint -> count of irredundant k-edge paths from source."""
    _check_path_args(k, vertex_scope)
    if not 0 <= source < g.n:
        raise ValueError("vertex index out of range")
    return _path_census(g, source, k, shortest_only, vertex_scope, False, target=None)[0]


def path_stats(
    g: DistanceGraph,
    k: int,
    shortest_only: bool = False,
    vertex_scope: str = "all",
):
    """Census from every source: (pair_max, pair_min, source_totals).

    pair_max and pair_min range over ordered pairs of distinct vertices;
    source_totals[v] is the number of irredundant k-edge paths from v.
    The keyword arguments are those of irredundant_path_census.  Needs
    at least two vertices.
    """
    if g.n < 2:
        raise ValueError("need at least two points for path statistics")
    highs, lows, source_totals = [], [], []
    for v in range(g.n):
        counts = irredundant_path_census(
            g, v, k, shortest_only=shortest_only, vertex_scope=vertex_scope
        )
        row = [counts.get(w, 0) for w in range(g.n) if w != v]
        highs.append(max(row))
        lows.append(min(row))
        source_totals.append(sum(row))
    return max(highs), min(lows), source_totals


def path_direction_tuple(record: PathRecord) -> tuple:
    """Exponent of each edge displacement as a root-of-unity direction.

    All displacements of one record share a conductor, hence a modulus;
    the returned tuple lists the classified exponents in step order.
    """
    exps = []
    modulus = None
    for vec in record.edge_vectors:
        form = classify_rational_angle(vec)
        if form is None:
            raise ValueError("edge displacement is not rational-angle")
        if modulus is None:
            modulus = form.modulus
        elif form.modulus != modulus:
            raise AssertionError("mixed moduli within one record")
        exps.append(form.exponent)
    return tuple(exps)


def noncollinear_two_path_stats(g: DistanceGraph):
    """Largest count over pairs (v, w) of noncollinear 2-paths v-m-w.

    A 2-path counts when m is adjacent to both ends and w is not on the
    line of m and v in `PointSet.lines`.  Returns (max_count, witness).
    """
    n = g.n
    adj_sets = [set(a) for a in g.adjacency]
    lines = g.pointset.lines
    best, witness = 0, None
    for v in range(n):
        for w in range(v + 1, n):
            count = sum(w not in lines.get((m, v), ()) for m in adj_sets[v] & adj_sets[w])
            if count > best:
                best, witness = count, (v, w)
    return best, witness


# ---------------------------------------------------------------------------
# the full analysis pass
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Summary of one graph analysis; everything here is recomputable."""

    provenance_name: str
    seed: int
    n: int
    mode: str
    k: int
    conductor: int
    edge_count: int
    excess_exponent: Optional[float]
    max_collinear: int
    peel_threshold: Fraction
    peeled_n: int
    peeled_edge_count: int
    peeled_min_degree: Optional[int]
    path_pair_max: int
    path_pair_min: int
    path_source_min: Optional[int]
    two_path_noncollinear_max: int
    bounds: dict
    ceilings: dict
    all_ceilings_hold: bool


def analyze(ps: PointSet, mode: str, k: int = 2) -> AnalysisReport:
    """Build the graph, peel it, and compare path counts against bounds.

    The peel threshold is the exact fraction edge_count / (2 n).  Path
    statistics are taken on the peeled subgraph.  Each ceiling comes
    with an applicability flag: the k-path pair ceiling needs unit mode
    or no three collinear points, the noncollinear 2-path ceiling and
    the continuation floor apply unconditionally, and the peeling
    guarantee is checked whenever there is at least one edge.
    """
    _check_path_args(k, "all")
    g = build_graph(ps, mode)
    n = g.n
    e = g.edge_count

    excess = None
    if n >= 2 and e >= 1:
        excess = math.log(e) / math.log(n) - 1.0

    # fewer than two points have no line and no 2-path, and their
    # conductor is not factored (see build_graph)
    if n >= 2:
        max_col, _ = max_points_on_line(ps)
        two_path_max, _ = noncollinear_two_path_stats(g)
    else:
        max_col, two_path_max = n, 0

    threshold = Fraction(e, 2 * n) if n else Fraction(0)
    sub = min_degree_subgraph(g, threshold)
    sub_delta = sub.min_degree()

    pair_max = 0
    pair_min = 0
    source_min = None
    if sub.n >= 2:
        pair_max, pair_min, source_totals = path_stats(sub, k)
        source_min = min(source_totals)

    delta = sub_delta or 0
    bounds = {
        "relation_count": relation_count_bound(k),
        "two_path": relation_count_bound(2),
        "continuation": paths_lower_bound(delta, k),
        "continuation_discounted": float(paths_lower_bound(delta / max(max_col, 1), k)),
    }

    # name: (applicable, holds), in report order
    verdicts = {
        "relation_count": (
            relation_count_applies(mode, max_col),
            pair_max <= bounds["relation_count"],
        ),
        "two_path": (True, two_path_max <= bounds["two_path"]),
        "peeling": (e > 0, sub_delta is not None and sub_delta >= threshold and 2 * sub.edge_count > e),
        "continuation": (sub.n > 0, source_min is None or source_min >= bounds["continuation"]),
    }
    ceilings = {
        name: {"applicable": applicable, "holds": holds if applicable else None}
        for name, (applicable, holds) in verdicts.items()
    }

    return AnalysisReport(
        provenance_name=ps.provenance.get("name", ""),
        seed=ps.seed,
        n=n,
        mode=mode,
        k=k,
        conductor=ps.conductor,
        edge_count=e,
        excess_exponent=excess,
        max_collinear=max_col,
        peel_threshold=threshold,
        peeled_n=sub.n,
        peeled_edge_count=sub.edge_count,
        peeled_min_degree=sub_delta,
        path_pair_max=pair_max,
        path_pair_min=pair_min,
        path_source_min=source_min,
        two_path_noncollinear_max=two_path_max,
        bounds=bounds,
        ceilings=ceilings,
        all_ceilings_hold=all(holds for applicable, holds in verdicts.values() if applicable),
    )

"""Deterministic plane point configurations with exact coordinates.

Three families are provided: a translation-doubling construction that
keeps every pair in general position while doubling the number of unit,
rational-angle pairs; an axis-aligned square grid; and clusters of
points spread over horizontal lines with no three points collinear
across distinct lines.  All constructions are reproducible from their
parameters (and seed, where one applies).  The doubling tries each root
of unity as an exponent pair and refuses a translate whose union with
the set repeats a point, compared exactly among points that share a
residue pair, or has a collinear triple, screened by
`geometry.lines_through` and confirmed exactly.
A `PointSet` owns the views the geometry and the graph read: its points
as int vectors over their common denominator (`scaled`), one residue
pair per point (`residues`), one packed int per point (`packs`) that
the graph's classification and its path census compare, the exact
triple test (`collinear`) and the table of its lines (`lines`) that the
graph's line statistics read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from . import geometry
from .cyclotomic import CycNum, _from_ints, _map_ints, _power_sum
from .errors import CapExceeded, WorkBudgetExceeded
from .mann import WORK_BUDGET, pack_vectors

DOUBLING_CAP = 8
POINT_BUDGET = 5000


@dataclass
class PointSet:
    """A finite list of distinct plane points over one cyclotomic field.

    `points` all carry exactly the declared conductor, and their order is
    significant: serialization preserves it byte for byte.  The name,
    params and seed obey the point set loader's rules, so a saved set
    loads back.  The derived views are computed once, on first use:
    `scaled`, `residues`, `packs`, `collinear`, the set's exact triple
    test on point indices, and `lines`, the one table of which points
    share a line.
    """

    conductor: int
    points: tuple
    provenance: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        pts = tuple(self.points)
        if any(not isinstance(p, CycNum) for p in pts):
            raise ValueError("points must be CycNum values")
        if any(p.conductor != self.conductor for p in pts):
            raise ValueError("every point must carry the declared conductor")
        seen = set()
        for p in pts:
            key = (p.nums, p.den)
            if key in seen:
                raise ValueError(f"points are not distinct: {p!r} repeats")
            seen.add(key)
        # the rules and messages of `serialize.obj_to_pointset`, so what is saved loads
        if not isinstance(self.provenance, dict):
            raise ValueError("provenance must be an object")
        if "name" not in self.provenance:
            raise ValueError("provenance must name the construction")
        if not isinstance(self.provenance["name"], str):
            raise ValueError("provenance name must be a string")
        if not isinstance(self.provenance.get("params", {}), dict):
            raise ValueError("provenance params must be an object")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @cached_property
    def scaled(self) -> tuple:
        """(vecs, den): the points as int coefficient tuples over their
        common denominator den; a point already over den shares its nums."""
        den = math.lcm(*(p.den for p in self.points))
        vecs = tuple(p.nums if p.den == den else tuple(x * (den // p.den) for x in p.nums) for p in self.points)
        return vecs, den

    @cached_property
    def residues(self) -> tuple:
        """(F, G, p): the residues x(omega) and conj(x)(omega) mod p of each
        scaled point x, with (p, omega) = `geometry.residue_field(conductor)`."""
        n = self.conductor
        F, G = geometry.fingerprints(self.scaled[0], n, n)
        return F, G, geometry.residue_field(n)[0]

    @cached_property
    def packs(self) -> list:
        """One Kronecker image per scaled point (`mann.pack_vectors`), deep
        enough for every zero test of at most max(2n, 4) signed points.

        P is additive, so points[b] - points[a] packs to packs[b] - packs[a],
        and a signed sum of that many points vanishes exactly when the same
        sum of their packs does.  Two differences of points are equal exactly when
        packs[b] - packs[a] == packs[d] - packs[c], a zero test of 4 signed
        points, so the graph keys its classification by pack differences.
        The path census makes zero tests of up to 2n signed points (see
        `distgraph._path_census`).  A subset of these points may be handed
        their packs: its zero tests combine no more points than the depth.
        """
        return pack_vectors(self.scaled[0], max(2 * len(self), 4))

    @cached_property
    def collinear(self):
        """The exact triple test collinear(i, j, k) on point indices (see
        `geometry.collinearity`)."""
        return geometry.collinearity(self.scaled[0], self.conductor, *self.residues)

    @cached_property
    def lines(self) -> dict:
        """Each ordered pair of distinct points on a line of three or more
        points -> that line, the ascending tuple of its point indices.
        Anchor i groups by `geometry.lines_through` the later points on no
        found line with i, so each line is found once, in full, from its
        lowest point; the lines come in the order of their lowest points."""
        lines = {}
        for i in range(len(self) - 1):
            later = [j for j in range(i + 1, len(self)) if (i, j) not in lines]
            steps = geometry.lines_through(i, later, *self.residues, partial(self.collinear, i))
            # a line is yielded first as it starts, and is full once steps run out
            for line in [line for line in steps if len(line) == 1]:
                if len(line) > 1:
                    line = (i, *line)
                    lines.update(((a, b), line) for a in line for b in line if a != b)
        return lines


def make_pointset(points, name: str, params: dict, seed: int = 0) -> PointSet:
    """Lift points to their common conductor and wrap them up.

    Plain rationals are accepted alongside CycNum values.
    """
    coerced = []
    for p in points:
        c = CycNum._coerce(p)
        if c is None:
            raise ValueError(f"not a point: {p!r}")
        coerced.append(c)
    conductor = math.lcm(*(c.conductor for c in coerced))
    return PointSet(
        conductor=conductor,
        points=tuple(c.lift(conductor) for c in coerced),
        provenance={"name": name, "params": dict(params)},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# translation doubling
# ---------------------------------------------------------------------------

def _root_candidates():
    """Every root of unity zeta_m^e as its pair (e, m), ordered by order m
    and then exponent e.

    Non-primitive pairs (e, m) are skipped; they denote roots already
    seen at a smaller order, so the acceptance order is unchanged.
    """
    for m in itertools.count(1):
        for e in range(m):
            if math.gcd(e, m) == 1:
                yield e, m


def _translate_union(vecs, n, q, big, prints):
    """The int vectors at conductor big of P + (P + a) and their
    `geometry.fingerprints` at big, or None if that union repeats a point
    or has a collinear triple; P is `vecs` at conductor n, with no
    collinear triple, `prints` its fingerprints into conductor big, and
    the translate a = zeta_big^q.

    Point k < m is x_k and point m + k is x_k + a.  Equal points share
    their residue pair, so only when some pair repeats are the points
    that share it compared exactly.  (The line scan would refuse a repeat
    too, as two equal points are collinear with any third, but only by an
    exact pairing.)  Only triples at an anchor x_i with a translate among
    the other two need a test, and `geometry.lines_through` makes them
    with the lazily lifted exact test.
    """
    p, omega = geometry.residue_field(big)
    m = len(vecs)
    fa, ga = pow(omega, q, p), pow(omega, -q % big, p)
    F = prints[0] + [(f + fa) % p for f in prints[0]]
    G = prints[1] + [(g + ga) % p for g in prints[1]]
    a = _power_sum(((q, 1),), big)
    lifted = {}

    def point(k):
        if k not in lifted:
            x = _map_ints(vecs[k % m], n, big)
            lifted[k] = [s + t for s, t in zip(x, a)] if k >= m else x
        return lifted[k]

    pairs = list(zip(F, G))
    if len(set(pairs)) < 2 * m:
        earlier = {}
        for k, pair in enumerate(pairs):
            same = earlier.setdefault(pair, [])
            if any(point(j) == point(k) for j in same):
                return None
            same.append(k)

    def collinear(i, k, j):  # P has no collinear triple
        return j >= m and geometry.exact_collinear(point(i), point(k), point(j), big)

    for i in range(m):
        lines = geometry.lines_through(i, range(i + 1, 2 * m), F, G, p, partial(collinear, i))
        if any(len(line) > 1 for line in lines):
            return None
    return [point(k) for k in range(2 * m)], (F, G)


def erdos_purdy(levels: int) -> PointSet:
    """Translation doubling starting from {0, 1}.

    Each level picks the first root of unity `a` (in candidate order)
    for which the union P + (P translated by a) repeats no point, so `a`
    is no difference of current points, and has no collinear triple,
    then doubles.  The result has 2^levels points, no three collinear,
    and at least twice the previous number of unit rational-angle pairs
    plus one new unit pair per old point.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if levels > DOUBLING_CAP:
        raise CapExceeded(f"doubling capped at {DOUBLING_CAP} levels, got {levels}")

    conductor = 1
    vecs = [(0,), (1,)]
    prints = {1: geometry.fingerprints(vecs, 1, 1)}  # residues of vecs, by target conductor

    for _ in range(levels - 1):
        for e, m in _root_candidates():
            big = math.lcm(conductor, m)
            if big not in prints:
                prints[big] = geometry.fingerprints(vecs, conductor, big)
            union = _translate_union(vecs, conductor, e * (big // m), big, prints[big])
            if union is not None:
                vecs, union_prints = union
                conductor, prints = big, {big: union_prints}
                break

    points = [_from_ints(conductor, v, 1) for v in vecs]
    return make_pointset(points, "erdos_purdy", {"levels": levels})


# ---------------------------------------------------------------------------
# grids and parallel lines
# ---------------------------------------------------------------------------

def square_grid(rows: int, cols: int, spacing=1) -> PointSet:
    """rows x cols axis-aligned grid with the given rational spacing.

    Points are emitted row-major: the point in row r, column c sits at
    spacing * (c + r * i), with i the fourth root of unity.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    if rows * cols > POINT_BUDGET:
        raise WorkBudgetExceeded(
            rows * cols, POINT_BUDGET,
            f"a grid of {rows * cols} points exceeds the {POINT_BUDGET}-point limit",
        )
    if isinstance(spacing, float):
        raise TypeError("spacing must be an exact rational, not a float")
    s = Fraction(spacing)
    if s <= 0:
        raise ValueError("spacing must be positive")
    p, q = s.numerator, s.denominator
    pts = [_from_ints(4, (c * p, r * p), q) for r in range(rows) for c in range(cols)]
    return PointSet(
        conductor=4,
        points=tuple(pts),
        provenance={"name": "square_grid", "params": {"rows": rows, "cols": cols, "spacing": str(s)}},
        seed=0,
    )


def _rational_stream():
    """Lowest-terms rationals n/d in [0, 1) as (n, d), ordered by d then n."""
    for d in itertools.count(1):
        for n in range(d):
            if math.gcd(n, d) == 1:
                yield n, d


def _lowest(num: int, den: int) -> tuple:
    g = math.gcd(num, den)
    return num // g, den // g


def parallel_lines(lines: int, per_line: int, seed: int = 0) -> PointSet:
    """per_line points on each of `lines` horizontal lines y = 0..lines-1.

    x coordinates are drawn from a fixed enumeration of rationals whose
    start is offset by the seed.  A candidate is rejected when it would
    repeat an x on its own line or sit on a line through two already
    placed points on two distinct other lines, so no three points on
    pairwise distinct lines are ever collinear.
    """
    if lines < 1 or per_line < 1:
        raise ValueError("lines and per_line must be at least 1")
    if lines * per_line > POINT_BUDGET:
        raise WorkBudgetExceeded(
            lines * per_line, POINT_BUDGET,
            f"{lines * per_line} points on parallel lines exceed the {POINT_BUDGET}-point limit",
        )
    # placing line j walks every pair of the j * per_line points before it
    pairs = sum(math.comb(j * per_line, 2) for j in range(lines))
    if pairs > WORK_BUDGET:
        raise WorkBudgetExceeded(
            pairs, WORK_BUDGET,
            f"placing {lines} lines of {per_line} points walks {pairs} point pairs, "
            f"over the {WORK_BUDGET}-pair limit",
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    skip = seed % 997

    placed = []  # (line, n, d) for the point n/d + line * i
    pts = []
    for line in range(lines):
        # lines fill in order, so the points of other lines are all placed
        # already and the x values they block on this line are fixed:
        # x1 + (x2 - x1) (line - l1) / (l2 - l1) with x1 = n1/d1, x2 = n2/d2
        blocked = {
            _lowest(n1 * d2 * (l2 - l1) + (n2 * d1 - n1 * d2) * (line - l1), d1 * d2 * (l2 - l1))
            for i, (l1, n1, d1) in enumerate(placed)
            for l2, n2, d2 in placed[i + 1 :]
            if l1 != l2
        }
        taken_x = set()
        stream = itertools.islice(_rational_stream(), skip, None)
        while len(taken_x) < per_line:
            n, d = x = next(stream)
            if x in taken_x or x in blocked:
                continue
            taken_x.add(x)
            placed.append((line, n, d))
            pts.append(_from_ints(4, (n, line * d), d))

    return PointSet(
        conductor=4,
        points=tuple(pts),
        provenance={"name": "parallel_lines", "params": {"lines": lines, "per_line": per_line}},
        seed=seed,
    )

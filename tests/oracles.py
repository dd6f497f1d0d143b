"""Reference implementations used only by the tests.

Everything here recomputes results along a different route than the
package: arithmetic lives in the full x^n - 1 representation with a
trailing reduction, enumeration is plain brute force with from-scratch
subset checks, and geometry uses cubic triple scans.  Slow on purpose.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count, product
from math import gcd, lcm

import sympy

from cyclolab import CycNum


@lru_cache(maxsize=None)
def phi_coeffs(n: int) -> tuple:
    """Ascending integer coefficients of the n-th cyclotomic polynomial,
    straight from sympy."""
    poly = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x")))
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def reduce_mod_phi(vec, phic) -> tuple:
    """Remainder of the polynomial `vec` (ascending) modulo the monic
    polynomial `phic` (ascending), as a tuple of length deg(phic)."""
    deg = len(phic) - 1
    work = list(vec) + [0] * max(0, deg - len(vec))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j, pc in enumerate(phic[:-1]):
                work[i - deg + j] -= c * pc
    return tuple(work[:deg])


class LongForm:
    """Naive element of Q(zeta_n): a length-n vector over x^n - 1.

    Multiplication is full cyclic convolution; nothing is reduced until
    `reduced` is called.  Used as the arithmetic oracle.
    """

    def __init__(self, n, vec):
        if len(vec) != n:
            raise ValueError("vector length must equal the conductor")
        self.n = n
        self.vec = [Fraction(v) for v in vec]

    @classmethod
    def from_cyc(cls, x: CycNum) -> "LongForm":
        vec = list(x.coeffs) + [Fraction(0)] * (x.conductor - len(x.coeffs))
        return cls(x.conductor, vec)

    @classmethod
    def from_rational(cls, n, q) -> "LongForm":
        vec = [Fraction(0)] * n
        vec[0] = Fraction(q)
        return cls(n, vec)

    @classmethod
    def root(cls, n, e) -> "LongForm":
        vec = [Fraction(0)] * n
        vec[e % n] = Fraction(1)
        return cls(n, vec)

    def add(self, other) -> "LongForm":
        return LongForm(self.n, [a + b for a, b in zip(self.vec, other.vec)])

    def sub(self, other) -> "LongForm":
        return LongForm(self.n, [a - b for a, b in zip(self.vec, other.vec)])

    def neg(self) -> "LongForm":
        return LongForm(self.n, [-a for a in self.vec])

    def mul(self, other) -> "LongForm":
        n = self.n
        out = [Fraction(0)] * n
        for i, a in enumerate(self.vec):
            if not a:
                continue
            for j, b in enumerate(other.vec):
                if b:
                    out[(i + j) % n] += a * b
        return LongForm(n, out)

    def reduced(self) -> tuple:
        return reduce_mod_phi(self.vec, phi_coeffs(self.n))

    def equals_cyc(self, x: CycNum) -> bool:
        if x.conductor != self.n:
            return False
        return self.reduced() == tuple(x.coeffs)


# ---------------------------------------------------------------------------
# brute-force relation enumeration
# ---------------------------------------------------------------------------

def _root_residues(m: int) -> list:
    """x^e mod Phi_m for every e, as integer tuples."""
    phic = phi_coeffs(m)
    out = []
    for e in range(m):
        vec = [0] * m
        vec[e] = 1
        out.append(tuple(int(c) for c in reduce_mod_phi(vec, phic)))
    return out


def canonical_exponents(tup, m) -> tuple:
    """Smallest rotation of an exponent multiset that pins a term at 0."""
    return min(tuple(sorted((e - e0) % m for e in tup)) for e0 in tup)


def brute_unit_vanishing_sums(k: int, m: int) -> set:
    """Canonical exponent tuples of all minimal k-term vanishing sums of
    m-th roots of unity with every coefficient 1.

    Totals are sieved with packed residue vectors, then each surviving
    candidate has all of its proper nonempty subsets re-summed from
    scratch.
    """
    residues = _root_residues(m)
    width = len(residues[0])
    shift = 64
    offset = 1 << 32
    packed = []
    for r in residues:
        acc = 0
        for c in reversed(r):
            acc = (acc << shift) + c + offset
        packed.append(acc)
    zero_total = 0
    for _ in range(width):
        zero_total = (zero_total << shift) + k * offset

    found = set()
    for tup in combinations_with_replacement(range(m), k):
        if sum(packed[e] for e in tup) != zero_total:
            continue
        minimal = True
        for size in range(1, k):
            for sub in combinations(range(k), size):
                total = [0] * width
                for i in sub:
                    r = residues[tup[i]]
                    total = [a + b for a, b in zip(total, r)]
                if not any(total):
                    minimal = False
                    break
            if not minimal:
                break
        if minimal:
            found.add(canonical_exponents(tup, m))
    return found


def brute_vanishing_sums_with_coeffs(k: int, m: int, coeff_set) -> set:
    """Canonical ((exponent, coeff), ...) tuples of all minimal k-term
    vanishing sums over mu_m with coefficients from coeff_set.  Feasible
    only for very small m and k."""
    residues = _root_residues(m)
    width = len(residues[0])
    cs = sorted({Fraction(c) for c in coeff_set})
    items = [(e, c) for e in range(m) for c in cs]
    found = set()
    for tup in combinations_with_replacement(range(len(items)), k):
        vecs = [
            tuple(items[i][1] * r for r in residues[items[i][0]]) for i in tup
        ]
        total = [0] * width
        for v in vecs:
            total = [a + b for a, b in zip(total, v)]
        if any(total):
            continue
        minimal = True
        for size in range(1, k):
            for sub in combinations(range(k), size):
                s = [0] * width
                for i in sub:
                    s = [a + b for a, b in zip(s, vecs[i])]
                if not any(s):
                    minimal = False
                    break
            if not minimal:
                break
        if not minimal:
            continue
        entries = tuple(items[i] for i in tup)
        best = min(
            tuple(sorted(((e - e0) % m, c) for e, c in entries))
            for e0, _ in entries
        )
        found.add(best)
    return found


def brute_target_relations(avec, k: int, m: int, coeff_set) -> set:
    """Ordered exponent tuples of minimal k-term representations of a
    target over mu_m; `avec` is the target reduced mod Phi_m (tuple).

    Every ordered tuple in range(m)^k is tried with every coefficient
    assignment; subsets are re-summed from scratch.
    """
    residues = _root_residues(m)
    width = len(residues[0])
    cs = sorted({Fraction(c) for c in coeff_set})
    found = set()
    for exps in product(range(m), repeat=k):
        for coeffs in product(cs, repeat=k):
            vecs = [
                tuple(c * r for r in residues[e]) for e, c in zip(exps, coeffs)
            ]
            total = [Fraction(0)] * width
            for v in vecs:
                total = [a + b for a, b in zip(total, v)]
            if tuple(total) != tuple(avec):
                continue
            minimal = True
            for size in range(1, k):
                for sub in combinations(range(k), size):
                    s = [Fraction(0)] * width
                    for i in sub:
                        s = [a + b for a, b in zip(s, vecs[i])]
                    if not any(s):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                found.add(exps)
                break
    return found


def brute_term_census(target, k: int, rows) -> set:
    """Ordered k-tuples of indices into `rows` whose rows sum to `target`
    with no nonempty subset of the k rows summing to zero; every sum is
    formed from scratch."""
    def total(chosen):
        return tuple(sum(col) for col in zip(*(rows[i] for i in chosen)))

    found = set()
    for idx in product(range(len(rows)), repeat=k):
        if total(idx) != tuple(target):
            continue
        if all(any(total(sub)) for size in range(1, k + 1) for sub in combinations(idx, size)):
            found.add(idx)
    return found


def first_vanishing_subset(terms):
    """First nonempty proper subset of the LongForm `terms` whose sum
    reduces to zero, as sorted indices, or None.

    Subsets are tried in bit-mask order (index i is bit i), which is the
    order `subsum_vanishes` reports; each sum is formed from scratch.
    """
    k = len(terms)
    n = terms[0].n
    for mask in range(1, 2 ** k - 1):
        idx = tuple(i for i in range(k) if mask >> i & 1)
        s = LongForm(n, [0] * n)
        for i in idx:
            s = s.add(terms[i])
        if not any(s.reduced()):
            return idx
    return None


def verify_minimal_vanishing(t) -> bool:
    """Re-check a RelationTuple's vanishing and minimality claims with
    LongForm sums over every subset, from scratch."""
    n = 1
    for r in t.roots:
        n = lcm(n, r.conductor)
    vecs = []
    for r, c in zip(t.roots, t.coeffs):
        lf = LongForm.from_cyc(r.lift(n))
        vecs.append(LongForm(n, [c * v for v in lf.vec]))
    total = LongForm(n, [0] * n)
    for v in vecs:
        total = total.add(v)
    return not any(total.reduced()) and first_vanishing_subset(vecs) is None


# ---------------------------------------------------------------------------
# geometry oracles
# ---------------------------------------------------------------------------

def is_collinear(p: CycNum, q: CycNum, r: CycNum) -> bool:
    """Exact predicate Im((q - p) * conj(r - p)) == 0."""
    u = (q - p) * (r - p).conj()
    return u == u.conj()


def collinear_triples(points) -> list:
    """Every collinear index triple, by the full cubic scan."""
    n = len(points)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if is_collinear(points[i], points[j], points[k]):
                    out.append((i, j, k))
    return out


def brute_max_collinear(points):
    """(count, sorted members) of the richest line, via pair extension."""
    n = len(points)
    best = 2 if n >= 2 else n
    members = tuple(range(min(n, 2)))
    for i in range(n):
        for j in range(i + 1, n):
            line = [i, j]
            for k in range(n):
                if k != i and k != j and is_collinear(points[i], points[j], points[k]):
                    line.append(k)
            if len(line) > best:
                best = len(line)
                members = tuple(sorted(line))
    return best, members


def greedy_doubling(levels: int):
    """(translations, points) of greedy translation doubling from {0, 1}.

    Each level takes the first root of unity, by order and then exponent,
    that is no difference of current points and leaves the union with its
    translate free of collinear triples, by the full cubic scan.
    """
    pts = [CycNum.zero(), CycNum.one()]
    chosen = []
    for _ in range(levels - 1):
        diffs = [p - q for p, q in product(pts, pts) if p != q]
        hit = next(
            a
            for m in count(1)
            for a in (CycNum(m, r) for r in _root_residues(m))
            if a not in diffs and not collinear_triples(pts + [p + a for p in pts])
        )
        chosen.append(hit)
        pts = pts + [p + hit for p in pts]
    return chosen, pts


def greedy_parallel_lines(lines: int, per_line: int, seed: int) -> list:
    """x coordinates, line by line, of the parallel-lines rule applied
    literally: walk the rationals of [0, 1) by denominator and then
    numerator from offset seed % 997, and take x unless it repeats on its
    line or is collinear with two placed points on two distinct lines
    other than its own."""
    def stream():
        for d in count(1):
            for n in range(d):
                if gcd(n, d) == 1:
                    yield Fraction(n, d)

    placed = []  # (line, CycNum)
    out = []
    for line in range(lines):
        xs = stream()
        for _ in range(seed % 997):
            next(xs)
        row = []
        while len(row) < per_line:
            x = next(xs)
            cand = CycNum(4, (x, line))
            if x in row or any(
                l1 != l2 and line not in (l1, l2) and is_collinear(cand, p, q)
                for (l1, p), (l2, q) in combinations(placed, 2)
            ):
                continue
            row.append(x)
            placed.append((line, cand))
        out.append(row)
    return out


def brute_classify(w: CycNum):
    """(q, e, M) such that w = q * zeta_M^e with q rational positive, or
    None; found by dividing out every candidate root in turn."""
    from cyclolab import root_of_unity

    if w.is_zero():
        raise ValueError("zero input")
    M = lcm(2, w.conductor)
    for e in range(M):
        u = w / root_of_unity(e, M)
        if u.is_rational():
            q = u.as_rational()
            if q > 0:
                return q, e, M
    return None


def norm_classify(w: CycNum):
    """(q, e, M) such that w = q * zeta_M^e with q rational positive, or
    None; q is the square root of the squared modulus w * conj(w), and
    w / q is looked up among all M-th roots of unity."""
    from math import isqrt

    from cyclolab import root_of_unity

    if w.is_zero():
        raise ValueError("zero input")
    M = lcm(2, w.conductor)
    norm = w * w.conj()
    if not norm.is_rational() or norm.as_rational() < 0:
        return None
    sq = norm.as_rational()
    rn, rd = isqrt(sq.numerator), isqrt(sq.denominator)
    if rn * rn != sq.numerator or rd * rd != sq.denominator:
        return None
    q = Fraction(rn, rd)
    u = (w / q).lift(M)
    for e in range(M):
        if root_of_unity(e, M).coeffs == u.coeffs:
            return q, e, M
    return None


def brute_min_conductor(x: CycNum) -> int:
    """Smallest d | n (n the conductor of x) such that x is fixed by every
    zeta -> zeta^t with t = 1 mod d and gcd(t, n) = 1: the conductor of
    the fixed field.  Each image is the exponent-permuted long form,
    reduced mod Phi_n, of x's int numerators."""
    n = x.conductor
    phic = phi_coeffs(n)
    ints = x.nums
    fixed = {}

    def fixes(t):
        if t not in fixed:
            moved = [0] * n
            for j, c in enumerate(ints):
                moved[j * t % n] += c
            fixed[t] = reduce_mod_phi(moved, phic) == ints
        return fixed[t]

    for d in range(1, n + 1):
        if n % d == 0 and all(fixes(t) for t in range(1, n, d) if gcd(t, n) == 1):
            return d
    raise AssertionError("unreachable: d = n is always fixed")


# ---------------------------------------------------------------------------
# path oracle
# ---------------------------------------------------------------------------

def brute_irredundant_walks(g, source: int, k: int, shortest_scope=None):
    """Yield the vertex tuple of each irredundant k-edge walk from source,
    found by enumerating all walks and re-checking every nonempty subset
    of edge vectors.

    With shortest_scope "all" or "neighbors", each step a -> b must also
    be strictly shorter than a -> x for every other vertex x on the line
    through a and b that the walk has not visited, among all vertices or
    among the neighbours of a.  Rivals are found by `is_collinear` and
    squared distances are compared as Fractions, so they must be rational.
    """
    pts = g.pointset.points

    def squared(a, b):
        d = (pts[b] - pts[a]) * (pts[b] - pts[a]).conj()
        if not d.is_rational():
            raise ValueError("the shortest-step oracle needs rational squared distances")
        return d.as_rational()

    def shortest(prefix, b):
        a = prefix[-1]
        scope = range(len(pts)) if shortest_scope == "all" else g.adjacency[a]
        return all(
            squared(a, x) > squared(a, b)
            for x in scope
            if x != b and x not in prefix and is_collinear(pts[a], pts[b], pts[x])
        )

    def all_walks(prefix):
        if len(prefix) == k + 1:
            yield tuple(prefix)
            return
        for u in g.adjacency[prefix[-1]]:
            if shortest_scope is not None and not shortest(prefix, u):
                continue
            prefix.append(u)
            yield from all_walks(prefix)
            prefix.pop()

    zero = CycNum.zero()
    for walk in all_walks([source]):
        vecs = [pts[b] - pts[a] for a, b in zip(walk, walk[1:])]
        ok = True
        for size in range(1, k + 1):
            for sub in combinations(range(k), size):
                total = zero
                for i in sub:
                    total = total + vecs[i]
                if total.is_zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield walk


def brute_path_census(g, source: int, k: int, shortest_scope=None) -> dict:
    """Endpoint -> number of the walks of `brute_irredundant_walks`."""
    counts = {}
    for walk in brute_irredundant_walks(g, source, k, shortest_scope):
        counts[walk[-1]] = counts.get(walk[-1], 0) + 1
    return counts


def brute_noncollinear_two_paths(g):
    """(max count, first pair v < w reaching it, or None) of the 2-paths
    v - m - w with v, m, w not collinear, by `is_collinear` on each."""
    pts = g.pointset.points
    best, witness = 0, None
    for v, w in combinations(range(len(pts)), 2):
        middles = set(g.adjacency[v]) & set(g.adjacency[w])
        count = sum(not is_collinear(pts[v], pts[m], pts[w]) for m in middles)
        if count > best:
            best, witness = count, (v, w)
    return best, witness


# ---------------------------------------------------------------------------
# file reading oracle
# ---------------------------------------------------------------------------

def fraction_rational(s):
    """s as a Fraction when s is a string that Fraction reads and str()
    writes back unchanged, else None."""
    if not isinstance(s, str):
        return None
    try:
        f = Fraction(s)
        return f if str(f) == s else None
    except (ValueError, ZeroDivisionError):
        return None


def fraction_points(conductor: int, rows):
    """The points of a point-set document's rows, each coordinate read by
    `fraction_rational` and each row by the public CycNum constructor;
    None when a row has the wrong length or a coordinate is refused."""
    points = []
    for row in rows:
        if not isinstance(row, list) or len(row) != sympy.totient(conductor):
            return None
        coeffs = [fraction_rational(c) for c in row]
        if None in coeffs:
            return None
        points.append(CycNum(conductor, coeffs))
    return points


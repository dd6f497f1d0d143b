"""Vanishing sums of roots of unity and their certification.

A length-k relation is a tuple of roots of unity with nonzero rational
coefficients and a declared target value.  A relation with target zero is
minimal when no nonempty proper subset of its terms also sums to zero.
For such minimal relations, every ratio of two participating roots has
order dividing the product of the primes up to k (Mann's bound); for two
minimal representations of the same nonzero target, the same conclusion
holds with primes up to the combined length (the extension bound).  Both
bounds are checked exactly on the roots' turns e/M, never by floats.
Every "does some subset sum to zero?" test runs on Kronecker-packed
ints: `pack_vectors` maps each coefficient vector to one Python int so
that the sums it is asked about vanish exactly when the vectors' do.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Optional

from .cyclotomic import (
    CycNum, _as_fraction, _from_ints, _map_ints, _power_sum, _to_int_scaled, _turn, phi, root_of_unity,
)
from .errors import CapExceeded, WorkBudgetExceeded

SUBSUM_CAP = 12
WORK_BUDGET = 10 ** 8
# struct codes of the signed little-endian slots of 1, 2, 4 and 8 bytes
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


# ---------------------------------------------------------------------------
# primes and moduli
# ---------------------------------------------------------------------------

def primes_upto(x) -> list:
    """All primes p <= x, by a byte sieve."""
    n = math.floor(x)
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def _primorial_upto(x) -> int:
    return math.prod(primes_upto(x))


def mann_modulus(k: int) -> int:
    """Product of the primes up to k.

    In a minimal vanishing sum of k roots of unity, every ratio of two of
    the roots has order dividing this number.
    """
    if k < 1:
        raise ValueError("length must be at least 1")
    return _primorial_upto(k)


def extension_modulus(k: int) -> int:
    """Product of the primes up to 2k.

    The ratio bound that applies across two minimal length-k
    representations of the same nonzero target.
    """
    if k < 1:
        raise ValueError("length must be at least 1")
    return _primorial_upto(2 * k)


def relation_count_bound(k: int) -> int:
    """Upper bound (k * extension_modulus(k))^k on the number of minimal
    k-term root-of-unity combinations hitting a fixed nonzero target."""
    if k < 1:
        raise ValueError("length must be at least 1")
    return (k * extension_modulus(k)) ** k


def chebyshev_theta(x) -> float:
    """Sum of log p over primes p <= x (floating value, for reporting)."""
    return float(sum(math.log(p) for p in primes_upto(x)))


def chebyshev_bound_holds(x: int) -> bool:
    """Certified check that theta(x) < 4x log 2.

    Exact equivalence: theta(x) < 4x log 2 iff the product of the primes
    up to x is below 2^(4x), which is a pure integer bit-length test.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return _primorial_upto(x).bit_length() <= 4 * x


def chebyshev_bound_range(lo: int, hi: int):
    """Certified theta(x) < 4x log 2 for every integer x in [lo, hi].

    Returns (True, None) when the bound holds throughout, otherwise
    (False, first failing x).  One incremental primorial is shared by
    the whole sweep.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    prime_set = set(primes_upto(hi))
    prod = _primorial_upto(lo - 1) if lo > 0 else 1
    for x in range(lo, hi + 1):
        if x in prime_set:
            prod *= x
        if prod.bit_length() > 4 * x:
            return False, x
    return True, None


# ---------------------------------------------------------------------------
# subset sums on Kronecker-packed ints
# ---------------------------------------------------------------------------

def pack_vectors(vectors, depth: int) -> list:
    """Kronecker images of equal-length rational vectors, as Python ints.

    All coordinates are scaled by one common denominator to ints, then a
    vector v maps to P(v) = sum(v_i * B**i).  B = 2**(8w) for the fewest
    whole bytes w with B > 2 * depth * M, where M is the largest scaled
    |coordinate|.  P is additive, and a sum of at most `depth` images,
    each signed +1 or -1, is 0 exactly when the same signed sum of the
    vectors is 0: every coordinate of that sum lies below B / 2 in
    absolute value, so its balanced base-B digits are unique.  Callers
    pass as depth the most terms any one of their zero tests combines.

    Each vector's coordinates are written in two's complement into w-byte
    slots, one `struct.pack` call a vector, and read back as one unsigned
    int U.  Every coordinate c has |c| < B / 2, so flipping the top bit of
    its slot gives the slot of c + B / 2: U ^ bias, with bias the sum of
    (B / 2) B**i, is P(v) + bias.  So packing takes time linear in the
    input and holds one vector's bytes at a time.  Vectors of ints are
    packed as they are, with no scaling.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    vectors = list(map(tuple, vectors))
    lengths = sorted(set(map(len, vectors))) or [1]
    if len(lengths) > 1:
        raise ValueError(f"vectors must have equal length, got lengths {', '.join(map(str, lengths))}")
    width = lengths[0]
    if not width:
        raise ValueError("vectors must have at least one coordinate")
    if set(map(type, chain.from_iterable(vectors))) - {int}:
        ints, _ = _to_int_scaled(list(chain.from_iterable(vectors)))
        vectors = [tuple(ints[s : s + width]) for s in range(0, len(ints), width)]
    M = max(map(abs, chain.from_iterable(vectors)), default=0)
    w = max(1, -(-(2 * depth * M).bit_length() // 8))
    code = _SLOT_CODES.get(w)
    if code is None:
        def slots(*v):
            return b"".join([c.to_bytes(w, "little", signed=True) for c in v])
    else:
        slots = struct.Struct(f"<{width}{code}").pack
    bias = int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * width, "little")
    return [(int.from_bytes(slots(*v), "little") ^ bias) - bias for v in vectors]


# ---------------------------------------------------------------------------
# relation tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationTuple:
    """Roots of unity with rational weights summing to a declared target.

    When `minimal` is set, no nonempty proper subset of the weighted
    terms sums to zero; the constructor re-checks that claim.  Both
    checks run on int rows of the roots (`_term_rows`), with no field
    products.  `turns` holds each root zeta_M^e as its turn e/M, read
    once by the constructor; every check and writer of the tuple uses it.
    """

    roots: tuple
    coeffs: tuple
    target: CycNum
    minimal: bool = False
    turns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        roots, coeffs = tuple(self.roots), tuple(self.coeffs)
        if any(isinstance(c, float) for c in coeffs):
            raise ValueError("coefficients must be exact rationals, not floats")
        coeffs = tuple(map(_as_fraction, coeffs))
        target = CycNum._coerce(self.target)
        if target is None:
            raise ValueError("target must be a CycNum or rational")
        if len(roots) != len(coeffs) or not roots:
            raise ValueError("roots and coeffs must be nonempty and equal length")
        if any(c == 0 for c in coeffs):
            raise ValueError("coefficients must be nonzero")
        turns = []
        for r in roots:
            if not isinstance(r, CycNum):
                raise ValueError("roots must be CycNum values")
            turn = _turn(r.conductor, r.nums, r.den)
            if turn is None:
                raise ValueError(f"{r!r} is not a root of unity")
            turns.append(turn)
        rows, conductor, den = _term_rows(turns, coeffs, target.conductor)
        lifted, tden = _map_ints(target.nums, target.conductor, conductor), target.den
        # the rows sum to den * (weighted sum), the target is lifted / tden
        if [tden * x for x in map(sum, zip(*rows))] != [den * x for x in lifted]:
            raise ValueError("weighted sum does not equal the target")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "turns", tuple(turns))
        if self.minimal and _first_vanishing_subset(rows) is not None:
            raise ValueError("tuple marked minimal but a proper subsum vanishes")

    def __len__(self):
        return len(self.roots)


@dataclass(frozen=True)
class MannCertificate:
    """Outcome of the ratio-order check on a minimal vanishing sum."""

    k: int
    modulus: int
    verdict: bool
    witness: Optional[tuple] = None


def _term_rows(turns, coeffs, conductor=1):
    """Terms c * zeta_M^e, given as turns e/M, as the int rows of
    zeta_n^(e n/M) (`_power_sum`), returned with n, the lcm of `conductor`
    and the orders M, and the coefficients' common denominator.  Rows are
    scaled by c times that denominator, so they sum to it times the
    weighted sum.
    """
    n = math.lcm(conductor, *(t.denominator for t in turns))
    scaled, den = _to_int_scaled(coeffs)
    index = [t.numerator * n // t.denominator for t in turns]
    return [_power_sum(((i, s),), n) for i, s in zip(index, scaled)], n, den


def _first_vanishing_subset(rows, cap: int = SUBSUM_CAP):
    """First nonempty proper index subset of `rows` summing to zero, or None.

    Subsets are tried in bit-mask order (index i is bit i): entry mask of
    one table of subset sums is the sum of the rows whose bits mask sets.
    More than `cap` rows are refused.
    """
    k = len(rows)
    if k > cap:
        raise CapExceeded(f"subset scan capped at {cap} terms, got {k}")
    # a tested subset has at most k terms
    sums = [0]
    for v in pack_vectors(rows, k):
        sums += [s + v for s in sums]
    for mask in range(1, len(sums) - 1):
        if not sums[mask]:
            return tuple(i for i in range(k) if mask >> i & 1)
    return None


def subsum_vanishes(t: RelationTuple, cap: int = SUBSUM_CAP):
    """First nonempty proper index subset of t whose weighted sum is zero, as
    sorted indices, or None.  Tuples longer than `cap` are refused."""
    return _first_vanishing_subset(_term_rows(t.turns, t.coeffs)[0], cap)


# ---------------------------------------------------------------------------
# enumeration of minimal vanishing sums
# ---------------------------------------------------------------------------

def _validate_coeff_set(coeff_set):
    coeff_set = tuple(coeff_set)
    if any(isinstance(c, float) for c in coeff_set):
        raise ValueError("coefficients must be exact rationals, not floats")
    cs = sorted({Fraction(c) for c in coeff_set})
    if not cs:
        raise ValueError("coefficient set must be nonempty")
    if any(c == 0 for c in cs):
        raise ValueError("coefficient set must not contain zero")
    return cs


def _charge(k, m, cs, conductor, budget, targets=1):
    """Charge `targets` censuses, each of m * |cs| term vectors of
    phi(conductor) ints and (m * |cs|)^k candidate tuples, before any work;
    above WORK_BUDGET a charge the tuples alone exceed is raised before
    phi factors the conductor by trial division."""
    estimate = targets * (m * len(cs)) ** k
    if conductor <= WORK_BUDGET or estimate <= budget:
        estimate += targets * m * len(cs) * phi(conductor)
    if estimate > budget:
        raise WorkBudgetExceeded(estimate, budget)


def _root_terms(m: int, cs, n: int, scale: int = 1) -> tuple:
    """The terms c * zeta_m^e, for e in range(m) and c in `cs` nested in that
    order, as ((e, c), row) pairs: row holds the ints of zeta_n^(e n/m)
    (m | n) times scale * den * c, with den the common denominator of `cs`.
    Returns (terms, den)."""
    scaled, den = _to_int_scaled(cs)
    return [((e, c), _power_sum(((e * (n // m), scale * s),), n)) for e in range(m) for c, s in zip(cs, scaled)], den


def _canonical_entries(entries, m):
    """Rotation-normal form: smallest sorted tuple of (exponent, coeff)
    pairs over all rotations placing one of the roots at exponent zero."""
    return min(tuple(sorted(((e - e0) % m, c) for e, c in entries)) for e0, _ in entries)


def enumerate_minimal_vanishing_sums(
    k: int, m: int, coeff_set, budget: int = WORK_BUDGET
) -> list:
    """All rotation-normalized minimal vanishing sums of k roots in mu_m.

    Coefficients are drawn (with repetition) from coeff_set.  Two sums
    that differ by multiplying every root with a common m-th root of
    unity are identified; the representative returned has its smallest
    term at exponent zero.  The search prunes any branch whose chosen
    terms already contain a vanishing subset, so emitted tuples are
    minimal by construction.
    """
    if k < 2:
        raise ValueError("need at least two terms")
    if m < 1:
        raise ValueError("modulus must be positive")
    cs = _validate_coeff_set(coeff_set)
    _charge(k, m, cs, m, budget)

    pairs, rows = zip(*_root_terms(m, cs, m)[0])
    # one positive scale for all terms keeps every zero test, and each
    # test combines at most the k terms of one candidate
    values = pack_vectors(rows, k)

    closers = {}
    for idx, v in enumerate(values):
        closers.setdefault(v, []).append(idx)
    chosen = []
    found = set()

    def extend(min_idx, stop, remaining, pos, total):
        # pos holds the sums of all subsets of the chosen terms and total
        # the sum of them all; v makes a nonempty subset vanish iff
        # total + v = sum(U) for some subset U, i.e. total + v is in pos
        if remaining == 1:
            # a closing term leaves no vanishing proper subset: a proper
            # subset of the chosen terms plus it sums to minus the rest,
            # which no chosen subset does
            for idx in closers.get(-total, ()):
                if idx >= min_idx:
                    entries = tuple(pairs[i] for i in chosen) + (pairs[idx],)
                    found.add(_canonical_entries(entries, m))
            return
        for idx in range(min_idx, stop):
            v = values[idx]
            if total + v in pos:
                continue
            chosen.append(idx)
            extend(idx, len(pairs), remaining - 1, pos.union([q + v for q in pos]), total + v)
            chosen.pop()

    # the pivot term is at exponent zero, one of the first len(cs) pairs;
    # the other terms follow in sorted order
    extend(0, len(cs), k, frozenset((0,)), 0)

    zero = CycNum.zero()
    return [
        RelationTuple(
            roots=tuple(root_of_unity(e, m) for e, _ in entries),
            coeffs=tuple(c for _, c in entries),
            target=zero,
            minimal=True,
        )
        for entries in sorted(found)
    ]


def certify_mann(t: RelationTuple) -> MannCertificate:
    """Check Mann's ratio bound on a minimal vanishing sum.

    For every pair of roots in the tuple, the ratio must satisfy
    ratio^m = 1 with m = mann_modulus(k).  The verdict is False with the
    offending index pair as witness when some ratio has larger order.
    """
    if not isinstance(t, RelationTuple):
        raise ValueError("certify_mann expects a RelationTuple")
    if not t.target.is_zero():
        raise ValueError("not a minimal vanishing sum: target is nonzero")
    if not t.minimal:
        raise ValueError("not a minimal vanishing sum: minimality not established")
    k = len(t)
    m = mann_modulus(k)
    turns = t.turns
    for i in range(k):
        for j in range(i + 1, k):
            # the ratio turns by t_i - t_j, so its order divides m iff
            # m whole ratios make whole turns
            if ((turns[i] - turns[j]) * m).denominator != 1:
                return MannCertificate(k=k, modulus=m, verdict=False, witness=(i, j))
    return MannCertificate(k=k, modulus=m, verdict=True, witness=None)


# ---------------------------------------------------------------------------
# minimal representations of a nonzero target
# ---------------------------------------------------------------------------

def enumerate_target_relations(
    target, k: int, m: int, coeff_set, budget: int = WORK_BUDGET
) -> list:
    """Minimal k-term representations of a nonzero target over mu_m.

    Each result is an ordered tuple of k roots from mu_m with
    coefficients from coeff_set whose weighted sum equals the target and
    no nonempty proper subsum vanishes.  Root tuples are recorded once,
    with the first coefficient witness found; no rotation normalization
    applies because the target pins the phase.
    """
    a = CycNum._coerce(target)
    if a is None:
        raise ValueError("target must be a CycNum or rational")
    if a.is_zero():
        raise ValueError("target must be nonzero")
    if k < 1:
        raise ValueError("length must be at least 1")
    if m < 1:
        raise ValueError("modulus must be positive")
    cs = _validate_coeff_set(coeff_set)
    n = math.lcm(a.conductor, m)
    _charge(k, m, cs, n, budget)
    # the row den * nums is den * a.den times the target, as are the terms' rows at scale a.den
    terms, den = _root_terms(m, cs, n, a.den)
    return _relations(a, m, _target_census([[den * x for x in _map_ints(a.nums, a.conductor, n)]], k, terms)[0])


def _relations(target, m: int, found) -> list:
    """The minimal RelationTuples of a census `found` over mu_m, sorted by
    exponents; each constructor re-checks its sum and minimality."""
    return [
        RelationTuple(tuple(root_of_unity(e, m) for e in exps), found[exps], target, minimal=True)
        for exps in sorted(found)
    ]


def _target_census(targets, k: int, terms) -> list:
    """The minimal k-term representations by `terms` of each of several
    nonzero targets, found by one prefix search.

    Targets are int rows and `terms` (label, int row) pairs, all at one
    conductor and one positive scale.  The (k-1)-term prefixes do not
    depend on the target, so each prefix closes every target by lookups:
    of each distinct target's residual among the closing values, or, when
    the distinct targets outnumber the distinct closing values, of each
    closing value plus the prefix sum among the targets.  Nothing is
    charged here.  Returns one dict per target, in order, mapping the tuple
    of the chosen labels' first entries to the tuple of their second
    entries found first; `_relations` builds the RelationTuples.
    """
    labels, rows = zip(*terms)
    # the closing test combines a target, k - 1 prefix terms and the last term
    packs = pack_vectors([*targets, *rows], k + 1)
    apacks, tpacks = packs[: len(targets)], packs[len(targets) :]
    # terms with equal values share a closing list; each closes with its own
    # label, so the list order does not change the recorded witnesses
    closing = {}
    for label, p in zip(labels, tpacks):
        closing.setdefault(p, []).append(label)

    founds = [{} for _ in targets]
    # a prefix closes a target by at most one closing value, so both lookup
    # directions record the same items in the same order
    by_pack = {}
    for apack, found in zip(apacks, founds):
        by_pack.setdefault(apack, []).append(found)
    by_closing = len(by_pack) > len(closing)
    prefix = []

    def record(pos, total, residual, last, hits):
        # any proper subset containing the last term would sum to zero
        # iff -residual already occurs among the prefix subset sums
        if total + residual in pos:
            return
        exps = tuple(e0 for e0, _ in prefix)
        cos = tuple(c0 for _, c0 in prefix)
        for found in hits:
            for e, c in last:
                found.setdefault(exps + (e,), cos + (c,))

    def extend(depth, pos, total):
        # pos holds the prefix subset sums and total the prefix sum, as in
        # enumerate_minimal_vanishing_sums
        if depth == k - 1:
            if by_closing:
                for residual, last in closing.items():
                    hits = by_pack.get(total + residual)
                    if hits is not None:
                        record(pos, total, residual, last, hits)
            else:
                for apack, hits in by_pack.items():
                    last = closing.get(apack - total)
                    if last is not None:
                        record(pos, total, apack - total, last, hits)
            return
        for label, v in zip(labels, tpacks):
            if total + v in pos:
                continue
            prefix.append(label)
            extend(depth + 1, pos.union([q + v for q in pos]), total + v)
            prefix.pop()

    extend(0, frozenset((0,)), 0)
    return founds


def charge_target_scan(k: int, m: int, coeff_set, budget: int = WORK_BUDGET):
    """Charge a whole two-term target scan against the budget, before any work.

    The scan censuses at most m(m+1)/2 * |cs|^2 targets in Q(zeta_m).
    Returns the charged scan: a function of no arguments that runs it and
    returns what `two_term_target_scan` does, so a caller can fail fast
    and run the scan later without charging it again.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    coeff_set = tuple(coeff_set)
    cs = _validate_coeff_set(coeff_set)
    _charge(k, m, cs, m, budget, m * (m + 1) // 2 * len(cs) ** 2)
    return partial(_two_term_scan, k, m, coeff_set, cs)


def two_term_target_scan(k: int, m: int, coeff_set, budget: int = WORK_BUDGET):
    """Census every nonzero two-term target c1*z^e1 + c2*z^e2 over mu_m.

    Targets are swept with e1, c1, e2 >= e1, c2 nested in that order and
    kept once each; the witness is the first target reaching the largest
    census.  The whole scan is charged against the budget once, up
    front, and one enumeration censuses every target.  Each target's
    representations are counted; RelationTuples, which re-check every
    sum and minimality claim, are built for the witness target only.  A
    wrong count can reach the output only by making its target the
    witness, so that check covers the result.  Returns (worst, str of
    the witness target or None, number of targets).
    """
    return charge_target_scan(k, m, coeff_set, budget)()


def _two_term_scan(k: int, m: int, coeff_set: tuple, cs: list):
    """The scan of `two_term_target_scan`, once charged."""
    if k < 1:
        raise ValueError("length must be at least 1")
    terms, den = _root_terms(m, cs, m)
    row = dict(terms)
    # each exponent's term rows in the user's coefficient order
    sweep = [[row[e, c] for c in map(Fraction, coeff_set)] for e in range(m)]
    sums = dict.fromkeys(
        tuple(x + y for x, y in zip(r1, r2))
        for e1 in range(m) for r1 in sweep[e1] for e2 in range(e1, m) for r2 in sweep[e2]
    )
    targets = [key for key in sums if any(key)]
    founds = _target_census(targets, k, terms)
    # the first target with the largest census
    i = max(range(len(targets)), key=lambda i: len(founds[i]))
    if not founds[i]:
        return 0, None, len(targets)
    a = _from_ints(m, targets[i], den)
    _relations(a, m, founds[i])
    return len(founds[i]), str(a), len(targets)


def certify_extension(t1: RelationTuple, t2: RelationTuple):
    """Ratio check across two minimal representations of one nonzero target.

    With m the product of the primes up to len(t1) + len(t2), every root
    of t2 must satisfy (root2 / root1)^m = 1 against some root of t1.
    Returns (verdict, witness) where witness maps each index of t2 to
    the first matching index of t1.
    """
    for t in (t1, t2):
        if not isinstance(t, RelationTuple):
            raise ValueError("certify_extension expects RelationTuples")
        if not t.minimal:
            raise ValueError("both tuples must be minimal")
    if t1.target.is_zero():
        raise ValueError("target must be nonzero")
    if t1.target != t2.target:
        raise ValueError("targets differ")
    m = _primorial_upto(len(t1) + len(t2))
    witness = {}
    for j, turn2 in enumerate(t2.turns):
        for i, turn1 in enumerate(t1.turns):
            if ((turn2 - turn1) * m).denominator == 1:
                witness[j] = i
                break
        else:
            return False, witness
    return True, witness

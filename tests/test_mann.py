"""Vanishing-sum enumeration, certification, and the counting bounds."""

import math
import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclolab import (
    CapExceeded,
    CycNum,
    RelationTuple,
    WorkBudgetExceeded,
    build_graph,
    certify_extension,
    certify_mann,
    chebyshev_bound_holds,
    chebyshev_bound_range,
    chebyshev_theta,
    enumerate_minimal_vanishing_sums,
    enumerate_target_relations,
    extension_modulus,
    mann_modulus,
    pack_vectors,
    primes_upto,
    relation_count_bound,
    root_of_unity,
    subsum_vanishes,
    two_term_target_scan,
)

import oracles
from test_pointsets import _shifted_grid

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# primes and moduli
# ---------------------------------------------------------------------------

def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10 ** 4)) == 1229


def test_moduli_values():
    assert [mann_modulus(k) for k in (1, 2, 3, 4, 5, 6, 7)] == [
        1, 2, 6, 6, 30, 30, 210,
    ]
    assert extension_modulus(1) == 2
    assert extension_modulus(2) == 6
    assert extension_modulus(3) == 30
    assert extension_modulus(5) == 210


def test_relation_count_bound_values():
    assert relation_count_bound(1) == 2
    assert relation_count_bound(2) == 144
    assert relation_count_bound(3) == 90 ** 3
    with pytest.raises(ValueError):
        relation_count_bound(0)
    with pytest.raises(ValueError):
        mann_modulus(0)
    with pytest.raises(ValueError):
        extension_modulus(-1)


def test_chebyshev_theta_and_bound():
    import math

    assert chebyshev_theta(1) == 0.0
    assert abs(chebyshev_theta(2) - math.log(2)) < 1e-12
    assert abs(chebyshev_theta(10) - sum(math.log(p) for p in (2, 3, 5, 7))) < 1e-12
    assert chebyshev_bound_holds(2)
    assert chebyshev_bound_holds(1)
    ok, first = chebyshev_bound_range(2, 1000)
    assert ok and first is None
    with pytest.raises(ValueError):
        chebyshev_bound_range(5, 4)
    with pytest.raises(ValueError):
        chebyshev_bound_holds(-1)


def test_chebyshev_certificate_is_integer_based():
    # primorial(x) < 2^(4x) is the exact form of theta(x) < 4x log 2
    prod = 1
    for p in primes_upto(100):
        prod *= p
    assert chebyshev_bound_holds(100) == (prod.bit_length() <= 400)


def test_relations_need_no_powers_or_root_lists(monkeypatch, tmp_path):
    from cyclolab import cyclotomic, mann, serialize

    def refuse(*args):
        raise AssertionError("root of unity decided by field arithmetic")

    # every root-of-unity decision is a lookup, not a power or a root list
    monkeypatch.setattr(CycNum, "__pow__", refuse)
    monkeypatch.setattr(cyclotomic, "unit_roots", refuse)
    monkeypatch.setattr(mann, "unit_roots", refuse, raising=False)
    rels = enumerate_minimal_vanishing_sums(3, 12, (ONE, -ONE))
    assert rels and all(certify_mann(t).verdict for t in rels)
    hits = enumerate_target_relations(root_of_unity(1, 12) + 1, 2, 12, (ONE,))
    assert len(hits) == 2
    assert certify_extension(hits[0], hits[1]) == (True, {0: 1, 1: 0})
    third = RelationTuple(
        roots=tuple(root_of_unity(e, 3) for e in range(3)),
        coeffs=(ONE, ONE, ONE),
        target=CycNum.zero(),
        minimal=True,
    )
    serialize.save_relations(tmp_path / "rel.json", rels + hits + [third])
    assert serialize.load_relations(tmp_path / "rel.json") == rels + hits + [third]


def test_relation_checks_make_no_field_products(monkeypatch, tmp_path):
    from cyclolab import mann, serialize

    def refuse(*args):
        raise AssertionError("relation checked by field arithmetic")

    target = root_of_unity(1, 12) + 1
    # relations are checked, and targets swept, on int rows of the root table
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "lift"):
        monkeypatch.setattr(CycNum, name, refuse)
    half = Fraction(1, 2)
    assert mann.two_term_target_scan(2, 6, (1, -1, 2, -2, half, -half)) == (24, "1 + z6", 108)
    rels = enumerate_minimal_vanishing_sums(3, 12, (ONE, -ONE))
    hits = enumerate_target_relations(target, 2, 12, (ONE,))
    assert len(rels) == 4 and len(hits) == 2
    third = RelationTuple(
        roots=tuple(root_of_unity(e, 3) for e in range(3)),
        coeffs=(ONE, ONE, ONE),
        target=CycNum.zero(),
        minimal=True,
    )
    serialize.save_relations(tmp_path / "rel.json", rels + hits + [third])
    loaded = serialize.load_relations(tmp_path / "rel.json")
    # comparing roots saved at another conductor lifts them
    monkeypatch.undo()
    assert loaded == rels + hits + [third]


_PACK_COORDS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))


@given(
    st.lists(st.tuples(_PACK_COORDS, _PACK_COORDS), min_size=1, max_size=6),
    st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_pack_vectors_zero_iff_vector_sum_zero(vectors, depth):
    from itertools import combinations, product

    packed = pack_vectors(vectors, depth)
    assert len(packed) == len(vectors)
    # every selection of at most depth vectors, each signed +1 or -1
    for size in range(1, min(depth, len(vectors)) + 1):
        for picked in combinations(range(len(vectors)), size):
            for signs in product((1, -1), repeat=size):
                vector_sum = [
                    sum(sign * Fraction(vectors[i][axis]) for i, sign in zip(picked, signs))
                    for axis in range(2)
                ]
                packed_sum = sum(sign * packed[i] for i, sign in zip(picked, signs))
                assert (packed_sum == 0) == (vector_sum == [0, 0])


@pytest.mark.parametrize(
    "vectors, depth, message",
    [
        ([(1, 2), (3, 4)], 0, "^depth must be at least 1$"),
        ([(1, 2), (3, 0, 0)], 1, "^vectors must have equal length, got lengths 2, 3$"),
        ([(1, 2), (3,)], 1, "^vectors must have equal length, got lengths 1, 2$"),
        ([()], 1, "^vectors must have at least one coordinate$"),
    ],
    ids=["depth-0", "longer", "shorter", "no-coordinate"],
)
def test_pack_vectors_refuses_bad_input(vectors, depth, message):
    with pytest.raises(ValueError, match=message):
        pack_vectors(vectors, depth)


def test_pack_vectors_takes_ints_unscaled(monkeypatch):
    from cyclolab import mann

    vectors = [(3, -1, 0), (0, 2, -7), (5, 0, 1)]
    as_fractions = pack_vectors([tuple(map(Fraction, v)) for v in vectors], 3)

    def no_scaling(coeffs):
        raise AssertionError("ints were scaled")

    monkeypatch.setattr(mann, "_to_int_scaled", no_scaling)
    assert pack_vectors(vectors, 3) == as_fractions


# ---------------------------------------------------------------------------
# relation tuples and subsum scanning
# ---------------------------------------------------------------------------

def fifth_roots_relation():
    roots = tuple(root_of_unity(e, 5) for e in range(5))
    return RelationTuple(
        roots=roots, coeffs=(ONE,) * 5, target=CycNum.zero(), minimal=True
    )


def test_relation_tuple_validation():
    with pytest.raises(ValueError, match="nonempty and equal length"):
        RelationTuple(roots=(), coeffs=(), target=CycNum.zero())
    with pytest.raises(ValueError, match="must be nonzero"):
        RelationTuple(
            roots=(CycNum.one(),), coeffs=(Fraction(0),), target=CycNum.zero()
        )
    with pytest.raises(ValueError, match="exact rationals, not floats"):
        RelationTuple(roots=(CycNum.one(),), coeffs=(0.5,), target=CycNum.one())
    with pytest.raises(ValueError, match="^target must be a CycNum or rational$"):
        RelationTuple(roots=(CycNum.one(),), coeffs=(ONE,), target="x")
    with pytest.raises(ValueError, match=r"^CycNum\(1, \[2\]\) is not a root of unity$"):
        # 2 is not a root of unity
        RelationTuple(roots=(CycNum.from_rational(2),), coeffs=(ONE,), target=2)
    with pytest.raises(ValueError, match=r"^CycNum\(1, \[0\]\) is not a root of unity$"):
        RelationTuple(roots=(CycNum.zero(),), coeffs=(ONE,), target=0)
    # roots are checked one at a time, type before value
    with pytest.raises(ValueError, match=r"^CycNum\(1, \[2\]\) is not a root of unity$"):
        RelationTuple(roots=(CycNum.from_rational(2), 1), coeffs=(ONE, ONE), target=3)
    with pytest.raises(ValueError, match="^roots must be CycNum values$"):
        RelationTuple(roots=(CycNum.one(), 1, CycNum.from_rational(2)), coeffs=(ONE,) * 3, target=4)
    with pytest.raises(ValueError, match="^weighted sum does not equal the target$"):
        # declared sum does not match
        RelationTuple(roots=(CycNum.one(),), coeffs=(ONE,), target=CycNum.zero())
    with pytest.raises(ValueError, match="^tuple marked minimal but a proper subsum vanishes$"):
        RelationTuple(
            roots=(CycNum.one(), CycNum.from_rational(-1), CycNum.one(), CycNum.from_rational(-1)),
            coeffs=(ONE,) * 4,
            target=0,
            minimal=True,
        )
    with pytest.raises(CapExceeded, match="^subset scan capped at 12 terms, got 13$"):
        RelationTuple(
            roots=tuple(root_of_unity(e, 13) for e in range(13)),
            coeffs=(ONE,) * 13,
            target=CycNum.zero(),
            minimal=True,
        )


def _turn_probes():
    z12 = root_of_unity(1, 12)
    yield from (root_of_unity(e, n) for n in (1, 3, 5, 12) for e in range(n))
    # roots lifted to a conductor above their order
    yield from (root_of_unity(e, 3).lift(12) for e in range(3))
    yield from (root_of_unity(e, 5).lift(10) for e in range(5))
    # scaled roots and sums that are not roots of unity
    yield from (z12 * 2, z12 * Fraction(1, 2), z12 + 1, CycNum.from_rational(2))
    yield root_of_unity(2, 5) * -3


def test_root_turn_cache_matches_brute_classify():
    from cyclolab import cyclotomic

    cyclotomic._turn.cache_clear()
    for _ in range(2):
        # the second sweep is answered from the cache
        for r in _turn_probes():
            brute = oracles.brute_classify(r)
            want = Fraction(brute[1], brute[2]) if brute and brute[0] == 1 else None
            assert cyclotomic._turn(r.conductor, r.nums, r.den) == want, r
    assert cyclotomic._turn.cache_info().hits > 0


def test_cached_non_root_still_refused():
    from cyclolab import cyclotomic

    half = root_of_unity(1, 12) * Fraction(1, 2)
    for _ in range(2):
        # the second refusal reads the cached None
        assert cyclotomic._turn(half.conductor, half.nums, half.den) is None
        message = r"^CycNum\(12, \[0, 1/2, 0, 0\]\) is not a root of unity$"
        with pytest.raises(ValueError, match=message):
            RelationTuple(roots=(half,), coeffs=(ONE,), target=half)


def test_relation_turns_match_brute_classify():
    for r in _turn_probes():
        brute = oracles.brute_classify(r)
        if brute and brute[0] == 1:
            t = RelationTuple(roots=(r,), coeffs=(ONE,), target=r)
            assert t.turns == (Fraction(brute[1], brute[2]),), r
        else:
            with pytest.raises(ValueError, match="is not a root of unity$"):
                RelationTuple(roots=(r,), coeffs=(ONE,), target=r)


def test_relation_turns_are_read_once(monkeypatch):
    from cyclolab import cyclotomic, mann, serialize

    rels = enumerate_minimal_vanishing_sums(3, 12, (ONE, -ONE))
    hits = enumerate_target_relations(root_of_unity(1, 12) + 1, 2, 12, (ONE,))
    loose = RelationTuple(
        roots=(CycNum.one(), CycNum.from_rational(-1), root_of_unity(1, 4)),
        coeffs=(ONE, ONE, ONE),
        target=root_of_unity(1, 4),
    )

    def results():
        return (
            [certify_mann(t) for t in rels],
            certify_extension(hits[0], hits[1]),
            [subsum_vanishes(t) for t in rels + hits + [loose]],
            serialize.canonical_json(serialize.relations_to_obj(rels + hits + [loose])),
        )

    before = results()
    assert before[2][-1] == (0, 1)

    def refuse(*args):
        raise AssertionError("a root read as a turn after construction")

    monkeypatch.setattr(cyclotomic, "_turn", refuse)
    monkeypatch.setattr(mann, "_turn", refuse, raising=False)
    assert results() == before


def test_relation_tuple_minimal_flag_rechecked():
    roots = (CycNum.one(), CycNum.from_rational(-1), root_of_unity(1, 4))
    coeffs = (ONE, ONE, ONE)
    target = root_of_unity(1, 4)
    # fine without the flag, rejected with it: terms 0 and 1 cancel
    RelationTuple(roots=roots, coeffs=coeffs, target=target)
    with pytest.raises(ValueError):
        RelationTuple(roots=roots, coeffs=coeffs, target=target, minimal=True)


def test_subsum_vanishes_finds_first_subset():
    roots = (CycNum.one(), CycNum.from_rational(-1), root_of_unity(1, 4))
    t = RelationTuple(roots=roots, coeffs=(ONE,) * 3, target=root_of_unity(1, 4))
    assert subsum_vanishes(t) == (0, 1)
    assert subsum_vanishes(fifth_roots_relation()) is None


_REL_COEFFS = st.sampled_from((ONE, -ONE, Fraction(2), Fraction(1, 2), Fraction(-3, 4)))
# (order M, exponent, lift factor, coefficient); a root of order 1 or 2
# with lift factor 1 is given as +-1 at conductor 1
_REL_TERM = st.tuples(
    st.sampled_from((1, 2, 3, 4, 5, 6)), st.integers(0, 59), st.sampled_from((1, 2)), _REL_COEFFS
)
# a lone term, a term with its negation, or c times every root of order 3 or 5
_REL_BLOCK = st.one_of(
    _REL_TERM.map(lambda t: [t]),
    _REL_TERM.map(lambda t: [t, (t[0], t[1], 3 - t[2], -t[3])]),
    st.tuples(st.sampled_from((3, 5)), st.sampled_from((1, 2)), _REL_COEFFS).map(
        lambda b: [(b[0], e, b[1], b[2]) for e in range(b[0])]
    ),
)


def _rel_root(order, e, lift):
    if order <= 2 and lift == 1:
        return CycNum.from_rational((-1) ** (e % order))
    return root_of_unity(e, order).lift(order * lift)


@given(
    st.lists(_REL_BLOCK, min_size=1, max_size=3).map(lambda bs: [t for b in bs for t in b]),
    st.randoms(use_true_random=False),
    st.sampled_from(("sum", "rational", "drop", "extra")),
    _REL_TERM,
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_relation_checks_match_longform_sums(terms, rng, mode, extra, minimal):
    from math import lcm

    assume(len(terms) <= 6)
    rng.shuffle(terms)
    roots = tuple(_rel_root(order, e, lift) for order, e, lift, _ in terms)
    coeffs = tuple(c for *_, c in terms)
    n = lcm(*(order * lift for order, _, lift, _ in terms + [extra]))

    def longform(order, e, lift, c):
        return oracles.LongForm(n, [c * v for v in oracles.LongForm.root(n, e * n // order).vec])

    parts = [longform(*t) for t in terms]
    total = oracles.LongForm(n, [0] * n)
    for part in parts:
        total = total.add(part)
    value = CycNum.zero()
    for r, c in zip(roots, coeffs):
        value = value + r * c
    if mode == "sum":
        target, target_lf = value, total
    elif mode == "rational":
        # a rational sum descends to conductor 1, so odd root orders meet
        # an odd common conductor
        q = value.as_rational() if value.is_rational() else coeffs[0]
        target, target_lf = CycNum.from_rational(q), oracles.LongForm.from_rational(n, q)
    elif mode == "drop":
        target, target_lf = value - roots[-1] * coeffs[-1], total.sub(parts[-1])
    else:
        target = value + _rel_root(*extra[:3]) * extra[3]
        target_lf = total.add(longform(*extra))
    first = oracles.first_vanishing_subset(parts)
    expected = target_lf.reduced() == total.reduced() and not (minimal and first is not None)
    try:
        RelationTuple(roots=roots, coeffs=coeffs, target=target, minimal=minimal)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
    assert subsum_vanishes(RelationTuple(roots=roots, coeffs=coeffs, target=value)) == first


def test_subsum_cap():
    roots = tuple(root_of_unity(e, 16) for e in range(16))
    total = CycNum.zero()
    for r in roots:
        total = total + r
    t = RelationTuple(roots=roots, coeffs=(ONE,) * 16, target=total)
    with pytest.raises(CapExceeded):
        subsum_vanishes(t, cap=8)


def test_relation_len():
    assert len(fifth_roots_relation()) == 5


# ---------------------------------------------------------------------------
# enumeration of minimal vanishing sums
# ---------------------------------------------------------------------------

def _entries(t, m):
    """The (exponent, coeff) pairs of a relation over mu_m, in term order."""
    return tuple((int(turn * m), c) for turn, c in zip(t.turns, t.coeffs))


def test_enumerate_unit_m12():
    rels = enumerate_minimal_vanishing_sums(2, 12, (ONE,))
    assert len(rels) == 1
    (t,) = rels
    assert t.roots == (CycNum.one().lift(12), root_of_unity(6, 12))
    assert t.minimal and t.target.is_zero()


def test_enumerate_pm_one_m1():
    rels = enumerate_minimal_vanishing_sums(2, 1, (ONE, -ONE))
    assert len(rels) == 1
    (t,) = rels
    assert t.coeffs == (-ONE, ONE) or t.coeffs == (ONE, -ONE)


def test_enumerate_requires_two_terms():
    with pytest.raises(ValueError):
        enumerate_minimal_vanishing_sums(1, 12, (ONE,))
    with pytest.raises(ValueError):
        enumerate_minimal_vanishing_sums(2, 0, (ONE,))
    with pytest.raises(ValueError):
        enumerate_minimal_vanishing_sums(2, 12, ())
    with pytest.raises(ValueError):
        enumerate_minimal_vanishing_sums(2, 12, (Fraction(0), ONE))


def test_enumerate_budget():
    with pytest.raises(WorkBudgetExceeded) as exc:
        enumerate_minimal_vanishing_sums(3, 100, (ONE,), budget=10)
    # 100^3 candidate tuples plus 100 term vectors of phi(100) = 40 coefficients
    assert exc.value.estimate == 100 ** 3 + 100 * 40
    assert exc.value.budget == 10
    assert "raise the budget" in str(exc.value)


@pytest.mark.parametrize(
    "k,m,coeffs",
    [
        (2, 6, (ONE,)),
        (2, 8, (ONE, -ONE)),
        (3, 6, (ONE,)),
        (3, 9, (ONE,)),
        (2, 5, (ONE, Fraction(2))),
        (3, 4, (ONE, -ONE, Fraction(1, 2))),
        # the subset sums of the chosen terms pass three and four levels down
        (4, 6, (ONE, Fraction(2))),
        (5, 10, (ONE,)),
    ],
)
def test_enumerate_matches_brute_oracle(k, m, coeffs):
    rels = enumerate_minimal_vanishing_sums(k, m, coeffs)
    brute = oracles.brute_vanishing_sums_with_coeffs(k, m, coeffs)
    # each relation comes back in the oracle's rotation-normal form, once
    assert [_entries(t, m) for t in rels] == sorted(brute)
    for t in rels:
        assert oracles.verify_minimal_vanishing(t)


def test_enumerate_unit_counts_match_oracle_small():
    for k, m in ((2, 12), (3, 12), (4, 12), (2, 30), (3, 30)):
        rels = enumerate_minimal_vanishing_sums(k, m, (ONE,))
        brute = oracles.brute_unit_vanishing_sums(k, m)
        assert len(rels) == len(brute), (k, m)


def test_enumerated_tuples_certify():
    for k, m in ((2, 12), (3, 12), (3, 30)):
        for t in enumerate_minimal_vanishing_sums(k, m, (ONE,)):
            cert = certify_mann(t)
            assert cert.verdict, (k, m, t)
            assert cert.modulus == mann_modulus(len(t))


def test_certify_errors():
    t = fifth_roots_relation()
    nonmin = RelationTuple(roots=t.roots, coeffs=t.coeffs, target=CycNum.zero())
    with pytest.raises(ValueError):
        certify_mann(nonmin)
    one_rel = RelationTuple(
        roots=(CycNum.one(),), coeffs=(ONE,), target=CycNum.one(), minimal=True
    )
    with pytest.raises(ValueError):
        certify_mann(one_rel)
    with pytest.raises(ValueError):
        certify_mann("not a tuple")


def test_certify_fifth_roots():
    cert = certify_mann(fifth_roots_relation())
    assert cert.verdict and cert.modulus == 30 and cert.witness is None


# ---------------------------------------------------------------------------
# representations of a nonzero target
# ---------------------------------------------------------------------------

def test_target_two_as_double_one():
    hits = enumerate_target_relations(2, 2, 12, (ONE,))
    assert len(hits) == 1
    (t,) = hits
    assert t.roots == (CycNum.one().lift(12), CycNum.one().lift(12))
    assert t.target == CycNum.from_rational(2)


def test_target_k1_lookup():
    z = root_of_unity(1, 12)
    hits = enumerate_target_relations(z, 1, 12, (ONE, -ONE))
    assert len(hits) == 2
    exps = set()
    for t in hits:
        assert t.roots[0] * t.coeffs[0] == z
        exps.add(t.coeffs[0])
    assert exps == {ONE, -ONE}


def test_target_counts_are_ordered_tuples():
    a = CycNum.one() + root_of_unity(1, 3)
    hits = enumerate_target_relations(a, 2, 3, (ONE,))
    assert len(hits) == 2  # (1, zeta) and (zeta, 1)


@pytest.mark.parametrize(
    "k,m,coeffs,target_exps",
    [
        (2, 6, (ONE,), (0, 1)),
        (2, 8, (ONE, -ONE), (0, 2)),
        (3, 4, (ONE,), (0, 1, 1)),
        (2, 5, (ONE, Fraction(2)), (0, 2)),
        (1, 6, (ONE, -ONE, Fraction(1, 2)), (1,)),
    ],
)
def test_target_matches_brute_oracle(k, m, coeffs, target_exps):
    a = CycNum.zero()
    for e in target_exps:
        a = a + root_of_unity(e, m)
    if a.is_zero():
        pytest.skip("degenerate target")
    hits = enumerate_target_relations(a, k, m, coeffs)
    lf = oracles.LongForm.from_cyc(a.lift(m) if m % a.conductor == 0 else a)
    brute = oracles.brute_target_relations(lf.reduced(), k, m, coeffs)
    assert {tuple(e for e, _ in _entries(t, m)) for t in hits} == brute
    for t in hits:
        total = CycNum.zero()
        for r, c in zip(t.roots, t.coeffs):
            total = total + r * c
        assert total == a
        assert subsum_vanishes(t) is None


def test_target_validation():
    with pytest.raises(ValueError):
        enumerate_target_relations(CycNum.zero(), 2, 12, (ONE,))
    with pytest.raises(ValueError):
        enumerate_target_relations(2, 0, 12, (ONE,))
    with pytest.raises(ValueError):
        enumerate_target_relations(2, 2, 12, (ONE,), budget=3)
    with pytest.raises(ValueError):
        enumerate_target_relations("x", 2, 12, (ONE,))
    with pytest.raises(ValueError, match="^modulus must be positive$"):
        enumerate_target_relations(2, 2, 0, (ONE,))


def test_target_census_within_bound_spot():
    # spot case of the two-term ceiling at a single awkward target
    a = root_of_unity(1, 12) * 2 + root_of_unity(7, 12) * Fraction(1, 2)
    coeffs = (ONE, -ONE, Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
    hits = enumerate_target_relations(a, 2, 12, coeffs)
    assert 1 <= len(hits) <= relation_count_bound(2)


def _brute_scan(k, m, coeffs):
    """Per-target reference for two_term_target_scan: the same sweep, each
    target censused by the brute-force oracle."""
    census = {}
    for e1 in range(m):
        for c1 in coeffs:
            for e2 in range(e1, m):
                for c2 in coeffs:
                    term1 = oracles.LongForm.root(m, e1).mul(oracles.LongForm.from_rational(m, c1))
                    term2 = oracles.LongForm.root(m, e2).mul(oracles.LongForm.from_rational(m, c2))
                    vec = term1.add(term2).reduced()
                    if any(vec) and vec not in census:
                        census[vec] = len(oracles.brute_target_relations(vec, k, m, coeffs))
    worst, witness = 0, None
    for vec, count in census.items():
        if count > worst:
            worst, witness = count, str(CycNum(m, vec))
    return worst, witness, len(census)


@pytest.mark.parametrize(
    "k,m,coeffs",
    [
        (2, 4, (2, -1, 1)),
        (2, 6, (Fraction(-1, 2), 1, -1, Fraction(1, 2))),
        (3, 4, (2, -1)),
        (3, 6, (1, -1)),
    ],
)
def test_target_scan_matches_brute_per_target(k, m, coeffs):
    coeffs = tuple(Fraction(c) for c in coeffs)
    assert two_term_target_scan(k, m, coeffs) == _brute_scan(k, m, coeffs)


def _census_args(targets, k, m, cs):
    """`_target_census` arguments for CycNum targets and the terms c z^e over
    mu_m: the targets lifted to the lcm n of the conductors, and targets and
    terms scaled alike by the lcm of the target denominators."""
    from cyclolab import mann

    n = math.lcm(m, *(a.conductor for a in targets))
    lifted = [a.lift(n) for a in targets]
    tden = math.lcm(*(a.den for a in lifted))
    terms, den = mann._root_terms(m, cs, n, tden)
    return [[den * tden // a.den * x for x in a.nums] for a in lifted], k, terms


def test_target_core_matches_one_call_per_target():
    from cyclolab import mann

    z4 = root_of_unity(1, 4)
    # targets of several conductors share one search at their common conductor
    targets = [
        CycNum.from_rational(2),
        z4 + 1,
        CycNum.one() + root_of_unity(1, 3),
        z4 * Fraction(-1, 2) + root_of_unity(3, 4) * 2,
        root_of_unity(1, 12),
    ]
    coeffs = (ONE, -ONE, Fraction(2), Fraction(1, 2))
    for k in (1, 2, 3):
        together = mann._target_census(*_census_args(targets, k, 4, mann._validate_coeff_set(coeffs)))
        alone = [enumerate_target_relations(a, k, 4, coeffs) for a in targets]
        # same exponents in the same order, same first coefficient witnesses
        assert [
            [(tuple(root_of_unity(e, 4) for e in exps), found[exps]) for exps in sorted(found)]
            for found in together
        ] == [[(t.roots, t.coeffs) for t in hits] for hits in alone]
    assert any(together)


@pytest.mark.parametrize(
    "k,m,coeffs",
    [
        (1, 6, (1, -1)),
        (2, 6, (1, -1, 2)),
        (2, 4, (1, 2, Fraction(1, 2))),
        (3, 6, (1, -1)),
    ],
)
def test_target_census_of_many_targets_matches_one_census_per_target(k, m, coeffs):
    from cyclolab import mann

    cs = mann._validate_coeff_set(coeffs)
    roots = [root_of_unity(e, m) for e in range(m)]
    pool = {r1 * c1 + r2 * c2 for r1 in roots for r2 in roots for c1 in cs for c2 in cs}
    rng = random.Random(f"{k} {m} {coeffs}")
    many = rng.sample(sorted((a for a in pool if not a.is_zero()), key=str), 16)
    many.insert(5, many[2])
    # 16 distinct targets outnumber the at most 12 distinct closing values
    # c z^e; two targets do not
    for targets in (many, many[:2], [many[0], many[0]]):
        together = mann._target_census(*_census_args(targets, k, m, cs))
        alone = [mann._target_census(*_census_args([a], k, m, cs))[0] for a in targets]
        assert [list(found.items()) for found in together] == [list(found.items()) for found in alone]
        if targets is many:
            assert any(together)


def test_target_scan_builds_only_the_witness_relations(monkeypatch):
    from cyclolab import mann

    built = []

    class Counting(mann.RelationTuple):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(mann, "RelationTuple", Counting)
    half = Fraction(1, 2)
    assert two_term_target_scan(2, 6, (1, -1, 2, -2, half, -half)) == (24, "1 + z6", 108)
    # the witness census, each relation re-checked; all 108 censuses hold 1032
    assert len(built) == 24
    assert {t.target for t in built} == {CycNum.one() + root_of_unity(1, 6)}


def test_target_scan_builds_one_target_value(monkeypatch):
    from cyclolab import mann

    calls = []
    from_ints = mann._from_ints

    def counting(*args):
        calls.append(args)
        return from_ints(*args)

    monkeypatch.setattr(mann, "_from_ints", counting)
    half = Fraction(1, 2)
    assert two_term_target_scan(2, 6, (1, -1, 2, -2, half, -half)) == (24, "1 + z6", 108)
    # the census reads the 108 targets as int rows; only the witness is a CycNum
    assert len(calls) == 1


def test_target_census_on_edge_vectors_matches_brute():
    from cyclolab import mann

    ps = _shifted_grid(3, 3)
    vecs, _ = ps.scaled
    edges = build_graph(ps, "rational").edges
    # the edge vectors in both orientations, each once
    steps = list(dict.fromkeys(tuple(map(sub, vecs[b], vecs[a])) for e in edges for a, b in (e, e[::-1])))
    targets = [tuple(map(sub, vecs[j], vecs[i])) for i, j in ((0, 1), (0, 4), (0, 8), (2, 6), (3, 5), (7, 1))]
    for k in (1, 2, 3):
        brute = [oracles.brute_term_census(t, k, steps) for t in targets]
        for scale in (1, 3):
            terms = [((i, i), [scale * x for x in row]) for i, row in enumerate(steps)]
            founds = mann._target_census([[scale * x for x in t] for t in targets], k, terms)
            assert [sorted(found) for found in founds] == [sorted(b) for b in brute]
            assert all(found[key] == key for found in founds for key in found)
        assert any(brute)


@pytest.mark.parametrize(
    "call",
    [
        lambda cs: enumerate_target_relations(2, 2, 6, cs),
        lambda cs: enumerate_minimal_vanishing_sums(2, 6, cs),
        lambda cs: two_term_target_scan(2, 6, cs),
        lambda cs: RelationTuple(roots=(CycNum.one(),) * 2, coeffs=cs, target=0),
    ],
    ids=["enumerate_target_relations", "enumerate_minimal_vanishing_sums", "two_term_target_scan",
         "RelationTuple"],
)
def test_coefficient_iterator_reads_like_a_list(call):
    assert call(iter([1, -1])) == call([1, -1])
    with pytest.raises(ValueError, match="^coefficients must be exact rationals, not floats$"):
        call(c for c in (1, -0.5))


def test_target_scan_rechecks_the_witness_census(monkeypatch):
    from cyclolab import mann

    census = mann._target_census

    def slipped(*args):
        founds = census(*args)
        largest = max(founds, key=len)
        # 2 + 2 is not the witness target 1 + z6
        assert (0, 0) not in largest
        largest[(0, 0)] = (Fraction(2), Fraction(2))
        return founds

    monkeypatch.setattr(mann, "_target_census", slipped)
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="weighted sum does not equal the target"):
        two_term_target_scan(2, 6, (1, -1, 2, -2, half, -half))


@pytest.mark.parametrize(
    "call",
    [
        lambda cs: enumerate_target_relations(2, 2, 6, cs),
        lambda cs: enumerate_minimal_vanishing_sums(2, 6, cs),
        lambda cs: two_term_target_scan(2, 6, cs),
        lambda cs: RelationTuple(roots=(CycNum.one(),) * 2, coeffs=cs, target=Fraction(11, 10)),
    ],
    ids=["enumerate_target_relations", "enumerate_minimal_vanishing_sums", "two_term_target_scan",
         "RelationTuple"],
)
@pytest.mark.parametrize("floats", [(1, 0.1), (1, 0.5), (0.5, -0.5)])
def test_float_coefficients_rejected_everywhere(call, floats):
    with pytest.raises(ValueError, match="^coefficients must be exact rationals, not floats$"):
        call(floats)


def test_target_scan_runs_one_census(monkeypatch):
    from cyclolab import mann

    calls = []
    census = mann._target_census

    def counting(*args):
        calls.append(args)
        return census(*args)

    monkeypatch.setattr(mann, "_target_census", counting)
    half = Fraction(1, 2)
    assert two_term_target_scan(2, 6, (1, -1, 2, -2, half, -half)) == (24, "1 + z6", 108)
    assert len(calls) == 1


def test_target_scan_rejects_nonpositive_modulus():
    # refused before the scan charges phi(m), with the enumerator's message
    for m in (0, -3):
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            two_term_target_scan(2, m, (1,))


def test_target_scan_rejects_nonpositive_length():
    with pytest.raises(ValueError, match="^length must be at least 1$"):
        two_term_target_scan(0, 6, (1,))


def test_target_scan_with_no_represented_target():
    # over mu_1 with coefficient 1 the one target is 2, which one term cannot reach
    assert two_term_target_scan(1, 1, (1,)) == (0, None, 1)


# ---------------------------------------------------------------------------
# the extension certificate
# ---------------------------------------------------------------------------

def test_certify_extension_same_target():
    z = root_of_unity(1, 12)
    t1 = RelationTuple(roots=(z,), coeffs=(ONE,), target=z, minimal=True)
    t2 = RelationTuple(
        roots=(root_of_unity(7, 12),), coeffs=(-ONE,), target=z, minimal=True
    )
    ok, witness = certify_extension(t1, t2)
    assert ok and witness == {0: 0}


def test_certify_extension_across_representations():
    # 1 + zeta_3 equals -zeta_3^2; both are minimal representations
    a = CycNum.one() + root_of_unity(1, 3)
    t1 = RelationTuple(
        roots=(CycNum.one(), root_of_unity(1, 3)),
        coeffs=(ONE, ONE),
        target=a,
        minimal=True,
    )
    t2 = RelationTuple(
        roots=(root_of_unity(2, 3),), coeffs=(-ONE,), target=a, minimal=True
    )
    ok, witness = certify_extension(t1, t2)
    assert ok
    assert set(witness) == {0}


def test_certify_extension_errors():
    z = root_of_unity(1, 12)
    t1 = RelationTuple(roots=(z,), coeffs=(ONE,), target=z, minimal=True)
    loose = RelationTuple(roots=(z,), coeffs=(ONE,), target=z)
    other = RelationTuple(
        roots=(CycNum.one(),), coeffs=(ONE,), target=CycNum.one(), minimal=True
    )
    zero_rel = enumerate_minimal_vanishing_sums(2, 12, (ONE,))[0]
    with pytest.raises(ValueError):
        certify_extension(t1, loose)
    with pytest.raises(ValueError):
        certify_extension(t1, other)
    with pytest.raises(ValueError):
        certify_extension(zero_rel, zero_rel)
    with pytest.raises(ValueError):
        certify_extension(t1, "nope")


def test_certified_pairs_from_enumeration():
    a = CycNum.from_rational(2)
    hits = enumerate_target_relations(a, 2, 12, (ONE, -ONE, Fraction(2)))
    assert len(hits) >= 2
    for i in range(len(hits)):
        for j in range(len(hits)):
            ok, _ = certify_extension(hits[i], hits[j])
            assert ok


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9])
@given(st.integers(1, 4), st.integers(1, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_pack_vectors_are_the_base_b_sums(w, depth, width, data):
    # each pack is sum(v_i * B**i) with B = 2**(8w), computed here directly
    M = (2 ** (8 * w) - 1) // (2 * depth)
    coord = st.one_of(st.integers(-M, M), st.sampled_from([-M, -1, 0, 1, M]))
    vectors = [(M,) + (0,) * (width - 1)] + data.draw(st.lists(st.tuples(*[coord] * width), max_size=6))
    B = 2 ** (8 * w)
    assert pack_vectors(vectors, depth) == [sum(c * B**i for i, c in enumerate(v)) for v in vectors]


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9])
@given(st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_pack_vectors_byte_slots_zero_iff_vector_sum_zero(w, depth, data):
    from itertools import combinations, product

    # the largest coordinate that w-byte slots hold at this depth; at w = 9
    # it lies between 2**68 and 2**70
    M = (2 ** (8 * w) - 1) // (2 * depth)
    coord = st.sampled_from([-M, 1 - M, -(M // 2), -1, 0, 1, M // 2, M - 1, M])
    vectors = [(0, 1, 0), (M, 0, 0)] + data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=5))
    packed = pack_vectors(vectors, depth)
    assert packed[0] == 2 ** (8 * w)  # the base: w whole bytes, no fewer
    for size in range(1, min(depth, len(vectors)) + 1):
        for picked in combinations(range(len(vectors)), size):
            for signs in product((1, -1), repeat=size):
                vector_sum = [
                    sum(sign * vectors[i][axis] for i, sign in zip(picked, signs)) for axis in range(3)
                ]
                packed_sum = sum(sign * packed[i] for i, sign in zip(picked, signs))
                assert (packed_sum == 0) == (vector_sum == [0, 0, 0])

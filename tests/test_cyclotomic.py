"""Ring layer: canonical forms, arithmetic, classification."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cyclolab import (
    CycNum,
    NotRational,
    RationalAngleForm,
    approx_complex,
    change_conductor,
    classify_rational_angle,
    cyclotomic_polynomial,
    phi,
    real_sign,
    root_of_unity,
    unit_roots,
)
from cyclolab import cyclotomic, geometry
from cyclolab.cyclotomic import _poly_mul_int, _roots_index

import oracles


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", list(range(1, 121)) + [128, 210, 255, 420, 1260, 2310, 13860])
def test_cyclotomic_polynomial_matches_sympy(n):
    assert cyclotomic_polynomial(n) == oracles.phi_coeffs(n)


def test_divisor_product_is_x_n_minus_1():
    for n in range(1, 301):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul_int(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_polynomial_builds_no_divisor_polynomials():
    cyclotomic_polynomial.cache_clear()
    cyclotomic_polynomial(13860)
    assert cyclotomic_polynomial.cache_info().currsize == 1


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("n", range(1, 200))
def test_phi_matches_sympy_totient(n):
    assert phi(n) == sympy.totient(n)


# ---------------------------------------------------------------------------
# constructors and canonical form
# ---------------------------------------------------------------------------

def test_constructor_pads_and_reduces():
    x = CycNum(3, (1, 1, 1))
    assert x.is_zero()
    y = CycNum(5, (2,))
    assert y.coeffs == (Fraction(2), Fraction(0), Fraction(0), Fraction(0))


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        CycNum(4, (0.5, 0))


def test_immutability():
    x = CycNum.one()
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(2),)


def test_rational_helpers():
    q = CycNum.from_rational(Fraction(7, 3))
    assert q.is_rational()
    assert q.as_rational() == Fraction(7, 3)
    z = root_of_unity(1, 5)
    assert not z.is_rational()
    with pytest.raises(NotRational):
        z.as_rational()


def test_zero_one_bool():
    assert not CycNum.zero()
    assert CycNum.one()
    assert CycNum.zero().is_zero()
    assert (CycNum.one() - 1).is_zero()


# ---------------------------------------------------------------------------
# arithmetic against the long-form oracle
# ---------------------------------------------------------------------------

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24]

small_fraction = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)


def cycnums(conductor):
    return st.lists(
        small_fraction, min_size=phi(conductor), max_size=phi(conductor)
    ).map(lambda cs: CycNum(conductor, cs))


@st.composite
def cycnum_pairs(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    return draw(cycnums(n)), draw(cycnums(n))


def assert_lowest_terms(*xs):
    """Each x holds int numerators over a positive denominator in lowest terms."""
    for x in xs:
        assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
        assert x.coeffs == tuple(Fraction(c, x.den) for c in x.nums)


@given(cycnum_pairs())
@settings(max_examples=60, deadline=None)
def test_mul_matches_longform(pair):
    a, b = pair
    got = a * b
    ref = oracles.LongForm.from_cyc(a).mul(oracles.LongForm.from_cyc(b))
    assert ref.equals_cyc(got)
    assert_lowest_terms(got)


@given(cycnum_pairs())
@settings(max_examples=60, deadline=None)
def test_add_sub_match_longform(pair):
    a, b = pair
    total, diff = a + b, a - b
    assert oracles.LongForm.from_cyc(a).add(oracles.LongForm.from_cyc(b)).equals_cyc(total)
    assert oracles.LongForm.from_cyc(a).sub(oracles.LongForm.from_cyc(b)).equals_cyc(diff)
    assert_lowest_terms(total, diff)


@st.composite
def cycnum_triples(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    return draw(cycnums(n)), draw(cycnums(n)), draw(cycnums(n))


@given(cycnum_triples())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycNum.zero()


@given(cycnum_pairs())
@settings(max_examples=40, deadline=None)
def test_conjugation_is_an_involution_and_multiplicative(pair):
    a, b = pair
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert_lowest_terms(a.conj(), (a * b).conj())


@given(cycnums(12))
@settings(max_examples=30, deadline=None)
def test_inverse_on_conductor_12(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == CycNum.one()


def test_inverse_examples():
    z = root_of_unity(1, 5)
    x = CycNum.one() + z
    assert x * x.inverse() == CycNum.one()
    assert z.inverse() == z.conj()
    assert (CycNum.from_rational(Fraction(2, 3))).inverse() == Fraction(3, 2)


def test_division_and_pow():
    z = root_of_unity(1, 8)
    assert z ** 8 == CycNum.one()
    assert z ** -1 == z.conj()
    assert z ** 0 == CycNum.one()
    assert (z / z) == CycNum.one()
    assert 1 / z == z ** 7
    with pytest.raises(ZeroDivisionError):
        z / CycNum.zero()


def test_mixed_rational_operands():
    z = root_of_unity(1, 3)
    assert z + 1 == 1 + z
    assert 2 * z == z * 2 == z + z
    assert z - Fraction(1, 2) == -(Fraction(1, 2) - z)


# ---------------------------------------------------------------------------
# conductor management, equality, hashing
# ---------------------------------------------------------------------------

def test_lift_and_cross_conductor_equality():
    z3 = root_of_unity(1, 3)
    z12_4 = root_of_unity(4, 12)
    assert z3 == z12_4
    assert hash(z3) == hash(z12_4)
    assert z3.lift(12).conductor == 12
    with pytest.raises(ValueError):
        z3.lift(4)


def test_min_conductor():
    assert root_of_unity(4, 12).min_conductor() == 3
    assert CycNum.from_rational(5).min_conductor() == 1
    assert root_of_unity(3, 6).min_conductor() == 1  # equals -1, a rational
    assert root_of_unity(1, 6).min_conductor() == 3  # zeta_6 = -zeta_3^2
    assert root_of_unity(1, 8).min_conductor() == 8
    assert CycNum(12, (0, 0, 0, 0)).min_conductor() == 1


def test_hash_respects_equality_in_sets():
    pool = {
        root_of_unity(1, 3),
        root_of_unity(4, 12),
        root_of_unity(2, 6),
        CycNum.from_rational(1),
        root_of_unity(0, 7),
    }
    assert len(pool) == 2


def test_change_conductor_round_trip():
    z3 = root_of_unity(1, 3)
    up = change_conductor(z3, 12)
    assert up == root_of_unity(4, 12)
    assert change_conductor(up, 3) == z3
    assert change_conductor(CycNum.from_rational(-1), 6) == root_of_unity(3, 6)
    with pytest.raises(ValueError):
        change_conductor(z3, 4)
    with pytest.raises(ValueError):
        change_conductor(z3, 0)


# 420 and 1260 each take both descent branches: from 1260 to 420 and from
# 420 to 210 the prime p divides the smaller conductor (coordinates at
# multiples of p); from 1260 to 180 and from 420 to 60 it does not
# (coordinates over the subfield in the basis 1, zeta_p, ..., zeta_p^(p-2)).
# q = 11 and 13 fold zeta_q^(q-1) across many slots.
_DESCENT_CASES = [
    (m, m * q) for m in (1, 2, 3, 4, 6, 9, 10, 12, 15, 30, 60, 105) for q in (2, 3, 5, 7)
] + [(m, m * q) for m in (1, 2, 3, 4, 6, 12) for q in (11, 13)] + [
    (210, 420), (420, 1260), (180, 1260)
]


@pytest.mark.parametrize("m, n", _DESCENT_CASES)
def test_descent_matches_fixed_field_oracle(m, n):
    rng = random.Random(m * 100003 + n)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    dense = CycNum(
        m,
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0 for _ in range(phi(m))],
    )
    # a sum of two roots of orders dividing m usually lies in a smaller field
    sparse = Fraction(rng.randint(1, 3), rng.randint(1, 2)) * root_of_unity(
        rng.randrange(m), rng.choice(divisors)
    ) - root_of_unity(rng.randrange(m), rng.choice(divisors))
    for x in (dense, sparse.lift(m)):
        y = x.lift(n)
        assert y.min_conductor() == oracles.brute_min_conductor(y)
        assert y._minimal_key() == x._minimal_key()
        assert hash(y) == hash(x)
        assert change_conductor(y, y.min_conductor()).lift(n) == y


def test_cold_descent_asks_only_for_smaller_power_tables(monkeypatch):
    x = (root_of_unity(1, 12) + Fraction(1, 3)).lift(420)
    real = cyclotomic._power_table
    asked = []

    def recorder(m):
        asked.append(m)
        return real(m)

    monkeypatch.setattr(cyclotomic, "_power_table", recorder)
    # rows read before this test would hide a request for table 420
    fresh = lru_cache(maxsize=None)(cyclotomic._sparse_rows.__wrapped__)
    monkeypatch.setattr(cyclotomic, "_sparse_rows", fresh)
    assert x.min_conductor() == 12
    assert asked and all(m < 420 for m in asked)


def test_power_sum_of_one_root_is_its_long_form_reduced():
    # the oracle reduction of x^e mod Phi_m, on an int long form: the
    # same reduction over the Fractions of `LongForm.root` takes 10x longer
    for m in [*range(1, 201), 420, 1260]:
        phic = oracles.phi_coeffs(m)
        for e in [*range(m), m + 1]:
            long_form = [0] * m
            long_form[e % m] = 1
            expected = oracles.reduce_mod_phi(long_form, phic)
            assert tuple(cyclotomic._power_sum(((e, 1),), m)) == expected, (m, e)


@pytest.mark.parametrize("n", [4, 12, 60])
def test_identity_map_ints_is_a_copy(monkeypatch, n):
    rng = random.Random(n)
    nums = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(phi(n))]
    general = cyclotomic._power_sum(enumerate(nums), n)

    def refuse(*args):
        raise AssertionError("the identity map needs no power sum")

    monkeypatch.setattr(cyclotomic, "_power_sum", refuse)
    same = cyclotomic._map_ints(tuple(nums), n, n)
    assert same == nums == general
    assert cyclotomic._map_ints(nums, n, n) is not nums


@given(cycnum_pairs(), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=30, deadline=None)
def test_lifting_preserves_results(pair, mult):
    a, b = pair
    m = a.conductor * mult
    assert (a * b).lift(m) == a.lift(m) * b.lift(m)
    assert (a + b).lift(m) == a.lift(m) + b.lift(m)
    assert_lowest_terms(a.lift(m), (a + b).lift(m))


def test_galois_maps():
    z = root_of_unity(1, 12)
    assert z.galois(5) == root_of_unity(5, 12)
    assert z.galois(11) == z.conj()
    x = CycNum(12, (1, 2, 3, 4))
    assert x.galois(5).galois(5) == x.galois(25 % 12)
    with pytest.raises(ValueError):
        z.galois(4)


@pytest.mark.parametrize("n", [12, 60, 84, 420, 1260])
def test_kernel_maps_match_longform_at_workload_conductors(n):
    rng = random.Random(n)
    units = [t for t in range(2, n) if math.gcd(t, n) == 1]
    big_n = math.lcm(420, n)
    k = big_n // n
    # the long-form oracle takes about a second per reduction at 1260
    slow = n > 420

    def sparse(size, draw=lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))):
        return [draw() if rng.random() < 0.4 else 0 for _ in range(size)]

    for trial in range(1 if slow else 3):
        x = CycNum(n, sparse(phi(n)))
        vec = oracles.LongForm.from_cyc(x).vec
        for t in [n - 1] + rng.sample(units, 1 if slow else 3):
            moved = [Fraction(0)] * n
            for j, c in enumerate(vec):
                moved[j * t % n] += c
            expected = oracles.LongForm(n, moved).reduced()
            assert x.galois(t).coeffs == expected
            assert_lowest_terms(x.galois(t))
            if t == n - 1:
                assert x.conj().coeffs == expected
        big = x.lift(big_n)
        if not slow:
            spread = [Fraction(0)] * big_n
            for j, c in enumerate(vec):
                spread[j * k] = c
            assert big.coeffs == oracles.LongForm(big_n, spread).reduced()
            assert_lowest_terms(big)
        assert big.min_conductor() == x.min_conductor()
        assert hash(big) == hash(x)
        if x and not slow and (n != 420 or trial == 0):
            assert x * x.inverse() == 1
        # a product, the constructor on a long form and the pairing, all reduced by `_power_sum`
        y = CycNum(n, sparse(phi(n)))
        product = x * y
        assert product.coeffs == oracles.LongForm.from_cyc(x).mul(oracles.LongForm.from_cyc(y)).reduced()
        assert_lowest_terms(product)
        long_vec = sparse(n)
        assert CycNum(n, long_vec).coeffs == oracles.LongForm(n, long_vec).reduced()
        u, v = (sparse(phi(n), lambda: rng.randint(-9, 9)) for _ in range(2))
        assert geometry.pair_vec(u, v, n) == _long_pair(u, v, n)


def _long_pair(x, y, n):
    """S(x, y) = x conj(y) - conj(x) y of int vectors at conductor n, in the long form."""

    def long_forms(v):
        conj = [0] * n
        for j, c in enumerate(v):
            conj[-j % n] += c
        return oracles.LongForm(n, list(v) + [0] * (n - len(v))), oracles.LongForm(n, conj)

    (x, x_bar), (y, y_bar) = long_forms(x), long_forms(y)
    return x.mul(y_bar).sub(x_bar.mul(y)).reduced()


@pytest.mark.parametrize("n", [1, 2])
def test_pair_vec_matches_longform_on_rational_conductors(n):
    rng = random.Random(n)
    for _ in range(20):
        u, v = [rng.randint(-10**12, 10**12)], [rng.randint(-10**12, 10**12)]
        assert geometry.pair_vec(u, v, n) == _long_pair(u, v, n) == (0,)


def test_short_constructor_input_builds_no_table(monkeypatch):
    def refuse(m):
        raise AssertionError(f"table {m} built for a short input")

    # a fresh row cache, so rows read before this test cannot hide a table request
    monkeypatch.setattr(cyclotomic, "_power_table", refuse)
    fresh = lru_cache(maxsize=None)(cyclotomic._sparse_rows.__wrapped__)
    monkeypatch.setattr(cyclotomic, "_sparse_rows", fresh)
    # through `_power_sum`, the first would build the table of 30030: 2.4 GiB
    assert CycNum(30030, (1, 2)).nums == (1, 2) + (0,) * (phi(30030) - 2)
    assert CycNum(13860, (0, 1)).nums == (0, 1) + (0,) * (phi(13860) - 2)


def test_roots_of_unity_basics():
    assert root_of_unity(0, 1) == CycNum.one()
    assert root_of_unity(3, 6) == CycNum.from_rational(-1)
    assert root_of_unity(7, 5) == root_of_unity(2, 5)
    assert len(unit_roots(12)) == 12
    prod = CycNum.one()
    for r in unit_roots(5):
        prod = prod * r
    assert prod == CycNum.one()
    with pytest.raises(ValueError):
        root_of_unity(1, 0)


@pytest.mark.parametrize("m", list(range(1, 31)) + [60, 84, 420])
def test_root_table_matches_root_of_unity(m):
    M = math.lcm(2, m)
    # every row of the table, -zeta^e = zeta^(e + M/2) included
    assert len(_roots_index(M)) == M
    roots = unit_roots(m)
    assert len(roots) == m
    for e, r in enumerate(roots):
        expected = root_of_unity(e, m)
        assert (r.conductor, r.coeffs) == (m, expected.coeffs)
        assert classify_rational_angle(expected).astuple() == (1, e * M // m, M)


# ---------------------------------------------------------------------------
# rational-angle classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify_rational_angle(CycNum.one()).astuple() == (Fraction(1), 0, 2)
    assert classify_rational_angle(CycNum.from_rational(-2)).astuple() == (
        Fraction(2),
        1,
        2,
    )
    form = classify_rational_angle(root_of_unity(1, 6) * 3)
    assert form.length == 3
    assert form.value() == root_of_unity(1, 6) * 3
    assert classify_rational_angle(CycNum(4, (1, 1))) is None
    assert classify_rational_angle(root_of_unity(1, 3) - 1) is None
    with pytest.raises(ValueError):
        classify_rational_angle(CycNum.zero())


def test_classify_rejects_wrong_type():
    with pytest.raises(TypeError):
        classify_rational_angle(0.5)


@given(
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(50), max_denominator=7),
    st.integers(min_value=0, max_value=59),
)
@settings(max_examples=60, deadline=None)
def test_classify_recovers_scaled_roots(q, e):
    w = root_of_unity(e, 60) * q
    form = classify_rational_angle(w)
    assert form is not None
    assert form.length == q
    assert form.value() == w
    # the squared modulus must equal length squared
    assert (w * w.conj()).as_rational() == q * q


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=23))
@settings(max_examples=40, deadline=None)
def test_classify_agrees_with_brute_division(n, e):
    w = root_of_unity(e % n, n) * Fraction(3, 2)
    form = classify_rational_angle(w)
    brute = oracles.brute_classify(w)
    assert brute is not None and form is not None
    assert (form.length, form.exponent, form.modulus) == brute


def _norm_classify_inputs(n):
    z = root_of_unity(1, n)
    yield from (root_of_unity(e, n) * q for e in range(0, n, 5) for q in (Fraction(7, 3), -2))
    for d in (d for d in (3, 4, 5, 6, 7, 12) if n % d == 0 and d != n):
        yield from (root_of_unity(e, d).lift(n) * Fraction(-5, 2) for e in range(d))
    if n % 4 == 0:
        # length 1, angle atan(4/3): not a rational multiple of pi
        yield root_of_unity(1, 4) * Fraction(4, 5) + Fraction(3, 5)
        yield (root_of_unity(1, 4) * Fraction(4, 5) + Fraction(3, 5)) * z
    else:
        # x / conj(x) has length 1 but is not a root of unity
        yield (z + 2) / (z.conj() + 2)
    yield z + 1
    yield (z + 1) * Fraction(3, 4)
    yield from (root_of_unity(a, n) + root_of_unity(b, n) for a in (0, 1) for b in range(a + 1, n, 3))


def _stride_classify_inputs(n):
    """Scaled roots at conductor n and elements near them.  With M =
    lcm(2, n) and s = M / rad(M), the nonzero entries of a root, of
    (2 + zeta_M^s) zeta_n^e and of rational multiples sit at one residue
    mod s; those of w + 1 mostly do not."""
    M = math.lcm(2, n)
    s = M // math.prod(sympy.primefactors(M))
    for e in range(n) if n <= 36 else range(1, n, 5):
        w = root_of_unity(e, n) * Fraction(7, 3)
        yield from (w, -w, w * Fraction(-1, 4), w + 1, -w + 1, w * (2 + root_of_unity(s, M)))


@pytest.mark.parametrize("n", [8, 9, 12, 18, 20, 36, 72])
def test_classify_matches_brute_division_off_squarefree(n):
    assert math.lcm(2, n) != math.prod(sympy.primefactors(n * 2))
    hits = misses = 0
    for w in _stride_classify_inputs(n):
        form = classify_rational_angle(w)
        assert (form and form.astuple()) == oracles.brute_classify(w), w
        hits += form is not None
        misses += form is None
    assert hits and misses


@pytest.mark.parametrize("n", [12, 60, 84, 420, 15, 21, 105])
def test_classify_matches_norm_oracle(n):
    hits = 0
    for w in _norm_classify_inputs(n):
        form = classify_rational_angle(w)
        expected = oracles.norm_classify(w)
        assert (form and form.astuple()) == expected, w
        hits += form is not None
    assert hits > 0


def test_rational_angle_form_validation():
    with pytest.raises(ValueError):
        RationalAngleForm(Fraction(0), 0, 2)
    with pytest.raises(ValueError):
        RationalAngleForm(Fraction(1), 5, 4)
    f = RationalAngleForm(Fraction(2), 1, 4)
    assert f == RationalAngleForm(Fraction(2), 1, 4)
    assert hash(f) == hash(RationalAngleForm(Fraction(2), 1, 4))
    with pytest.raises(AttributeError):
        f.exponent = 3


# ---------------------------------------------------------------------------
# numeric bridge and exact signs
# ---------------------------------------------------------------------------

def test_approx_complex_values():
    z8 = approx_complex(root_of_unity(1, 8))
    assert abs(z8 - complex(math.sqrt(0.5), math.sqrt(0.5))) < 1e-12
    z4 = approx_complex(root_of_unity(1, 4))
    assert abs(z4 - 1j) < 1e-12
    s = approx_complex(CycNum.one() + root_of_unity(1, 3) + root_of_unity(2, 3))
    assert abs(s) < 1e-12
    with pytest.raises(ValueError):
        approx_complex(CycNum.one(), digits=0)


def test_real_sign_rational_and_zero():
    assert real_sign(CycNum.zero()) == 0
    assert real_sign(CycNum.from_rational(Fraction(-3, 7))) == -1
    assert real_sign(CycNum.from_rational(2)) == 1


def test_real_sign_irrational_reals():
    z8 = root_of_unity(1, 8)
    sqrt2 = z8 + z8.conj()
    assert real_sign(sqrt2) == 1
    assert real_sign(-sqrt2) == -1
    z5 = root_of_unity(1, 5)
    golden = z5 + z5.conj()  # 2cos(72 deg) = (sqrt(5) - 1) / 2
    assert real_sign(golden) == 1
    assert real_sign(golden - 1) == -1


def test_real_sign_doubles_precision_until_the_box_excludes_zero(monkeypatch):
    # q is (sqrt(5) - 1) / 2 to 40 decimals, about 1e-41 below it, so the
    # boxes at 64 and 128 bits still hold zero and the loop goes on to 256
    q = Fraction("0.6180339887498948482045868343656381177203")
    z5 = root_of_unity(1, 5)
    precisions = []
    cos = mpmath.iv.cos
    monkeypatch.setattr(mpmath.iv, "cos", lambda x: precisions.append(mpmath.iv.prec) or cos(x))
    # both sides of sqrt(5) versus 2q + 1 are positive, so squaring keeps the order
    exact = 1 if (2 * q + 1) ** 2 < 5 else -1
    assert real_sign(z5 + z5.conj() - q) == exact == 1
    assert sorted(set(precisions)) == [64, 128, 256]


def test_real_sign_rejects_nonreal():
    with pytest.raises(ValueError):
        real_sign(root_of_unity(1, 4))


# ---------------------------------------------------------------------------
# display
# ---------------------------------------------------------------------------

def test_repr_and_str():
    z = root_of_unity(1, 12)
    assert "z12" in str(z)
    assert str(CycNum.zero()) == "0"
    assert "CycNum(12" in repr(z)

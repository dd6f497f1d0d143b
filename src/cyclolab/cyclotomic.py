"""Exact arithmetic in cyclotomic fields.

Elements live in Q(zeta_N) for a declared conductor N and are stored as
coefficient vectors over the power basis 1, zeta, ..., zeta^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial.  The coefficients are int
numerators over one positive denominator, in lowest terms, and all
arithmetic runs on those ints; `Fraction`s appear only at the boundary
(the public constructor and the `coeffs` view).  Equality and the zero
test are exact because the representation is canonical.  Hashing,
`min_conductor` and `change_conductor` (to a conductor that the
element's own does not divide) descend to the smallest conductor one
prime at a time, reading the coordinates over each subfield from rows of
powers of zeta, so one exact pass decides each prime; nothing else in the
package descends.  Since Phi_N(x) = Phi_r(x^(N/r)) with r the product of
the primes dividing N, every power of zeta_N is a row of the table of
zeta_r spread out, and one routine (`_power_sum`)
writes every sum of powers of zeta_N from those rows: products, the
constructor's reduction of a long polynomial, lifts, Galois maps, the
descent, the collinearity pairing and the root rows of `mann` all read
it, so it is the only reduction into the power basis and no table is
built at a conductor that is not squarefree.  Floating point enters
only through `approx_complex` and the interval fallback of `real_sign`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Optional, Union

import mpmath

from .errors import NotRational

RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer polynomial helpers
# ---------------------------------------------------------------------------

def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    With r the product of the primes dividing n, Phi_n(x) = Phi_r(x^(n/r))
    and, for r > 1, Phi_r = prod over d | r of (1 - x^d)^mu(r/d).  Each
    factor is a power series in Z[[x]] with constant term 1, so the product
    taken modulo x^(phi(r)+1) is exact and equals the polynomial Phi_r of
    degree phi(r); divisors d > phi(r) do not touch those terms.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    r = math.prod(primes)
    deg = phi(r)
    a = [1] + [0] * deg
    divisors = [(1, (-1) ** len(primes))]  # (d, mu(r/d)) for d | r
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    for d, mu in divisors:
        if mu > 0:  # multiply by 1 - x^d
            for i in range(deg, d - 1, -1):
                a[i] -= a[i - d]
        else:  # divide by 1 - x^d
            for i in range(d, deg + 1):
                a[i] += a[i - d]
    out = [0] * (deg * (n // r) + 1)
    out[:: n // r] = a
    return tuple(out)


@lru_cache(maxsize=None)
def phi(n: int) -> int:
    """Euler totient, i.e. the degree of Q(zeta_n)."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _to_int_scaled(coeffs):
    """Common-denominator form: returns (int list, denominator)."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple:
    """x^e mod Phi_m for e = 0 .. m-1, as int tuples of length phi(m).

    Entry e is the power-basis form of zeta_m^e.  Built one
    multiplication by x at a time.
    """
    pc = cyclotomic_polynomial(m)
    deg = len(pc) - 1
    low = [(i, c) for i, c in enumerate(pc[:deg]) if c]
    table = []
    for e in range(deg):
        power = [0] * deg
        power[e] = 1
        table.append(tuple(power))
    for _ in range(deg, m):
        # multiply by x; x^deg reduces to -(Phi_m - x^deg)
        lead = power.pop()
        power.insert(0, 0)
        if lead:
            for i, c in low:
                power[i] -= lead * c
        table.append(tuple(power))
    return tuple(table)


@lru_cache(maxsize=None)
def _radical_split(m: int) -> tuple:
    """(r, s) with r the product of the primes dividing m and s = m / r."""
    r = math.prod(_prime_factors(m))
    return r, m // r


@lru_cache(maxsize=None)
def _sparse_rows(r: int) -> list:
    """Entry q is row q of `_power_table(r)` as (index, int) pairs over its
    nonzero entries, or None until `_power_sum` first reads that row."""
    return [None] * r


def _power_sum(terms, m):
    """The sum of c * zeta_m^e over the (e, c) pairs of `terms`, as phi(m) ints.

    With (r, s) = `_radical_split(m)`, Phi_m(x) = Phi_r(x^s).  For
    e = q s + t (e taken mod m, 0 <= t < s), x^e = x^t (x^s)^q, and
    (x^s)^q mod Phi_r(x^s) is row q of `_power_table(r)` read in powers of
    x^s, of degree at most s (phi(r) - 1).  Times x^t it stays below
    deg Phi_m = s phi(r), so entry i of row q goes to index s i + t as is:
    the terms with one t add up in the stride-s slice from t.
    """
    r, s = _radical_split(m)
    rows, slices = _sparse_rows(r), {}
    for e, c in terms:
        if c:
            q, t = divmod(e % m, s)
            row = rows[q]
            if row is None:
                row = rows[q] = tuple(filter(itemgetter(1), enumerate(_power_table(r)[q])))
            acc = slices.get(t) or slices.setdefault(t, [0] * phi(r))
            for i, v in row:
                acc[i] += c * v
    out = [0] * phi(m)
    for t, acc in slices.items():
        out[t::s] = acc
    return out


def _map_ints(nums, n, m, t=1):
    """Image of conductor-n int coefficients under zeta_n -> zeta_m^(t*m/n), at
    conductor m (n | m): the lift into Q(zeta_m) when t = 1, a Galois map when m = n."""
    if n == m and t == 1:
        return list(nums)
    step = t * (m // n)
    return _power_sum(((j * step, c) for j, c in enumerate(nums)), m)


def _as_fraction(c):
    if type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise TypeError("float coefficients are not exact, pass Fraction or int")
    return Fraction(c)


def _from_ints(conductor, nums, den):
    """The CycNum nums / den at `conductor`, reduced to lowest terms; den > 0
    and nums holds phi(conductor) ints."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    x = object.__new__(CycNum)
    object.__setattr__(x, "conductor", conductor)
    object.__setattr__(x, "nums", tuple(nums))
    object.__setattr__(x, "den", den)
    object.__setattr__(x, "_min_key", None)
    return x


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_N) in reduced power-basis form.

    Instances are immutable.  The coordinates are `nums / den`: an int
    tuple of length phi(N) over one positive int denominator, in lowest
    terms, so equal elements of one conductor have equal (nums, den).
    Operations on elements with different conductors lift both to the
    least common multiple first, so mixed arithmetic is always legal.
    Equality and hashing are conductor independent: two elements are
    equal iff they agree after lifting, and the hash is taken over a
    minimal-conductor canonical form.
    """

    __slots__ = ("conductor", "nums", "den", "_min_key")

    def __new__(cls, conductor: int, coeffs: Iterable):
        nums, den = _to_int_scaled([_as_fraction(c) for c in coeffs])
        deg = phi(conductor)
        # any polynomial in zeta is accepted: reduce a long one to the power
        # basis, pad a short one (no table is read for it)
        if len(nums) > deg:
            nums = _power_sum(enumerate(nums), conductor)
        return _from_ints(conductor, nums + [0] * (deg - len(nums)), den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coordinates as `Fraction`s."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q: RationalLike) -> "CycNum":
        return cls(1, (Fraction(q),))

    @classmethod
    def zero(cls) -> "CycNum":
        return _from_ints(1, (0,), 1)

    @classmethod
    def one(cls) -> "CycNum":
        return _from_ints(1, (1,), 1)

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return _from_ints(1, (x.numerator,), x.denominator)
        return None

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        """True iff every coefficient beyond the constant term vanishes."""
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conductor handling ---------------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Representation of the same element in Q(zeta_m); requires N | m."""
        n = self.conductor
        if m == n:
            return self
        if m < 1 or m % n != 0:
            raise ValueError(f"incompatible conductor: {n} does not divide {m}")
        return _from_ints(m, _map_ints(self.nums, n, m), self.den)

    def _common(self, other):
        n, m = self.conductor, other.conductor
        if n == m:
            return self, other
        l = math.lcm(n, m)
        return self.lift(l), other.lift(l)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        ad, bd = a.den, b.den
        return _from_ints(a.conductor, [x * bd + y * ad for x, y in zip(a.nums, b.nums)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(self.conductor, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        n = a.conductor
        return _from_ints(n, _power_sum(enumerate(_poly_mul_int(a.nums, b.nums)), n), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse through the norm.

        The norm N(x) = x * prod(sigma_t(x) for units t != 1) is a nonzero
        rational, so x^-1 = prod(sigma_t(x)) / N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            q = self.nums[0]
            return _from_ints(1, (self.den if q > 0 else -self.den,), abs(q)).lift(self.conductor)
        n = self.conductor
        rest = CycNum.one().lift(n)
        for t in range(2, n):
            if math.gcd(t, n) == 1:
                rest = rest * self.galois(t)
        return rest / (self * rest).as_rational()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNum.one().lift(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- Galois action ---------------------------------------------------------

    def galois(self, t: int) -> "CycNum":
        """Image under zeta -> zeta^t for t coprime to the conductor."""
        n = self.conductor
        if n <= 2:
            return self
        t %= n
        if math.gcd(t, n) != 1:
            raise ValueError(f"galois exponent {t} not coprime to {n}")
        if t == 1:
            return self
        return _from_ints(n, _map_ints(self.nums, n, n, t), self.den)

    def conj(self) -> "CycNum":
        """Complex conjugate, i.e. the Galois map zeta -> zeta^(-1)."""
        return self.galois(self.conductor - 1)

    # -- equality and hashing ----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        return hash(self._minimal_key())

    def _minimal_key(self):
        key = self._min_key
        if key is None:
            key = _descend_to_minimal(self.conductor, self.nums, self.den)
            object.__setattr__(self, "_min_key", key)
        return key

    def min_conductor(self) -> int:
        """Smallest conductor whose field contains this element."""
        return self._minimal_key()[0]

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"CycNum({self.conductor}, [{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self):
        n = self.conductor
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*z{n}" if c != 1 else f"z{n}")
            else:
                parts.append(f"{c}*z{n}^{j}" if c != 1 else f"z{n}^{j}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# minimal-conductor descent (canonical form for hashing)
# ---------------------------------------------------------------------------

def _descend_to_minimal(n, nums, den):
    """Canonical (conductor, nums, den) key with the smallest possible conductor.

    Descends one prime p at a time, from n to m = n/p, reading x's
    coordinates over Q(zeta_m).  When p | m, Phi_n(x) = Phi_m(x^p), so
    Q(zeta_m) is the span of the coordinates at multiples of p.
    Otherwise Q(zeta_n) = Q(zeta_m)(zeta_p) has degree p - 1 over
    Q(zeta_m), with basis 1, zeta_p, ..., zeta_p^(p-2).  With u = p^-1
    mod m and v = m^-1 mod p, zeta_n^k = zeta_m^(ku) * zeta_p^(kv), so
    x = sum over j < p of A_j zeta_p^(jv), where A_j in Q(zeta_m) adds
    the `_power_sum` of c_k zeta_m^(ku) over k = j mod p.  Write
    B_r for the A_j with jv = r mod p.  As zeta_p^(p-1) = -(1 + ... +
    zeta_p^(p-2)), x = sum over r < p - 1 of (B_r - B_(p-1)) zeta_p^r,
    and jv runs over the nonzero residues as j does, so x lies in
    Q(zeta_m) exactly when A_1 = ... = A_(p-1); then x = A_0 - A_1.
    """
    for p in _prime_factors(n):
        m = n // p
        if m % p == 0:
            if any(c for k, c in enumerate(nums) if k % p):
                continue
            image = nums[::p]
        else:
            u = pow(p, -1, m)
            parts = [
                _power_sum(((k * u, nums[k]) for k in range(j, len(nums), p)), m) for j in range(p)
            ]
            if any(a != parts[1] for a in parts[2:]):
                continue
            image = [a - b for a, b in zip(parts[0], parts[1])]
        x = _from_ints(m, image, den)
        return _descend_to_minimal(m, x.nums, x.den)
    return n, nums, den


# ---------------------------------------------------------------------------
# roots of unity and the rational-angle decision
# ---------------------------------------------------------------------------

def change_conductor(x: CycNum, conductor: int) -> CycNum:
    """Re-express x in Q(zeta_conductor).

    Lifting (old conductor divides the new one) always succeeds; going
    the other way succeeds exactly when the element lies in the smaller
    field, so a round trip through a larger conductor is the identity.
    """
    if conductor < 1:
        raise ValueError("conductor must be a positive integer")
    if conductor % x.conductor == 0:
        return x.lift(conductor)
    n0, nums, den = x._minimal_key()
    if conductor % n0 != 0:
        raise ValueError(
            f"incompatible conductor: element needs {n0}, which does not divide {conductor}"
        )
    return _from_ints(n0, nums, den).lift(conductor)


@lru_cache(maxsize=1 << 12)
def root_of_unity(e: int, n: int) -> CycNum:
    """zeta_n^e as an element of Q(zeta_n)."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return _from_ints(n, _power_sum(((e, 1),), n), 1)


@lru_cache(maxsize=None)
def unit_roots(m: int) -> tuple:
    """All m-th roots of unity zeta_m^0 .. zeta_m^(m-1), in exponent order."""
    return tuple(_from_ints(m, _power_sum(((e, 1),), m), 1) for e in range(m))


@lru_cache(maxsize=None)
def _roots_index(m: int) -> dict:
    """Row -> exponent over all m-th roots of unity, m entries keyed by the
    int tuples of `_power_table(m)`."""
    return {row: e for e, row in enumerate(_power_table(m))}


@dataclass(frozen=True, slots=True)
class RationalAngleForm:
    """Decomposition w = length * zeta_modulus^exponent with rational length > 0."""

    length: Fraction
    exponent: int
    modulus: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("length must be positive")
        if not 0 <= self.exponent < self.modulus:
            raise ValueError("exponent out of range")
        object.__setattr__(self, "length", Fraction(self.length))

    def value(self) -> CycNum:
        """The element this form denotes."""
        return root_of_unity(self.exponent, self.modulus) * self.length

    def astuple(self):
        return (self.length, self.exponent, self.modulus)

    def __repr__(self):
        return f"RationalAngleForm({self.length}, {self.exponent}, {self.modulus})"


def classify_rational_angle(w) -> Optional[RationalAngleForm]:
    """Decide whether w = q * zeta_M^e with q a positive rational.

    M is lcm(2, conductor of w); every root of unity inside Q(zeta_N) is an
    M-th root of unity, so the decision is complete.  It is one lookup:
    w lifted to M, as an int vector divided by the positive gcd of its
    entries, is w's primitive form, and w = q * zeta_M^e exactly when that
    form is the row of zeta_M^e (power-table rows are primitive, since a
    root of unity divided by an integer g > 1 is not an algebraic integer).
    With (r, s) = `_radical_split(M)` and e = q s + t, that row is row q
    of the table of r at the indices = t (mod s) (`_power_sum`), so the
    form is a row exactly when its nonzero entries all sit at indices = t
    for one t and its stride-s slice from t is a row of `_roots_index(r)`.
    No sign is chosen: r is even, so a negated row -zeta_r^q =
    zeta_r^(q + r/2) is itself a row.  Returns None when w has an
    irrational length or a non-rational angle; raises on zero input.
    """
    w = CycNum._coerce(w)
    if w is None:
        raise TypeError("classify_rational_angle expects a CycNum or rational")
    if w.is_zero():
        raise ValueError("zero input has no direction")
    m = math.lcm(2, w.conductor)
    ints = _map_ints(w.nums, w.conductor, m)
    r, s = _radical_split(m)
    for t in range(s):
        row = ints[t::s]
        if any(row):
            break
    if len(ints) - ints.count(0) != len(row) - row.count(0):
        return None
    g = math.gcd(*row)
    e = _roots_index(r).get(tuple(row) if g == 1 else tuple(c // g for c in row))
    if e is None:
        return None
    return RationalAngleForm(Fraction(g, w.den), e * s + t, m)


@lru_cache(maxsize=1 << 12)
def _turn(conductor, nums, den) -> Optional[Fraction]:
    """e/M when the element nums / den at `conductor` is zeta_M^e, as a
    fraction of a full turn; None when it is not a root of unity (zero
    included).  Memoised: relations over one modulus share their roots."""
    if not any(nums):
        return None
    form = classify_rational_angle(_from_ints(conductor, nums, den))
    if form is None or form.length != 1:
        return None
    return Fraction(form.exponent, form.modulus)


# ---------------------------------------------------------------------------
# numeric views
# ---------------------------------------------------------------------------

def approx_complex(x: CycNum, digits: int = 15) -> complex:
    """Floating approximation of x, evaluated at `digits` working precision.

    The working precision only controls internal cancellation; the return
    value is an ordinary double-precision complex number.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    n = x.conductor
    with mpmath.workdps(digits + 10):
        total = mpmath.mpc(0)
        for j, c in enumerate(x.coeffs):
            if c:
                q = mpmath.mpf(c.numerator) / c.denominator
                total += q * mpmath.expjpi(mpmath.mpf(2 * j) / n)
        return complex(total)


def real_sign(x: CycNum) -> int:
    """Exact sign (-1, 0, 1) of a real cyclotomic number.

    Rational values are compared exactly.  Irrational real values are
    boxed with interval arithmetic at increasing precision; the loop
    terminates because zero was already ruled out exactly.
    """
    if x.is_zero():
        return 0
    if x.is_rational():
        return 1 if x.nums[0] > 0 else -1
    if x != x.conj():
        raise ValueError("real_sign needs a conjugation-fixed value")
    n = x.conductor
    prec = 64
    while True:
        old = mpmath.iv.prec
        try:
            mpmath.iv.prec = prec
            total = mpmath.iv.mpf(0)
            for j, c in enumerate(x.coeffs):
                if c:
                    q = mpmath.iv.mpf(c.numerator) / c.denominator
                    ang = mpmath.iv.pi * (mpmath.iv.mpf(2 * j) / n)
                    total += q * mpmath.iv.cos(ang)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
        finally:
            mpmath.iv.prec = old
        prec *= 2
        if prec > 1 << 20:
            raise AssertionError("interval refinement failed to separate from zero")

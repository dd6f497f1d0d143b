"""Exact plane geometry for points with cyclotomic coordinates.

A point is a CycNum viewed as a complex number.  Collinearity of p, q, r
is the vanishing of Im((q - p) * conj(r - p)), tested exactly through
the antisymmetric pairing S(x, y) = x * conj(y) - conj(x) * y:

    collinear(p, q, r)  <=>  S(q - p, r - p) = 0.

Points are tested in a residue field: with p a prime that is 1 mod N
and omega of order N mod p, zeta_N -> omega is a ring map from Z[zeta_N]
onto Z/p, so a nonzero residue of S proves a triple is not collinear.
`collinearity` decides a zero residue by a norm bound when the
coordinates are small enough, and by the exact `pair_vec` otherwise.
`lines_through` groups points into lines through an anchor by one
residue direction key per point, for the line scan and the doubling.
The int vectors and residue pairs these read belong to the point set:
`PointSet.scaled` and `PointSet.residues` compute them once.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import mul

from .cyclotomic import CycNum, _poly_mul_int, _power_sum, _prime_factors, cyclotomic_polynomial, phi


def pair_vec(x, y, n: int) -> tuple:
    """S(x, y) for int coefficient vectors x, y at conductor n.

    Entry e of x * reversed(y) sums x_i y_j over i - j = e - len(y) + 1,
    so x conj(y) is the sum of those entries c times zeta^(e - len(y) + 1),
    and conj(x) y the same with each exponent negated.  One `_power_sum`
    writes the difference in the power basis.
    """
    terms = [(e - len(y) + 1, c) for e, c in enumerate(_poly_mul_int(x, y[::-1])) if c]
    return tuple(_power_sum(itertools.chain(terms, [(-e, -c) for e, c in terms]), n))


def exact_collinear(x, y, z, n: int) -> bool:
    """S(y - x, z - x) == 0 for int coefficient vectors x, y, z at conductor n."""
    u = [s - t for s, t in zip(y, x)]
    v = [s - t for s, t in zip(z, x)]
    return not any(pair_vec(u, v, n))


def collinearity(vecs, n: int, F, G, p: int):
    """The exact triple test collinear(i, j, k) on int vectors x_i at
    conductor n, the points scaled by their common denominator (a positive
    scale keeps every collinearity), with one residue pair F_i = x_i(omega),
    G_i = conj(x_i)(omega) mod p per point from `residue_field(n)`.  The
    residue of S = S(x_j - x_i, x_k - x_i) is
    r = (F_j - F_i)(G_k - G_i) - (G_j - G_i)(F_k - F_i) mod p.

    - r != 0: S != 0 under the ring map zeta_n -> omega, so the triple is
      not collinear.
    - r == 0 and (8 L^2)^phi(n) < p, with L the largest coefficient sum
      sum(|c|) of a scaled point: the triple is collinear.  The kernel of
      the ring map is a prime of Z[zeta_n] of norm p, and it holds S, so
      p divides N(S).  Every embedding sends x_j - x_i and x_k - x_i to at
      most 2L in absolute value, so S to at most 2 (2L)(2L) = 8 L^2, and
      |N(S)| <= (8 L^2)^phi(n) < p.  So N(S) = 0, and S = 0.
    - r == 0 otherwise: the exact `pair_vec` decides.
    """
    L = max((sum(map(abs, v)) for v in vecs), default=0)
    certified = (8 * L * L) ** phi(n) < p

    def collinear(i, j, k):
        fi, gi = F[i], G[i]
        if ((F[j] - fi) * (G[k] - gi) - (G[j] - gi) * (F[k] - fi)) % p:
            return False
        return certified or exact_collinear(vecs[i], vecs[j], vecs[k], n)

    return collinear


def lines_through(i, js, F, G, p, same):
    """Group the points js into lines through point i, yielding for each j
    the line it joins: a list of indices, new if it holds j alone.

    Point j has the key (F_j - F_i) / (G_j - G_i) mod p, or none if
    G_j = G_i, for residue pairs F, G mod p as from `fingerprints`.  On a
    line through i the residue of S(x_k - x_i, x_j - x_i),
    (F_k - F_i)(G_j - G_i) - (G_k - G_i)(F_j - F_i), vanishes, so points
    with keys share their key.  So the exact `same(k, j)` tests j only
    against the first point k of each line with j's key or with no key,
    and a keyless j against every line.  Keys are kept times the product
    of every nonzero G_j - G_i, one factor for all, so none is inverted.
    """
    dgs = [(G[j] - G[i]) % p for j in js]
    factors = [d or 1 for d in dgs]
    before = list(itertools.accumulate(factors, lambda a, b: a * b % p, initial=1))
    after = list(itertools.accumulate(factors[::-1], lambda a, b: a * b % p, initial=1))[::-1]
    lines, keyless, keyed = [], [], {}
    for t, (j, dg) in enumerate(zip(js, dgs)):
        if dg:
            group = keyed.setdefault((F[j] - F[i]) * before[t] * after[t + 1] % p, [])
            rivals = itertools.chain(group, keyless)
        else:
            group, rivals = keyless, lines
        line = next((line for line in rivals if same(line[0], j)), [])
        if not line:
            lines.append(line)
            group.append(line)
        line.append(j)
        yield line


def squared_distance(p: CycNum, q: CycNum) -> CycNum:
    """|p - q|^2 as an exact real cyclotomic number."""
    w = p - q
    return w * w.conj()


def _horner(coeffs, x: int, p: int) -> int:
    """sum(coeffs[k] * x^k) mod p."""
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 37: deterministic for 37 < n < 3.1e23."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# P - 1 = 14 lcm(1..42) = 2^6 3^3 5^2 7^2 11 13 17 19 23 29 31 37 41, and 43
# generates (Z/P)^*: every conductor the constructions reach divides P - 1
SMOOTH_PRIME = 14 * math.lcm(*range(1, 43)) + 1


@lru_cache(maxsize=None)
def residue_field(n: int) -> tuple:
    """(p, omega): a prime p = 1 (mod n) above 2^61 and omega of order
    exactly n mod p, so that zeta_n -> omega maps Z[zeta_n] onto Z/p.

    When n divides P - 1, with P = `SMOOTH_PRIME`, p = P and omega =
    43^((P-1)/n), 43 being a generator mod P; no primality test runs.  P
    is 1 (mod n) and above 2^61, so the search below would have stopped at
    P or before, and every norm bound that held for its prime holds for P.

    For any other n, such as a conductor of 43 read from a file (no
    construction makes one), p is the first prime = 1 (mod n) above 2^61,
    by Miller-Rabin on each candidate, and omega = g^((p-1)/n) for the
    first g = 2, 3, ... that gives order n.
    """
    if (SMOOTH_PRIME - 1) % n == 0:
        p = SMOOTH_PRIME
        omega = pow(43, (p - 1) // n, p)
    else:
        p = (2**61 // n + 1) * n + 1
        while not _is_prime(p):
            p += n
        for g in range(2, p):
            omega = pow(g, (p - 1) // n, p)
            if all(pow(omega, n // q, p) != 1 for q in _prime_factors(n)):
                break
    assert _horner(cyclotomic_polynomial(n), omega, p) == 0, f"omega is no root of Phi_{n} mod {p}"
    return p, omega


def fingerprints(vecs, n: int, big: int):
    """Residues [x(eta) for x in vecs] and [x(1/eta) for x in vecs] mod p of
    int coefficient vectors at conductor n, where (p, omega) =
    residue_field(big) and eta = omega^(big/n): the residues of each x and
    conj(x) lifted to conductor big, without the lift.

    Each residue is one sum of c_i * eta^(+-i) over the nonzero c_i, read
    from one table of the powers of eta and one of eta^-1, reduced once.
    """
    p, omega = residue_field(big)
    eta = pow(omega, big // n, p)
    width = max(map(len, vecs), default=1)
    tables = [list(itertools.accumulate(itertools.repeat(root, width - 1), lambda a, b: a * b % p, initial=1))
              for root in (eta, pow(eta, -1, p))]
    return [[sum(map(mul, itertools.compress(x, x), itertools.compress(t, x))) % p for x in vecs] for t in tables]

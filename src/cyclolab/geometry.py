"""Exact plane geometry for points with cyclotomic coordinates.

A point is a CycNum viewed as a complex number.  Collinearity of p, q, r
is the vanishing of Im((q - p) * conj(r - p)), tested exactly through
the antisymmetric pairing S(x, y) = x * conj(y) - conj(x) * y:

    collinear(p, q, r)  <=>  S(q, r) - S(q, p) - S(p, r) = 0.

Precomputing S over all pairs turns each triple test into a few tuple
subtractions, and S updates cheaply under translation doubling.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycNum, _map_coeffs

_F0 = Fraction(0)


def lift_all(points):
    """Common-conductor copies of the given points: (conductor, list)."""
    conductor = 1
    for p in points:
        conductor = math.lcm(conductor, p.conductor)
    return conductor, [p.lift(conductor) for p in points]


def cross_value(p: CycNum, q: CycNum, r: CycNum) -> CycNum:
    """The pairing whose vanishing means p, q, r are collinear."""
    u = q - p
    v = r - p
    w = u * v.conj()
    return w - w.conj()


def collinear(p: CycNum, q: CycNum, r: CycNum) -> bool:
    return cross_value(p, q, r).is_zero()


def pair_vec(x: CycNum, y: CycNum):
    w = x * y.conj()
    return tuple((w - w.conj()).coeffs)


def cross_matrix(points):
    """S(x_i, x_j) for all pairs, as coefficient tuples.

    The points must already share one conductor.
    """
    n = len(points)
    width = len(points[0].coeffs) if n else 0
    zero = (_F0,) * width
    mat = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = pair_vec(points[i], points[j])
            mat[i][j] = v
            mat[j][i] = tuple(-x for x in v)
    return mat


def lift_matrix(mat, old_conductor, new_conductor):
    """Re-express every matrix entry in a larger conductor."""
    if new_conductor == old_conductor:
        return mat
    return [
        [_map_coeffs(entry, old_conductor, new_conductor) for entry in row]
        for row in mat
    ]


def translated_union_matrix(mat, shifts):
    """Cross matrix of points + [p + a for p in points].

    `mat` is the cross matrix of the original points and `shifts[i]` is
    the pair vector S(x_i, a).  Translation only shifts the pairing by
    those per-point terms, so no field multiplications are needed.
    """
    n = len(mat)
    out = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        si = shifts[i]
        for j in range(n):
            base = mat[i][j]
            sj = shifts[j]
            out[i][j] = base
            out[i][n + j] = tuple(b + s for b, s in zip(base, si))
            out[n + i][j] = tuple(b - s for b, s in zip(base, sj))
            out[n + i][n + j] = tuple(b + x - y for b, x, y in zip(base, si, sj))
    return out


def first_collinear_triple(mat, min_newest: int = 0):
    """First triple i < j < c with c >= min_newest that is collinear.

    Passing min_newest skips triples known collinearity-free from an
    earlier check of the prefix.
    """
    n = len(mat)
    for c in range(max(min_newest, 2), n):
        col_c = [row[c] for row in mat]
        for i in range(c - 1):
            sic = col_c[i]
            row_i = mat[i]
            for j in range(i + 1, c):
                e = mat[j][c]
                f = row_i[j]
                for x, y, z in zip(e, f, sic):
                    if x + y - z:
                        break
                else:
                    return (i, j, c)
    return None


def squared_distance(p: CycNum, q: CycNum) -> CycNum:
    """|p - q|^2 as an exact real cyclotomic number."""
    w = p - q
    return w * w.conj()


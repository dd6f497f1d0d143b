"""Exact plane geometry for points with cyclotomic coordinates.

A point is a CycNum viewed as a complex number.  Collinearity of p, q, r
is the vanishing of Im((q - p) * conj(r - p)), tested exactly through
the antisymmetric pairing S(x, y) = x * conj(y) - conj(x) * y:

    collinear(p, q, r)  <=>  S(q, r) - S(q, p) - S(p, r) = 0.

Precomputing S over all pairs turns each triple test into a few tuple
subtractions, and S updates cheaply under translation doubling.  The
pairing tables hold int tuples: coordinates are scaled by one common
denominator d first, and S(dx, dy) = d^2 S(x, y) keeps every zero test.
"""

from __future__ import annotations

import math

from .cyclotomic import CycNum, _apply_int_rows, _int_product, _map_ints, _monomial_images, phi


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


def pair_vec(x, y, n: int) -> tuple:
    """S(x, y) for int coefficient vectors x, y at conductor n."""
    width = phi(n)
    conj = _monomial_images(n, n, n - 1)
    w = _int_product(x, _apply_int_rows(conj, y, width), n)
    return tuple(a - b for a, b in zip(w, _apply_int_rows(conj, w, width)))


def common_scale(points):
    """The points' int coefficient vectors over their common denominator."""
    den = math.lcm(*(p.den for p in points))
    return [[x * (den // p.den) for x in p.nums] for p in points]


def cross_matrix(points):
    """S(x_i, x_j) for all pairs, as int tuples.

    The points must already share one conductor.  All coordinates are
    scaled by one common denominator first, which scales every entry by
    the same positive square and so keeps every collinearity test.
    """
    n = len(points)
    conductor = points[0].conductor if n else 1
    vecs = common_scale(points)
    zero = (0,) * phi(conductor)
    mat = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = pair_vec(vecs[i], vecs[j], conductor)
            mat[i][j] = v
            mat[j][i] = tuple(-x for x in v)
    return mat


def lift_vectors(vecs, old_conductor, new_conductor):
    """Re-express int coefficient vectors in a larger conductor."""
    if new_conductor == old_conductor:
        return vecs
    return [tuple(_map_ints(v, old_conductor, new_conductor)) for v in vecs]


def lift_matrix(mat, old_conductor, new_conductor):
    """Re-express every matrix entry in a larger conductor."""
    return [lift_vectors(row, old_conductor, new_conductor) for row in mat]


def translated_union_matrix(mat, shifts):
    """Cross matrix of points + [p + a for p in points].

    `mat` is the cross matrix of the original points and `shifts[i]` is
    the pair vector S(x_i, a), all int tuples at one scale.  Translation
    only shifts the pairing by those per-point terms, so no field
    multiplications are needed.
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


"""Independent checks of the library's outputs.

Each check recomputes a cheap identity along a different path than the
library: determinants by elimination instead of the Faddeev-LeVerrier
recurrence, the O(n^2) closed form of the Frobenius projection instead of two
matrix products, eigenvector equations instead of the update formula, and
NumPy eigenvalues for the float realizations.  Exact checks work on plain
tuples of Fractions and use literal equality; float checks use the library's
own tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Grid = tuple[tuple[Fraction, ...], ...]


def det(grid) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination: each row is scaled
    to integers by the LCM of its denominators, so the work stays in ints."""
    rows, scale = [], 1
    for row in grid:
        d = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in map(Fraction, row)])
        scale *= d
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            ri, rik = rows[i], rows[i][k]
            rows[i] = ri[: k + 1] + [
                (ri[j] * pk - rik * rows[k][j]) // prev for j in range(k + 1, n)
            ]
        prev = pk
    return Fraction(sign * rows[-1][-1], scale)


def char_det(grid, t) -> Fraction:
    """det(tI - A) at one rational point."""
    n = len(grid)
    return det(
        [[(t if i == j else 0) - grid[i][j] for j in range(n)] for i in range(n)]
    )


def horner(coeffs, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def row_sums(grid) -> list[Fraction]:
    return [sum(row) for row in grid]


def col_sums(grid) -> list[Fraction]:
    return [sum(col) for col in zip(*grid)]


def col_mins(grid) -> list[Fraction]:
    return [min(col) for col in zip(*grid)]


def charpoly_failures(grid, coeffs) -> list[str]:
    """c_0 = (-1)^n det A, c_{n-1} = -tr A, monic of degree n, and agreement
    with det(2I - A) at x = 2 (which catches a change to any coefficient)."""
    n = len(grid)
    bad = []
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return [f"charpoly is not monic of degree {n}"]
    if coeffs[n - 1] != -sum(grid[i][i] for i in range(n)):
        bad.append("charpoly c_{n-1} != -tr A")
    if coeffs[0] != (-1) ** n * det(grid):
        bad.append("charpoly c_0 != (-1)^n det A")
    if horner(coeffs, 2) != char_det(grid, 2):
        bad.append("charpoly(2) != det(2I - A)")
    return bad


def column_offsets(a, b) -> list[Fraction] | None:
    """The offsets y_j with b_ij = a_ij + y_j, or None if b is not of that form."""
    offsets = [bj - aj for aj, bj in zip(a[0], b[0])]
    for ra, rb in zip(a, b):
        if any(y - x != o for x, y, o in zip(ra, rb, offsets)):
            return None
    return offsets


def balance_failures(a, r: Fraction, eps: Fraction, b, at_threshold: bool,
                     points=(2, -3)) -> list[str]:
    """b must be a plus column offsets, nonnegative, with every row and column
    summing to r + eps, and satisfy charpoly(B)(x - r) = charpoly(A)(x - r - eps)
    at the given points.  At the threshold b must also have a zero entry,
    which makes eps the least feasible shift.

    The offsets and sums alone already fix b; the charpoly identity checks
    the construction's claim, and costs two determinants per point, so large
    matrices check it at fewer points."""
    bad = []
    if column_offsets(a, b) is None:
        bad.append("balanced matrix is not A plus column offsets")
    if any(e < 0 for row in b for e in row):
        bad.append("balanced matrix has a negative entry")
    if at_threshold and not any(e == 0 for row in b for e in row):
        bad.append("threshold balance has no zero entry")
    target = r + eps
    if any(s != target for s in row_sums(b)) or any(s != target for s in col_sums(b)):
        bad.append("balanced row/column sums != r + eps")
    for t in map(Fraction, points):
        if char_det(b, t) * (t - r) != char_det(a, t) * (t - r - eps):
            bad.append(f"charpoly(B)(x-r) != charpoly(A)(x-r-eps) at x={t}")
    return bad


def nearest_closed_form(a) -> Grid:
    """b_ij = a_ij - r_i/n - x_j/n + s/n^2 + 1/n, the Frobenius projection onto
    unit row and column sums, in O(n^2)."""
    n = len(a)
    r = row_sums(a)
    x = col_sums(a)
    s = sum(r)
    base = s / (n * n) + Fraction(1, n)
    return tuple(
        tuple(a[i][j] - r[i] / n - x[j] / n + base for j in range(n)) for i in range(n)
    )


def distance_sq(a, b) -> Fraction:
    return sum((x - y) ** 2 for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rado_failures(a, r: Fraction, crow, d) -> list[str]:
    """Rank-one update along the all-ones eigenvector: every row of D - A is C,
    and D 1 = (r + C 1) 1."""
    bad = []
    if any(tuple(y - x for x, y in zip(ra, rd)) != tuple(crow) for ra, rd in zip(a, d)):
        bad.append("rado update is not A + 1 C")
    lam = r + sum(crow)
    if any(s != lam for s in row_sums(d)):
        bad.append("all-ones vector is not an eigenvector of the update for r + C 1")
    return bad


def den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


# ---------------------------------------------------------------------------
# float certificates


def sum_err(arr: np.ndarray, target: float) -> float:
    """Largest deviation of a row or column sum from target."""
    return float(
        max(np.abs(arr.sum(axis=0) - target).max(), np.abs(arr.sum(axis=1) - target).max())
    )


def coeff_residual(got, want) -> float:
    """Largest gap between two coefficient lists."""
    return max(abs(g - w) for g, w in zip(got, want))


def matched_eig_err(computed, target) -> float:
    """Largest distance between a target entry and the computed eigenvalue
    matched to it.

    Fixed nearest-match rule: targets in ascending (re, im) order each take
    the nearest computed eigenvalue not yet taken, the lower index winning
    ties.
    """
    free = list(computed)
    worst = 0.0
    for t in sorted(target, key=lambda z: (z.real, z.imag)):
        dists = [abs(c - t) for c in free]
        k = min(range(len(free)), key=dists.__getitem__)
        worst = max(worst, dists[k])
        free.pop(k)
    return worst

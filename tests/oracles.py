"""Shared fixtures and independent oracle implementations for the test suite.

Every oracle here recomputes a quantity along a different path than the
library (termwise inequality scans, generic linear solves, cofactor
determinants, Fraction row reduction, literal matrix products), so agreement
is evidence, not tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dstoch import Poly, RatMatrix, parse_matrix

# ---------------------------------------------------------------------------
# fixture matrices (worked examples used across the suite)

#: stochastic, spectrum (1, 0, 1/4), column sums (3/4, 3/4, 3/2)
A_UNEVEN = parse_matrix("1/3 1/3 1/3\n1/4 1/4 1/2\n1/6 1/6 2/3")

#: the balanced matrix of A_UNEVEN at its threshold shift -1/2
X_MIN = parse_matrix("1/4 1/4 0\n1/6 1/6 1/6\n1/12 1/12 1/3")

#: stochastic with a zero column, spectrum (1, 1/3, 0)
A_ZEROCOL = parse_matrix("2/3 1/3 0\n1/3 2/3 0\n1/2 1/2 0")

#: doubly stochastic projection of A_ZEROCOL
B_PROJ = parse_matrix("1/2 1/6 1/3\n1/6 1/2 1/3\n1/3 1/3 1/3")


# ---------------------------------------------------------------------------
# random generators (explicit rng everywhere for reproducibility)


def rand_fraction(rng: random.Random, lo=-3, hi=3, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_matrix(rng: random.Random, n: int, lo=-3, hi=3, max_den=4) -> RatMatrix:
    return RatMatrix(
        [[rand_fraction(rng, lo, hi, max_den) for _ in range(n)] for _ in range(n)]
    )


def rand_nonneg_row_constant(
    rng: random.Random, n: int, max_den: int = 12
) -> RatMatrix:
    """Nonnegative matrix with constant row sums; entry denominators <= max_den."""
    den = rng.randint(1, max_den)
    total = rng.randint(n, 4 * n)  # row sum = total/den
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        rows.append([Fraction(p, den) for p in parts])
    return RatMatrix(rows)


def rand_stochastic(rng: random.Random, n: int, max_den: int = 12) -> RatMatrix:
    """Nonnegative with every row summing to exactly 1."""
    rows = []
    for _ in range(n):
        den = rng.randint(1, max_den)
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        rows.append([Fraction(p, den) for p in parts])
    return RatMatrix(rows)


def rand_doubly_stochastic(rng: random.Random, n: int, terms: int = 3) -> RatMatrix:
    """Convex combination of random permutation matrices, exact."""
    weights = [rng.randint(1, 9) for _ in range(terms)]
    total = sum(weights)
    acc = RatMatrix.zeros(n)
    for w in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        p = RatMatrix([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
        acc = acc + Fraction(w, total) * p
    return acc


def rand_rank_deficient(rng: random.Random, n: int, max_den: int = 997) -> RatMatrix:
    """Singular matrix: fewer than n sparse random rows plus rational
    combinations of them (all zero when there are none), shuffled so that
    pivots often need a row swap, and sometimes with a zeroed column.
    Entry denominators up to max_den before the combinations mix them."""
    rank = rng.randint(0, n - 1)
    base = [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
            if rng.random() < 0.7
            else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(rank)
    ]
    rows = list(base)
    for _ in range(n - rank):
        coefs = [Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coefs, base)) for j in range(n)])
    rng.shuffle(rows)
    if rng.random() < 0.4:
        zero = rng.randrange(n)
        for r in rows:
            r[zero] = Fraction(0)
    return RatMatrix(rows)


def rand_invertible(rng: random.Random, n: int) -> RatMatrix:
    while True:
        m = rand_matrix(rng, n, lo=-2, hi=2, max_den=2)
        try:
            invert(m)
        except ValueError:
            continue
        return m


# ---------------------------------------------------------------------------
# independent exact linear algebra


def invert(a: RatMatrix) -> RatMatrix:
    """Gauss-Jordan inverse, raising ValueError on singular input."""
    n = a.require_square()
    m = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[col])]
    return RatMatrix([row[n:] for row in m])


def solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a square exact linear system by elimination; ValueError if singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [e * inv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def nullspace_rref(a: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Kernel basis read off the reduced row echelon form, computed over
    Fractions with the library's pivot rule (first nonzero entry per column).
    RREF is unique, so any exact kernel with that rule returns these tuples."""
    n = a.require_square()
    m = [list(row) for row in a.rows]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [e * inv for e in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[row])]
        pivot_cols.append(col)
        row += 1
        if row == n:
            break
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivot_cols):
            v[c] = -m[r][free]
        basis.append(tuple(v))
    return basis


def nearest_ds_matmul(a: RatMatrix) -> RatMatrix:
    """The projection (I-J)A(I-J) + J as two literal matrix products."""
    n = a.require_square()
    j = RatMatrix([[Fraction(1, n)] * n for _ in range(n)])
    p = RatMatrix.identity(n) - j
    return p @ a @ p + j


def poly_from_roots_product(entries) -> Poly:
    """Monic polynomial of a conjugate-closed list of (re, im) pairs, as a
    product of Fraction ``Poly`` factors: x - re for each real entry and
    x^2 - 2 re x + re^2 + im^2 for each entry with im > 0."""
    p = Poly([1])
    for re_k, im_k in entries:
        re_k, im_k = Fraction(re_k), Fraction(im_k)
        if im_k > 0:
            p = p * Poly([re_k * re_k + im_k * im_k, -2 * re_k, 1])
        elif im_k == 0:
            p = p * Poly.x_minus(re_k)
    return p


def charpoly_cofactor(a: RatMatrix) -> Poly:
    """det(xI - A) by recursive cofactor expansion over polynomial entries."""
    n = a.require_square()
    grid = [
        [
            Poly([-a[i, j], 1]) if i == j else Poly([-a[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows: list[list[Poly]]) -> Poly:
        k = len(rows)
        if k == 1:
            return rows[0][0]
        acc = Poly([0])
        sign = 1
        for j in range(k):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * det(minor)
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        return acc

    return det(grid)


# ---------------------------------------------------------------------------
# brute-force oracles for the balancing construction


def offsets_by_linear_solve(a: RatMatrix, y_m: Fraction) -> list[Fraction]:
    """Solve the defining equations n*y_j + x_j = r + sum(y) directly,
    with the heaviest column's offset fixed, then check the dropped equation."""
    n = a.n_rows
    r = a.row_sums()[0]
    x = a.col_sums()
    m = x.index(max(x))
    others = [j for j in range(n) if j != m]
    if not others:
        return [Fraction(y_m)]
    # unknowns y_j (j != m): n*y_j - sum_{k != m} y_k = r + y_m - x_j
    lhs = [
        [Fraction(n if k == j else 0) - 1 for k in others]
        for j in others
    ]
    rhs = [r + y_m - x[j] for j in others]
    sol = solve(lhs, rhs)
    y = [Fraction(0)] * n
    y[m] = Fraction(y_m)
    for j, v in zip(others, sol):
        y[j] = v
    total = sum(y)
    assert n * y[m] + x[m] == r + total, "dropped equation must hold"
    return y


def threshold_by_inequality_scan(a: RatMatrix) -> tuple[Fraction, Fraction]:
    """Least feasible (y_m, eps) from the termwise nonnegativity inequalities.

    For j != m the bound comes from a_j + r + y_m - (sum of all column sums
    except x_m, with x_j counted twice)/n >= 0; the heaviest column itself
    contributes a_m + y_m >= 0.  No algebraic simplification is used.
    """
    n = a.n_rows
    r = a.row_sums()[0]
    x = a.col_sums()
    mins = [min(a.col(j)) for j in range(n)]
    m = x.index(max(x))
    bounds = [-mins[m]]
    for j in range(n):
        if j == m:
            continue
        s = sum(x[k] for k in range(n) if k != m) + x[j]
        bounds.append(Fraction(s, n) - mins[j] - r)
    y_min = max(bounds)
    eps_min = n * y_min + x[m] - r
    return y_min, eps_min


# ---------------------------------------------------------------------------
# cheap exact sampling of matrices with unit row and column sums


def rand_unit_sums(rng: random.Random, n: int, moves: int = 4) -> RatMatrix:
    """Uniform matrix plus elementary zero-row/col-sum perturbations.

    Built over ints with D = 6n: 1/n is 6/D and each perturbation z = p/q
    with q <= 3 is p*(D/q)/D."""
    unit = Fraction(1, n)
    if n == 1:
        return RatMatrix([[unit]])
    d = 6 * n
    rows = [[6] * n for _ in range(n)]
    for _ in range(moves):
        i, k = rng.sample(range(n), 2)
        j, l = rng.sample(range(n), 2)
        z = rng.randint(-2, 2) * (d // rng.randint(1, 3))
        rows[i][j] += z
        rows[i][l] -= z
        rows[k][j] -= z
        rows[k][l] += z
    return RatMatrix([[unit if v == 6 else Fraction(v, d) for v in row] for row in rows])


def rand_unit_disk_spectrum(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """Conjugate-closed rational spectrum, dominant entry 1, inside the unit disk."""
    entries = [(Fraction(1), Fraction(0))]
    room = n - 1
    while room > 0:
        if room >= 2 and rng.random() < 0.4:
            re = Fraction(rng.randint(-6, 6), 12)
            im = Fraction(rng.randint(1, 6), 12)
            if re * re + im * im <= 1:
                entries.append((re, im))
                entries.append((re, -im))
                room -= 2
        else:
            entries.append((Fraction(rng.randint(-12, 12), 12), Fraction(0)))
            room -= 1
    return entries

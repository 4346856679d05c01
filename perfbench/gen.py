"""Seeded input generators for the benchmark workloads.

Nothing here imports the test suite, so editing a test can never shift the
benchmark's inputs.  Every generator draws from an explicit ``random.Random``
(or a NumPy generator seeded from it): the same seed gives the same inputs.

Generators return plain Python data (integer pairs, Fractions, text, NumPy
arrays); ``tasks`` turns them into the library's types.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

#: row denominators of the two exact regimes.  Every input of a regime uses
#: the same set (in a seeded order), so the size of the fractions, and with it
#: the cost of a task, changes little from seed to seed; only numerators vary.
SMALL_DENS = (7, 8, 9, 10, 11, 12)
WIDE_DENS = (907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997)


def split_row(rng: random.Random, n: int, total: int) -> list[int]:
    """n nonnegative integers summing to total (uniform random cuts)."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def row_dens(rng: random.Random, n: int, dens: tuple[int, ...]) -> list[int]:
    """n row denominators: the regime's set, shuffled, repeated as needed."""
    order = list(dens)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(n)]


def stochastic_pairs(rng: random.Random, n: int, dens: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Row-stochastic matrix as (numerator, denominator) pairs, not reduced.

    Each row's numerators are a random composition of its denominator, so
    the row sums to exactly 1.
    """
    return [[(p, d) for p in split_row(rng, n, d)] for d in row_dens(rng, n, dens)]


def row_constant_pairs(rng: random.Random, n: int, dens: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Nonnegative matrix whose rows all sum to the same r = total/d, r != 1,
    with d the regime's largest denominator."""
    d = max(dens)
    total = d * rng.randint(2, 4) + rng.randint(1, d - 1)
    return [[(p, d) for p in split_row(rng, n, total)] for _ in range(n)]


def to_fractions(pairs) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(p, q) for p, q in row) for row in pairs)


def to_text(pairs) -> str:
    """Matrix text as a user might write it: unreduced p/q, bare 0, a comment."""
    lines = ["# seeded benchmark input"]
    for row in pairs:
        lines.append(" ".join("0" if p == 0 else f"{p}/{q}" for p, q in row))
    return "\n".join(lines) + "\n"


def small_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Row of small signed fractions, for a rank-one update."""
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))


def permuted(grid, rng: random.Random):
    """P A P^T for a random permutation P: cospectral with A by construction."""
    n = len(grid)
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(grid[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def doubly_stochastic(rng: random.Random, n: int, terms: int = 3):
    """Convex combination of random permutation matrices, exact."""
    weights = [rng.randint(1, 9) for _ in range(terms)]
    total = sum(weights)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for w in weights:
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            grid[i][perm[i]] += Fraction(w, total)
    return tuple(tuple(row) for row in grid)


def unit_disk_spectrum(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """Conjugate-closed rational spectrum of size n: dominant entry 1 first,
    every other entry strictly inside the unit disk."""
    entries = [(Fraction(1), Fraction(0))]
    while len(entries) < n:
        if n - len(entries) >= 2 and rng.random() < 0.4:
            re = Fraction(rng.randint(-6, 6), 12)
            im = Fraction(rng.randint(1, 6), 12)
            if re * re + im * im < 1:
                entries += [(re, im), (re, -im)]
        else:
            entries.append((Fraction(rng.randint(-11, 11), 12), Fraction(0)))
    return entries


def positive_array(rng: random.Random, n_rows: int, n_cols: int) -> np.ndarray:
    """Entrywise positive float matrix (entries in [0.05, 1.05))."""
    return np.random.default_rng(rng.getrandbits(64)).random((n_rows, n_cols)) + 0.05

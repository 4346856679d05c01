"""Acceptance suite: every release criterion, one test each, with a printed
pass/fail line per criterion (run with `pytest -s` to see the lines).

Exact criteria use zero tolerance: equalities are Fraction equalities.
Stated runtime bounds are enforced.
"""

import functools
import random
import time
from fractions import Fraction

import numpy as np

from dstoch import (
    FloatMatrix,
    Poly,
    RadoUpdate,
    RatMatrix,
    SpectrumList,
    Stochasticity,
    balance,
    balance_minimal,
    balance_offsets,
    canonical_basis,
    charpoly,
    charpoly_float,
    classify,
    cospectral,
    cospectral_ds,
    ds_condition,
    embed,
    epsilon_threshold,
    extract,
    frobenius_distance_sq,
    nearest_ds,
    poly_from_spectrum,
    rado_update,
    realize_cospectral,
    realize_nonneg,
    shift,
    similar_to_unit_sums,
    uniform_matrix,
)
from oracles import (
    A_UNEVEN,
    A_ZEROCOL,
    B_PROJ,
    X_MIN,
    invert,
    offsets_by_linear_solve,
    rand_doubly_stochastic,
    rand_invertible,
    rand_matrix,
    rand_nonneg_row_constant,
    rand_stochastic,
    rand_unit_disk_spectrum,
    rand_unit_sums,
    threshold_by_inequality_scan,
)


def criterion(num: int, bound_s: float, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[acceptance] criterion {num}: FAIL - {desc}")
                raise
            elapsed = time.perf_counter() - start
            if elapsed >= bound_s:
                print(
                    f"[acceptance] criterion {num}: FAIL - {desc} "
                    f"(overtime: {elapsed:.2f}s >= {bound_s:g}s)"
                )
                raise AssertionError(
                    f"criterion {num} exceeded its {bound_s:g}s budget: {elapsed:.2f}s"
                )
            print(f"[acceptance] criterion {num}: PASS - {desc} ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, 1.0, "pinned balancing example reproduces bit-exactly")
def test_criterion_1():
    assert A_UNEVEN.col_sums() == (Fraction(3, 4), Fraction(3, 4), Fraction(3, 2))
    rep = balance_minimal(A_UNEVEN)
    assert rep.y_threshold == Fraction(-1, 3)
    assert rep.b_min == X_MIN
    assert charpoly(X_MIN) == Poly([0, Fraction(1, 8), Fraction(-3, 4), 1])
    lifted = shift(X_MIN, Fraction(1, 2))
    assert classify(lifted).tag is Stochasticity.DOUBLY_STOCHASTIC
    assert charpoly(lifted) == Poly([0, Fraction(1, 4), Fraction(-5, 4), 1])


@criterion(2, 1.0, "pinned projection example reproduces bit-exactly")
def test_criterion_2():
    assert ds_condition(A_ZEROCOL).holds
    assert cospectral_ds(A_ZEROCOL) == B_PROJ
    assert nearest_ds(A_ZEROCOL) == B_PROJ
    assert cospectral(A_ZEROCOL, B_PROJ)
    assert charpoly(A_ZEROCOL) == Poly([0, Fraction(1, 3), Fraction(-4, 3), 1])


@criterion(3, 10.0, "single-column boundary family has threshold exactly -r")
def test_criterion_3():
    for n in range(1, 9):
        for r in (Fraction(1), Fraction(2), Fraction(5, 3)):
            a = RatMatrix([[r if j == 0 else 0 for j in range(n)] for _ in range(n)])
            assert epsilon_threshold(a) == -r


@criterion(4, 120.0, "balanced family: exact spectrum identity, tightness, oracle agreement")
def test_criterion_4():
    rng = random.Random(20240)
    one_thousandth = Fraction(1, 1000)
    for _ in range(1000):
        n = rng.randint(1, 6)
        a = rand_nonneg_row_constant(rng, n, max_den=12)
        r = a.row_sums()[0]
        thr = epsilon_threshold(a)
        p_a = charpoly(a)
        shifts = [thr, thr + Fraction(1, 7)]
        if thr <= 0:
            shifts.append(Fraction(0))
        for eps in shifts:
            b = balance(a, eps)
            assert charpoly(b) * Poly.x_minus(r) == p_a * Poly.x_minus(r + eps)
        at_thr = balance(a, thr)
        assert at_thr.min_entry() == 0
        below = at_thr + (-one_thousandth) * uniform_matrix(n)
        assert below.min_entry() < 0
        y_min, eps_min = threshold_by_inequality_scan(a)
        assert eps_min == thr
        assert balance_minimal(a).y_threshold == y_min
        y_m = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert list(balance_offsets(a, y_m)) == offsets_by_linear_solve(a, y_m)


@criterion(5, 120.0, "projection: idempotent, affine, unit sums, sampled minimality")
def test_criterion_5():
    rng = random.Random(20241)
    for _ in range(1000):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        best = nearest_ds(a)
        assert best.row_sums() == (1,) * n
        assert best.col_sums() == (1,) * n
        # exact optimality certificate: A - B = u 1^T + 1 v^T, i.e. every
        # g_ij - g_i0 - g_0j + g_00 of G = A - B is 0, and B has unit sums
        g = (a - best).rows
        assert all(
            g[i][j] - g[i][0] - g[0][j] + g[0][0] == 0 for i in range(n) for j in range(n)
        )
        assert nearest_ds(best) == best
        lam = Fraction(rng.randint(-2, 3), rng.randint(1, 4))
        other = rand_matrix(rng, n)
        assert nearest_ds(lam * a + (1 - lam) * other) == lam * best + (
            1 - lam
        ) * nearest_ds(other)
        d_best = frobenius_distance_sq(a, best)
        for _ in range(200):
            c = rand_unit_sums(rng, n)
            d = frobenius_distance_sq(a, c)
            assert d >= d_best
            if d == d_best:
                assert c == best


@criterion(6, 60.0, "rank-r perturbation: exact characteristic polynomial identity")
def test_criterion_6():
    rng = random.Random(20242)
    for _ in range(300):
        n = rng.randint(1, 4)
        r = rng.randint(1, min(2, n))
        lams = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        p = rand_invertible(rng, n)
        d = RatMatrix([[lams[i] if i == j else 0 for j in range(n)] for i in range(n)])
        a = p @ d @ invert(p)
        x = RatMatrix([[p[i, k] for k in range(r)] for i in range(n)])
        c = RatMatrix(
            [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(r)
            ]
        )
        out = rado_update(a, RadoUpdate(a, x, c, lams[:r]))
        lam_block = RatMatrix(
            [[lams[i] if i == j else 0 for j in range(r)] for i in range(r)]
        )
        assert charpoly(out) * charpoly(lam_block) == charpoly(
            lam_block + c @ x
        ) * charpoly(a)


@criterion(7, 10.0, "unit-eigenspace pairing checker: known positives and negatives")
def test_criterion_7():
    assert similar_to_unit_sums(A_ZEROCOL)
    rng = random.Random(20243)
    for _ in range(100):
        assert similar_to_unit_sums(rand_doubly_stochastic(rng, rng.randint(1, 6)))
    jordan = RatMatrix([[1, 1], [0, 1]])
    assert not similar_to_unit_sums(jordan)
    for copies in (2, 3):
        n = 2 * copies
        rows = [[Fraction(0)] * n for _ in range(n)]
        for b in range(copies):
            rows[2 * b][2 * b] = Fraction(1)
            rows[2 * b][2 * b + 1] = Fraction(1)
            rows[2 * b + 1][2 * b + 1] = Fraction(1)
        assert not similar_to_unit_sums(RatMatrix(rows))


@criterion(8, 60.0, "float realization: sums, spectra, nonnegativity, round-trips")
def test_criterion_8():
    rng = random.Random(20244)
    for _ in range(200):
        n = rng.randint(1, 10)
        s = SpectrumList(rand_unit_disk_spectrum(rng, n))
        b = realize_cospectral(s)
        assert all(abs(v - 1) <= 1e-10 for v in b.row_sums() + b.col_sums())
        want = [float(c) for c in poly_from_spectrum(s).coefficients]
        got = charpoly_float(b)
        assert all(abs(pc - qc) <= 1e-9 for pc, qc in zip(got, want))
        k, bn = realize_nonneg(s)
        assert bn.min_entry() >= -1e-10
        assert all(abs(v - (1 + k)) <= 1e-9 for v in bn.row_sums() + bn.col_sums())
        if n >= 2:
            basis = canonical_basis(n)
            x = extract(basis, b)
            assert np.abs(
                embed(basis, x).to_numpy() - b.to_numpy()
            ).max() <= 1e-10
            raw = np.array(
                [[rng.uniform(-1, 1) for _ in range(n - 1)] for _ in range(n - 1)]
            )
            rt = extract(basis, embed(basis, FloatMatrix(raw)))
            assert np.abs(rt.to_numpy() - raw).max() <= 1e-10


@criterion(9, 60.0, "cross-module coherence of the three constructions")
def test_criterion_9():
    fixtures = [A_UNEVEN, A_ZEROCOL, B_PROJ, RatMatrix.identity(4), uniform_matrix(5)]
    rng = random.Random(20245)
    for _ in range(1000):
        a = rand_stochastic(rng, rng.randint(1, 6))
        holds = ds_condition(a).holds
        assert holds == (epsilon_threshold(a) <= 0)
        if holds and len(fixtures) < 40:
            fixtures.append(a)
    for a in fixtures:
        if not ds_condition(a).holds:
            continue
        b = cospectral_ds(a)
        assert b == nearest_ds(a)
        assert b == balance(a, 0)
        assert cospectral(a, b)

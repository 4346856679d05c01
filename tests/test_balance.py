import json
import random
from fractions import Fraction

import pytest

from dstoch import (
    FloatMatrix,
    InfeasibleError,
    NormalizationError,
    Poly,
    PreconditionError,
    RatMatrix,
    Stochasticity,
    balance,
    balance_minimal,
    balance_nr,
    balance_offsets,
    charpoly,
    charpoly_float,
    classify,
    cospectral_ds,
    ds_condition,
    epsilon_threshold,
    normalize_to_stochastic,
    uniform_matrix,
)
from oracles import (
    A_UNEVEN,
    X_MIN,
    offsets_by_linear_solve,
    rand_nonneg_row_constant,
    threshold_by_inequality_scan,
)


def boundary_matrix(n: int, r) -> RatMatrix:
    """First column all r, zeros elsewhere: the extreme case of the family."""
    return RatMatrix([[Fraction(r) if j == 0 else 0 for j in range(n)] for _ in range(n)])


class TestBalanceOffsets:
    def test_known_matrix(self):
        y = balance_offsets(A_UNEVEN, Fraction(-1, 3))
        assert y == (Fraction(-1, 12), Fraction(-1, 12), Fraction(-1, 3))

    def test_uniform_columns_all_equal(self):
        y = balance_offsets(uniform_matrix(3), Fraction(2, 7))
        assert y == (Fraction(2, 7),) * 3

    def test_zero_on_doubly_stochastic(self):
        m = RatMatrix([["1/2", "1/2"], ["1/2", "1/2"]])
        assert balance_offsets(m, 0) == (0, 0)

    def test_requires_constant_row_sums(self):
        with pytest.raises(PreconditionError):
            balance_offsets(RatMatrix([[1, 0], [1, 1]]), 0)

    def test_matches_direct_linear_solve(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 6)
            a = rand_nonneg_row_constant(rng, n)
            y_m = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            assert list(balance_offsets(a, y_m)) == offsets_by_linear_solve(a, y_m)

    def test_offset_sum(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = rand_nonneg_row_constant(rng, n)
            r = a.row_sums()[0]
            x = a.col_sums()
            y_m = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            y = balance_offsets(a, y_m)
            assert sum(y) == n * y_m + max(x) - r


class TestEpsilonThreshold:
    def test_known_matrix(self):
        assert epsilon_threshold(A_UNEVEN) == Fraction(-1, 2)

    def test_boundary_family(self):
        for n in range(1, 9):
            for r in (Fraction(1), Fraction(2), Fraction(5, 3)):
                assert epsilon_threshold(boundary_matrix(n, r)) == -r

    def test_uniform(self):
        for n in range(1, 7):
            assert epsilon_threshold(uniform_matrix(n)) == -1

    def test_rejects_negative_entries(self):
        with pytest.raises(PreconditionError):
            epsilon_threshold(RatMatrix([[2, -1], [-1, 2]]))
        # negativity is reported before unequal row sums, by every entry point
        a = RatMatrix([[2, -1], [0, 0]])
        for build in (
            epsilon_threshold,
            lambda m: balance(m, 0),
            balance_minimal,
            balance_nr,
            ds_condition,
            cospectral_ds,
        ):
            with pytest.raises(PreconditionError, match="entrywise nonnegative"):
                build(a)

    def test_never_below_minus_r(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rand_nonneg_row_constant(rng, rng.randint(1, 6))
            assert epsilon_threshold(a) >= -a.row_sums()[0]


class TestBalance:
    def test_known_matrix_at_threshold(self):
        assert balance(A_UNEVEN, Fraction(-1, 2)) == X_MIN

    def test_known_matrix_at_zero(self):
        out = balance(A_UNEVEN, 0)
        from dstoch import shift

        assert out == shift(X_MIN, Fraction(1, 2))
        assert classify(out).tag is Stochasticity.DOUBLY_STOCHASTIC
        assert charpoly(out) == Poly([0, Fraction(1, 4), Fraction(-5, 4), 1])

    def test_doubly_stochastic_fixed_point(self):
        m = RatMatrix([["1/2", "1/2", 0], ["1/4", "1/4", "1/2"], ["1/4", "1/4", "1/2"]])
        assert classify(m).tag is Stochasticity.DOUBLY_STOCHASTIC
        assert balance(m, 0) == m

    def test_infeasible_shift_rejected_with_details(self):
        with pytest.raises(InfeasibleError) as exc:
            balance(A_UNEVEN, Fraction(-1, 2) - Fraction(1, 1000))
        assert exc.value.threshold == Fraction(-1, 2)
        assert exc.value.column == 3

    def test_family_is_a_line(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = rand_nonneg_row_constant(rng, n)
            thr = epsilon_threshold(a)
            e1 = thr + Fraction(rng.randint(0, 5), rng.randint(1, 4))
            e2 = thr + Fraction(rng.randint(0, 5), rng.randint(1, 4))
            b1, b2 = balance(a, e1), balance(a, e2)
            assert b1 - b2 == (e1 - e2) * uniform_matrix(n)

    def test_output_structure_and_spectrum(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            a = rand_nonneg_row_constant(rng, n)
            r = a.row_sums()[0]
            eps = epsilon_threshold(a) + Fraction(rng.randint(0, 4), rng.randint(1, 3))
            b = balance(a, eps)
            assert b.is_nonnegative()
            assert b.row_sums() == (r + eps,) * n
            assert b.col_sums() == (r + eps,) * n
            assert charpoly(b) * Poly.x_minus(r) == charpoly(a) * Poly.x_minus(r + eps)


class TestBalanceMinimal:
    def test_known_matrix_report(self):
        rep = balance_minimal(A_UNEVEN)
        assert rep.r == 1
        assert rep.x == (Fraction(3, 4), Fraction(3, 4), Fraction(3, 2))
        assert rep.a == (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3))
        assert rep.m == 3
        assert rep.y_threshold == Fraction(-1, 3)
        assert rep.epsilon_threshold == Fraction(-1, 2)
        assert rep.b_min == X_MIN
        assert rep.tight_columns == frozenset({3})
        assert rep.b_min[0, 2] == 0

    def test_boundary_matrix_report(self):
        rep = balance_minimal(boundary_matrix(4, Fraction(5, 3)))
        assert rep.epsilon_threshold == Fraction(-5, 3)
        assert rep.b_min == RatMatrix.zeros(4)

    def test_uniform_report(self):
        rep = balance_minimal(uniform_matrix(3))
        assert rep.epsilon_threshold == -1
        assert rep.b_min == RatMatrix.zeros(3)

    def test_minimum_has_zero_entry_in_tight_column(self):
        rng = random.Random(13)
        for _ in range(60):
            a = rand_nonneg_row_constant(rng, rng.randint(1, 6))
            rep = balance_minimal(a)
            assert rep.b_min.min_entry() == 0
            assert any(
                min(rep.b_min.col(j - 1)) == 0 for j in rep.tight_columns
            )

    def test_thresholds_match_inequality_scan(self):
        rng = random.Random(15)
        for _ in range(100):
            a = rand_nonneg_row_constant(rng, rng.randint(1, 6))
            rep = balance_minimal(a)
            y_min, eps_min = threshold_by_inequality_scan(a)
            assert rep.y_threshold == y_min
            assert rep.epsilon_threshold == eps_min

    def test_serialization(self):
        rep = balance_minimal(A_UNEVEN)
        text = rep.to_text()
        assert "epsilon_threshold = -1/2" in text
        assert "y_threshold = -1/3" in text
        data = json.loads(rep.to_json())
        assert data["epsilon_threshold"] == "-1/2"
        assert data["y_threshold"] == "-1/3"
        assert data["m"] == 3
        assert data["B_min"][0] == ["1/4", "1/4", "0"]
        assert data["tight_columns"] == [3]
        assert data["x"] == ["3/4", "3/4", "3/2"]


class TestBalanceNr:
    def test_known_matrix(self):
        out = balance_nr(A_UNEVEN)
        n = 3
        assert out.row_sums() == (n,) * n
        assert out.col_sums() == (n,) * n
        assert charpoly(out) * Poly.x_minus(1) == charpoly(A_UNEVEN) * Poly.x_minus(3)

    def test_uniform_becomes_all_ones(self):
        for n in range(1, 6):
            assert balance_nr(uniform_matrix(n)) == RatMatrix([[1] * n] * n)

    def test_identity(self):
        n = 4
        out = balance_nr(RatMatrix.identity(n))
        expect = RatMatrix(
            [
                [1 + Fraction(n - 1, n) if i == j else Fraction(n - 1, n) for j in range(n)]
                for i in range(n)
            ]
        )
        assert out == expect

    def test_always_feasible(self):
        rng = random.Random(17)
        for _ in range(60):
            a = rand_nonneg_row_constant(rng, rng.randint(1, 6))
            n, r = a.n_rows, a.row_sums()[0]
            out = balance_nr(a)
            assert out.is_nonnegative()
            assert out.row_sums() == (n * r,) * n


class TestNormalizeToStochastic:
    def test_stochastic_is_exact_fixed_point(self):
        a = FloatMatrix(A_UNEVEN.rows)
        out, r = normalize_to_stochastic(a)
        assert out == a
        assert r == 1.0

    def test_symmetric_permutation_like(self):
        out, r = normalize_to_stochastic(FloatMatrix([[0, 2], [2, 0]]))
        assert out == FloatMatrix([[0, 2], [2, 0]])
        assert r == 2.0

    def test_hand_computed_two_by_two(self):
        out, r = normalize_to_stochastic(FloatMatrix([[1, 2], [3, 6]]))
        assert abs(r - 7) < 1e-9
        want = [[1, 6], [1, 6]]
        assert all(
            abs(out[i, j] - want[i][j]) < 1e-8 for i in range(2) for j in range(2)
        )

    def test_spectrum_preserved(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 5)
            arr = [[rng.randint(1, 9) / 10 for _ in range(n)] for _ in range(n)]
            a = FloatMatrix(arr)
            out, _ = normalize_to_stochastic(a)
            before = charpoly_float(a)
            after = charpoly_float(out)
            assert all(abs(p - q) <= 1e-9 for p, q in zip(before, after))

    def test_rejects_negative_entries(self):
        with pytest.raises(PreconditionError):
            normalize_to_stochastic(FloatMatrix([[1, -1], [0, 1]]))

    def test_rejects_reducible(self):
        with pytest.raises(NormalizationError):
            normalize_to_stochastic(FloatMatrix([[1, 0], [0, 2]]))

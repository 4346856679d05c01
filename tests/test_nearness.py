import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstoch import (
    InfeasibleError,
    PreconditionError,
    RatMatrix,
    Stochasticity,
    balance,
    classify,
    cospectral,
    cospectral_ds,
    ds_condition,
    epsilon_threshold,
    frobenius_distance_sq,
    nearest_ds,
    nearest_ds_distance_sq,
    uniform_matrix,
)
from oracles import (
    A_UNEVEN,
    A_ZEROCOL,
    B_PROJ,
    nearest_ds_matmul,
    rand_matrix,
    rand_stochastic,
    rand_unit_sums,
)

REJECTING = RatMatrix([[0, 0, 1], [0, 0, 1], [1, 0, 0]])


class TestDsCondition:
    def test_known_matrices_hold(self):
        assert ds_condition(A_ZEROCOL).holds
        rep = ds_condition(A_UNEVEN)
        assert rep.holds
        assert tuple(c.slack for c in rep.per_column) == (
            Fraction(3, 4),
            Fraction(3, 4),
            Fraction(1, 2),
        )
        assert rep.first_violation is None

    def test_violation_reported(self):
        rep = ds_condition(REJECTING)
        assert not rep.holds
        assert rep.first_violation == 3
        assert rep.per_column[2].slack == -1

    def test_requires_stochastic(self):
        with pytest.raises(PreconditionError):
            ds_condition(2 * uniform_matrix(3))

    def test_json_round_trip(self):
        data = json.loads(ds_condition(A_UNEVEN).to_json())
        assert data["holds"] is True
        assert data["first_violation"] is None
        assert data["per_column"][2] == {
            "j": 3,
            "x_j": "3/2",
            "a_j": "1/3",
            "slack": "1/2",
        }


class TestCospectralDs:
    def test_known_matrix(self):
        b = cospectral_ds(A_ZEROCOL)
        assert b == B_PROJ
        assert classify(b).tag is Stochasticity.DOUBLY_STOCHASTIC
        assert cospectral(A_ZEROCOL, b)

    def test_second_known_matrix(self):
        b = cospectral_ds(A_UNEVEN)
        assert b == RatMatrix(
            [
                ["5/12", "5/12", "1/6"],
                ["1/3", "1/3", "1/3"],
                ["1/4", "1/4", "1/2"],
            ]
        )
        assert classify(b).tag is Stochasticity.DOUBLY_STOCHASTIC
        assert cospectral(A_UNEVEN, b)

    def test_doubly_stochastic_fixed_point(self):
        assert cospectral_ds(B_PROJ) == B_PROJ

    def test_refuses_on_violation_with_report(self):
        with pytest.raises(InfeasibleError) as exc:
            cospectral_ds(REJECTING)
        assert exc.value.column == 3
        assert exc.value.report is not None and not exc.value.report.holds


class TestNearestDs:
    def test_zero_matrix_projects_to_uniform(self):
        assert nearest_ds(RatMatrix.zeros(3)) == uniform_matrix(3)

    def test_doubly_stochastic_fixed_point(self):
        assert nearest_ds(B_PROJ) == B_PROJ

    def test_agrees_with_cospectral_ds_on_known_matrix(self):
        assert nearest_ds(A_ZEROCOL) == cospectral_ds(A_ZEROCOL)

    def test_output_in_unit_sum_set_even_with_negative_entries(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 6)
            b = nearest_ds(rand_matrix(rng, n))
            assert b.row_sums() == (1,) * n
            assert b.col_sums() == (1,) * n

    def test_idempotent(self):
        rng = random.Random(29)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 8))
            b = nearest_ds(a)
            assert nearest_ds(b) == b

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.fractions(min_value=-2, max_value=3, max_denominator=5),
        st.randoms(use_true_random=False),
    )
    def test_affine(self, n, lam, rnd):
        rng = random.Random(rnd.randint(0, 10**9))
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        mix = lam * a + (1 - lam) * b
        assert nearest_ds(mix) == lam * nearest_ds(a) + (1 - lam) * nearest_ds(b)

    def test_sampled_minimality_via_projector_form(self):
        # candidates generated through the projector itself: J + (I-J)M(I-J)
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 5)
            a = rand_matrix(rng, n)
            best = nearest_ds(a)
            d_best = frobenius_distance_sq(a, best)
            for _ in range(40):
                c = nearest_ds(rand_matrix(rng, n))
                d = frobenius_distance_sq(a, c)
                assert d >= d_best
                if d == d_best:
                    assert c == best

    def test_residual_orthogonal_to_directions(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(2, 5)
            a = rand_matrix(rng, n)
            resid = a - nearest_ds(a)
            c = rand_unit_sums(rng, n)
            direction = c - uniform_matrix(n)
            inner = sum(
                x * y
                for r1, r2 in zip(resid.rows, direction.rows)
                for x, y in zip(r1, r2)
            )
            assert inner == 0

    def test_simplified_form_on_stochastic_input(self):
        # for stochastic A the projection equals A - JA + J entrywise
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = rand_stochastic(rng, n)
            j = uniform_matrix(n)
            assert nearest_ds(a) == a - j @ a + j

    def test_equals_literal_projection(self):
        rng = random.Random(67)
        for _ in range(80):
            n = rng.randint(1, 8)
            a = rand_matrix(rng, n, lo=-9, hi=9, max_den=rng.choice([1, 6, 97]))
            b = nearest_ds_matmul(a)
            assert nearest_ds(a) == b
            assert nearest_ds_distance_sq(a) == frobenius_distance_sq(a, b)


class TestNearestDsDistance:
    def test_zero_for_doubly_stochastic(self):
        assert nearest_ds_distance_sq(B_PROJ) == 0

    def test_zero_matrix(self):
        assert nearest_ds_distance_sq(RatMatrix.zeros(3)) == 1

    def test_frozen_known_value(self):
        # independent evaluation from the two printed matrices gives 1/2
        gap = sum(
            (A_ZEROCOL[i, j] - B_PROJ[i, j]) ** 2 for i in range(3) for j in range(3)
        )
        assert gap == Fraction(1, 2)
        assert nearest_ds_distance_sq(A_ZEROCOL) == Fraction(1, 2)


class TestCrossModule:
    def test_chain_equality_where_condition_holds(self):
        for a in (A_UNEVEN, A_ZEROCOL, B_PROJ, RatMatrix.identity(4)):
            if not ds_condition(a).holds:
                continue
            b = cospectral_ds(a)
            assert b == nearest_ds(a)
            assert b == balance(a, 0)
            assert cospectral(a, b)

    def test_condition_iff_nonpositive_threshold(self):
        rng = random.Random(43)
        for _ in range(120):
            a = rand_stochastic(rng, rng.randint(1, 6))
            report = ds_condition(a)
            assert report.holds == (epsilon_threshold(a) <= 0)
            n = a.n_rows
            for j, c in enumerate(report.per_column):
                x_j = sum(row[j] for row in a.rows)
                a_j = min(row[j] for row in a.rows)
                assert (c.j, c.x, c.a, c.slack) == (j + 1, x_j, a_j, 1 + n * a_j - x_j)

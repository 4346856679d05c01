import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstoch import (
    DimensionError,
    Poly,
    PreconditionError,
    RadoUpdate,
    RatMatrix,
    Stochasticity,
    balance,
    charpoly,
    classify,
    rado_update,
    shift,
    shift_nonneg_threshold,
    uniform_matrix,
)
from oracles import X_MIN, invert, rand_invertible, rand_matrix

small_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def diagonal(values) -> RatMatrix:
    n = len(values)
    return RatMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


class TestRadoUpdate:
    def test_triangular_example(self):
        a = diagonal([Fraction(2), Fraction(1)])
        c1, c2 = Fraction(3, 5), Fraction(-1, 7)
        update = RadoUpdate(a, RatMatrix([[1], [0]]), RatMatrix([[c1, c2]]), [2])
        out = rado_update(a, update)
        assert out == RatMatrix([[2 + c1, c2], [0, 1]])
        assert charpoly(out) == Poly.x_minus(2 + c1) * Poly.x_minus(1)

    def test_zero_update_is_identity(self):
        a = diagonal([Fraction(2), Fraction(1)])
        update = RadoUpdate(a, RatMatrix([[1], [0]]), RatMatrix.zeros(1, 2), [2])
        assert rado_update(a, update) == a

    def test_reduces_to_shift_along_ones(self):
        # the all-ones column is an eigenvector for the row sum; a rank-one
        # update by (eps/n) times the all-ones row equals the uniform shift
        eps = Fraction(1, 2)
        n = X_MIN.n_rows
        ones_col = RatMatrix([[1]] * n)
        row = RatMatrix([[Fraction(eps, n)] * n])
        update = RadoUpdate(X_MIN, ones_col, row, [Fraction(1, 2)])
        assert rado_update(X_MIN, update) == shift(X_MIN, eps)

    def test_rejects_bad_eigenvector(self):
        a = diagonal([Fraction(2), Fraction(1)])
        with pytest.raises(PreconditionError, match="column 1"):
            RadoUpdate(a, RatMatrix([[1], [1]]), RatMatrix.zeros(1, 2), [2])

    def test_rejects_zero_column(self):
        a = diagonal([Fraction(2), Fraction(1)])
        with pytest.raises(PreconditionError, match="zero"):
            RadoUpdate(a, RatMatrix([[0], [0]]), RatMatrix.zeros(1, 2), [2])

    def test_rejects_wrong_shapes(self):
        a = diagonal([Fraction(2), Fraction(1)])
        e1 = RatMatrix([[1], [0]])
        with pytest.raises(DimensionError, match="eigenvector block"):
            RadoUpdate(a, RatMatrix([[1], [0], [0]]), RatMatrix.zeros(1, 2), [2])
        with pytest.raises(DimensionError, match="update block"):
            RadoUpdate(a, e1, RatMatrix.zeros(1, 3), [2])
        with pytest.raises(DimensionError, match="eigenvalues"):
            RadoUpdate(a, e1, RatMatrix.zeros(1, 2), [2, 1])

    def test_charpoly_identity_on_random_systems(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 4)
            r = rng.randint(1, min(2, n))
            lams = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
            p = rand_invertible(rng, n)
            a = p @ diagonal(lams) @ invert(p)
            x = RatMatrix([[p[i, k] for k in range(r)] for i in range(n)])
            c = rand_matrix(rng, n, lo=-2, hi=2, max_den=2)
            c = RatMatrix([list(c.row(i)) for i in range(r)])
            update = RadoUpdate(a, x, c, lams[:r])
            out = rado_update(a, update)
            lam_diag = diagonal(lams[:r])
            lhs = charpoly(out) * charpoly(lam_diag)
            rhs = charpoly(lam_diag + c @ x) * charpoly(a)
            assert lhs == rhs


class TestShift:
    def test_known_balanced_matrix_becomes_doubly_stochastic(self):
        out = shift(X_MIN, Fraction(1, 2))
        assert classify(out).tag is Stochasticity.DOUBLY_STOCHASTIC
        assert charpoly(out) == Poly([0, Fraction(1, 4), Fraction(-5, 4), 1])

    def test_zero_shift(self):
        assert shift(X_MIN, 0) == X_MIN

    def test_uniform_doubles(self):
        j = uniform_matrix(3)
        out = shift(j, 1)
        assert out == 2 * j
        assert charpoly(out) == Poly([0, 0, -2, 1])

    def test_requires_constant_row_sums(self):
        with pytest.raises(PreconditionError):
            shift(RatMatrix([[1, 0], [1, 1]]), 1)

    def test_row_sum_message_shared_with_balance(self):
        uneven = RatMatrix([[1, 0], [1, 1]])
        for call in (shift, balance):
            with pytest.raises(PreconditionError) as exc:
                call(uneven, 1)
            assert str(exc.value) == "matrix must have constant row sums"

    @settings(max_examples=40)
    @given(small_fracs, small_fracs)
    def test_additivity(self, a_eps, b_eps):
        m = X_MIN
        assert shift(shift(m, a_eps), b_eps) == shift(m, a_eps + b_eps)

    def test_spectrum_identity(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n)
            r = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
            rows = [list(row) for row in m.rows]
            for row in rows:
                row[-1] = r - sum(row[:-1])
            m = RatMatrix(rows)
            eps = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            out = shift(m, eps)
            assert out == m + eps * uniform_matrix(n)
            assert charpoly(out) * Poly.x_minus(r) == charpoly(m) * Poly.x_minus(r + eps)

    def test_preserves_doubly_stochastic_structure(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(1, 4)
            base = uniform_matrix(n)
            eps = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            cls = classify(shift(base, eps))
            assert cls.tag in (
                Stochasticity.R_GEN_DOUBLY_STOCHASTIC,
                Stochasticity.DOUBLY_STOCHASTIC,
            )
            assert cls.r == 1 + eps


class TestShiftNonnegThreshold:
    def test_nonnegative_input(self):
        assert shift_nonneg_threshold(X_MIN) == 0

    def test_single_negative_entry(self):
        m = RatMatrix([[0, 0, 0], [0, Fraction(-1, 3), 0], [0, 0, 0]])
        eps = shift_nonneg_threshold(m)
        assert eps == 1
        shifted = m + eps * uniform_matrix(3)
        assert shifted.is_nonnegative()
        assert shifted.min_entry() == 0

    def test_negative_uniform(self):
        assert shift_nonneg_threshold(-1 * uniform_matrix(2)) == 1

    def test_is_least(self):
        rng = random.Random(55)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n)
            eps = shift_nonneg_threshold(m)
            assert (m + eps * uniform_matrix(n)).is_nonnegative()
            if eps > 0:
                delta = Fraction(1, 1000)
                assert not (m + (eps - delta) * uniform_matrix(n)).is_nonnegative()

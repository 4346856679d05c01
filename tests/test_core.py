import copy
import operator
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstoch import (
    ColumnSlack,
    DimensionError,
    FloatMatrix,
    FormatError,
    Poly,
    RadoUpdate,
    RatMatrix,
    SpectrumList,
    StochClass,
    Stochasticity,
    balance,
    balance_minimal,
    balance_offsets,
    canonical_basis,
    classify,
    column_stats,
    ds_condition,
    format_float_matrix,
    format_matrix,
    frobenius_distance_sq,
    parse_float_matrix,
    parse_matrix,
    parse_scalar,
    poly_from_spectrum,
    shift,
    uniform_matrix,
)
from oracles import A_UNEVEN, A_ZEROCOL, rand_matrix

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)

#: a digit string one longer than int() converts, sized for this interpreter
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_TOO_LONG = "1" * (_DIGIT_LIMIT + 1)
_OVER_LIMIT = pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="no integer conversion limit")


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(fractions_st, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(RatMatrix)
    )


class TestRatMatrix:
    def test_rejects_empty_and_ragged(self):
        with pytest.raises(DimensionError):
            RatMatrix([])
        with pytest.raises(DimensionError):
            RatMatrix([[]])
        with pytest.raises(DimensionError):
            RatMatrix([[1, 2], [3]])

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            RatMatrix([[0.5]])
        # every exact construction takes its scalars through the same policy
        a = A_UNEVEN
        eigvec, update = RatMatrix([[1], [1], [1]]), RatMatrix([[0, 0, 0]])
        for build in (
            lambda: balance(a, 0.1),
            lambda: shift(a, 0.1),
            lambda: balance_offsets(a, 0.1),
            lambda: RadoUpdate(a, eigvec, update, [0.1]),
            lambda: SpectrumList([1, 0.1]),
            lambda: poly_from_spectrum([(0.5, 0)]),
            lambda: Poly([0.1]),
            lambda: Poly.x_minus(0.5),
            lambda: Poly([1, 1])(0.5),
        ):
            with pytest.raises(TypeError, match="not float"):
                build()

    def test_entries_are_exactly_fractions(self):
        class Tagged(Fraction):
            pass

        q = Fraction(1, 3)
        m = RatMatrix([[q, Tagged(2, 5), 7]])
        assert m[0, 0] is q
        assert [type(e) for e in m.row(0)] == [Fraction] * 3
        assert m.row(0) == (Fraction(1, 3), Fraction(2, 5), 7)

    def test_arithmetic(self):
        a = RatMatrix([[1, 2], [3, 4]])
        b = RatMatrix([[0, 1], [1, 0]])
        assert a + b == RatMatrix([[1, 3], [4, 4]])
        assert a - b == RatMatrix([[1, 1], [2, 4]])
        assert Fraction(1, 2) * a == RatMatrix([["1/2", 1], ["3/2", 2]])
        assert a @ b == RatMatrix([[2, 1], [4, 3]])
        assert a.T == RatMatrix([[1, 3], [2, 4]])
        assert a.trace() == 5
        assert a.row_sums() == (3, 7)
        assert a.col_sums() == (4, 6)
        assert -a == RatMatrix([[-1, -2], [-3, -4]])
        assert list(a) == [(1, 2), (3, 4)]
        assert a.is_square and not RatMatrix([[1, 2]]).is_square
        # an operand of another type is not a matrix or a scalar
        for op in (operator.add, operator.sub, operator.mul, operator.matmul):
            with pytest.raises(TypeError):
                op(a, None)

    def test_matmul_shape_check(self):
        with pytest.raises(DimensionError):
            RatMatrix([[1, 2]]) @ RatMatrix([[1, 2]])

    def test_square_only_operations_reject_rectangular(self):
        rect = RatMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionError):
            rect.trace()
        with pytest.raises(DimensionError):
            column_stats(rect)
        with pytest.raises(DimensionError):
            classify(rect)


class TestUniformMatrix:
    def test_order_one(self):
        assert uniform_matrix(1) == RatMatrix([[1]])

    def test_entries(self):
        j = uniform_matrix(3)
        assert all(j[i, k] == Fraction(1, 3) for i in range(3) for k in range(3))

    def test_idempotent_projector(self):
        j = uniform_matrix(4)
        assert j @ j == j

    def test_invalid_order(self):
        with pytest.raises(DimensionError):
            uniform_matrix(0)


class TestColumnStats:
    def test_known_matrix(self):
        x, a = column_stats(A_UNEVEN)
        assert x == (Fraction(3, 4), Fraction(3, 4), Fraction(3, 2))
        assert a == (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3))

    def test_identity(self):
        x, a = column_stats(RatMatrix.identity(3))
        assert x == (1, 1, 1)
        assert a == (0, 0, 0)

    @settings(max_examples=40)
    @given(square_matrices())
    def test_transpose_duality(self, m):
        x, a = column_stats(m.T)
        assert x == m.row_sums()
        assert a == tuple(min(row) for row in m.rows)


class TestClassify:
    def test_uniform_is_doubly_stochastic(self):
        for n in range(1, 13):
            cls = classify(uniform_matrix(n))
            assert cls.tag is Stochasticity.DOUBLY_STOCHASTIC
            assert cls.r == 1

    def test_known_stochastic(self):
        cls = classify(A_ZEROCOL)
        assert cls.tag is Stochasticity.STOCHASTIC
        assert cls.r == 1

    def test_scaled_uniform(self):
        cls = classify(Fraction(1, 2) * uniform_matrix(3))
        assert cls.tag is Stochasticity.R_GEN_DOUBLY_STOCHASTIC
        assert cls.r == Fraction(1, 2)

    def test_negative_entries_with_constant_sums(self):
        m = RatMatrix([[2, -1], [-1, 2]])
        cls = classify(m)
        assert cls.tag is Stochasticity.R_GEN_DOUBLY_STOCHASTIC
        assert cls.r == 1

    def test_nonnegative_only_and_general(self):
        assert classify(RatMatrix([[1, 0], [1, 1]])).tag is Stochasticity.NONNEGATIVE_ONLY
        assert classify(RatMatrix([[1, 0], [-1, 1]])).tag is Stochasticity.GENERAL
        # a tag without a row sum prints alone
        assert str(StochClass(Stochasticity.NONNEGATIVE_ONLY)) == "NONNEGATIVE_ONLY"
        assert str(StochClass(Stochasticity.GENERAL)) == "GENERAL"

    def test_rescaled_rows_report_r(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n, lo=0, hi=4)
            r = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            rows = []
            for row in m.rows:
                s = sum(row)
                if s == 0:
                    row = tuple(Fraction(1) for _ in row)
                    s = sum(row)
                rows.append([e * r / s for e in row])
            cls = classify(RatMatrix(rows))
            assert cls.r == r
            assert cls.tag in (
                Stochasticity.R_GEN_STOCHASTIC,
                Stochasticity.R_GEN_DOUBLY_STOCHASTIC,
                Stochasticity.STOCHASTIC,
                Stochasticity.DOUBLY_STOCHASTIC,
            )


class TestFrobenius:
    def test_zero_distance(self):
        assert frobenius_distance_sq(A_UNEVEN, A_UNEVEN) == 0

    def test_identity_vs_uniform(self):
        assert frobenius_distance_sq(RatMatrix.identity(2), uniform_matrix(2)) == 1

    def test_zero_vs_uniform(self):
        assert frobenius_distance_sq(RatMatrix.zeros(3), uniform_matrix(3)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_distance_sq(RatMatrix.zeros(2), RatMatrix.zeros(3))

    def test_equals_fraction_sum_with_wide_denominators(self):
        rng = random.Random(17)
        primes = [p for p in range(907, 998) if all(p % q for q in range(2, 32))]
        for _ in range(60):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            a, b = (
                RatMatrix(
                    [[Fraction(rng.randint(-999, 999), rng.choice(primes)) for _ in range(c)] for _ in range(r)]
                )
                for _ in range(2)
            )
            want = sum((x - y) ** 2 for r1, r2 in zip(a.rows, b.rows) for x, y in zip(r1, r2))
            got = frobenius_distance_sq(a, b)
            assert type(got) is Fraction and got == want

    @settings(max_examples=40)
    @given(square_matrices(4), st.randoms(use_true_random=False))
    def test_symmetry_and_definiteness(self, a, rnd):
        b = rand_matrix(random.Random(rnd.randint(0, 10**9)), a.n_rows)
        assert frobenius_distance_sq(a, b) == frobenius_distance_sq(b, a)
        assert frobenius_distance_sq(a, b) >= 0
        assert (frobenius_distance_sq(a, b) == 0) == (a == b)

    def test_parallelogram_identity(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            a, b, c = (rand_matrix(rng, n) for _ in range(3))
            lhs = frobenius_distance_sq(a, b) + frobenius_distance_sq(a + b - c, c)
            rhs = 2 * frobenius_distance_sq(a, c) + 2 * frobenius_distance_sq(b, c)
            assert lhs == rhs


class TestTextFormat:
    def test_parse_entries(self):
        m = parse_matrix("1 -2/3 0.25\n0 1 -0.5")
        assert m == RatMatrix(
            [[1, Fraction(-2, 3), Fraction(1, 4)], [0, 1, Fraction(-1, 2)]]
        )

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1 2  # trailing\n\n  3\t4\n"
        assert parse_matrix(text) == RatMatrix([[1, 2], [3, 4]])

    def test_decimal_is_exact(self):
        assert parse_scalar("0.1") == Fraction(1, 10)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "# only comment", "1 2\n3", "1 x", "1/0", "1/-2", "+1", "1.",
            pytest.param(f"{_TOO_LONG} 0\n0 1", marks=_OVER_LIMIT, id="long-numerator"),
            pytest.param(f"1/{_TOO_LONG} 0\n0 1", marks=_OVER_LIMIT, id="long-denominator"),
            pytest.param(f"0.{_TOO_LONG} 0\n0 1", marks=_OVER_LIMIT, id="long-decimal"),
        ],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(FormatError):
            parse_matrix(bad)

    def test_output_is_lowest_terms(self):
        m = RatMatrix([[Fraction(2, 4), Fraction(3, 1)]])
        assert format_matrix(m) == "1/2 3"

    @settings(max_examples=50)
    @given(square_matrices())
    def test_round_trip(self, m):
        assert parse_matrix(format_matrix(m)) == m


class TestFloatMatrix:
    def test_value_semantics(self):
        m = FloatMatrix([[1.0, 2.0], [3.0, 4.0]])
        arr = m.to_numpy()
        arr[0, 0] = 99.0
        assert m[0, 0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            FloatMatrix([])
        with pytest.raises(DimensionError):
            FloatMatrix(np.empty((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FloatMatrix([[float("nan")]])

    def test_seventeen_digit_round_trip(self):
        rng = random.Random(61)
        m = FloatMatrix([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
        assert parse_float_matrix(format_float_matrix(m)) == m

    def test_parses_fraction_entries(self):
        assert parse_float_matrix("1/4 0.75\n1e-3 2") == FloatMatrix(
            [[0.25, 0.75], [0.001, 2.0]]
        )


_STOCHASTIC_2X2 = "1/2 1/2\n1/4 3/4"

#: each record type, built twice from one factory, with its exact repr
_RECORDS = {
    "StochClass": (
        lambda: StochClass(Stochasticity.STOCHASTIC, Fraction(1)),
        "StochClass(tag=<Stochasticity.STOCHASTIC: 'STOCHASTIC'>, r=Fraction(1, 1))",
    ),
    "ColumnSlack": (
        lambda: ColumnSlack(j=1, x=Fraction(3, 4), a=Fraction(1, 4), slack=Fraction(3, 4)),
        "ColumnSlack(j=1, x=Fraction(3, 4), a=Fraction(1, 4), slack=Fraction(3, 4))",
    ),
    "DsConditionReport": (
        lambda: ds_condition(parse_matrix(_STOCHASTIC_2X2)),
        "DsConditionReport(holds=True, per_column=(ColumnSlack(j=1, x=Fraction(3, 4), "
        "a=Fraction(1, 4), slack=Fraction(3, 4)), ColumnSlack(j=2, x=Fraction(5, 4), "
        "a=Fraction(1, 2), slack=Fraction(3, 4))), first_violation=None)",
    ),
    "BalanceReport": (
        lambda: balance_minimal(parse_matrix(_STOCHASTIC_2X2)),
        "BalanceReport(r=Fraction(1, 1), x=(Fraction(3, 4), Fraction(5, 4)), "
        "a=(Fraction(1, 4), Fraction(1, 2)), m=2, y_threshold=Fraction(-1, 2), "
        "epsilon_threshold=Fraction(-3, 4), b_min=RatMatrix(2x2: 1/4 0; 0 1/4), "
        "tight_columns=frozenset({1, 2}))",
    ),
    "OrthoBasis": (lambda: canonical_basis(2), "OrthoBasis(u=FloatMatrix(2x2))"),
}


@pytest.mark.parametrize("kind", list(_RECORDS))
def test_record_value_semantics(kind):
    make, text = _RECORDS[kind]
    rec, twin = make(), make()
    values = tuple(getattr(rec, name) for name in type(rec).__match_args__)
    assert rec == twin and rec is not twin
    assert rec != values
    if kind == "OrthoBasis":
        # a FloatMatrix is unhashable, so the basis is too, as with the field tuple
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == hash(values)
    assert repr(rec) == text
    first = type(rec).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(twin, first))
    with pytest.raises(AttributeError):
        delattr(rec, first)
    for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec)):
        assert type(back) is type(rec) and back == rec
    fields = dict(zip(type(rec).__match_args__, values))
    assert type(rec)(**fields) == rec
    # one positional argument too many, an unknown keyword, a missing field
    for args, kwargs in (
        ((*values, None), {}),
        (values, {"bogus": None}),
        ((), {name: fields[name] for name in list(fields)[1:]}),
    ):
        with pytest.raises(TypeError):
            type(rec)(*args, **kwargs)

import operator
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstoch import (
    ConjugacyError,
    DimensionError,
    PerronWarning,
    Poly,
    PreconditionError,
    RatMatrix,
    SpectrumList,
    charpoly,
    companion,
    cospectral,
    format_poly,
    nullspace,
    parse_spectrum,
    poly_from_spectrum,
    similar_to_unit_sums,
    uniform_matrix,
)
from oracles import (
    A_UNEVEN,
    A_ZEROCOL,
    B_PROJ,
    charpoly_cofactor,
    invert,
    nullspace_rref,
    poly_from_roots_product,
    rand_doubly_stochastic,
    rand_invertible,
    rand_matrix,
    rand_rank_deficient,
    rand_stochastic,
)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)

WIDE_PRIMES = [p for p in range(907, 998) if all(p % q for q in range(2, 32))]


def block_diag(*blocks: RatMatrix) -> RatMatrix:
    n = sum(b.n_rows for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.n_rows):
            for j in range(b.n_cols):
                rows[off + i][off + j] = b[i, j]
        off += b.n_rows
    return RatMatrix(rows)


JORDAN = RatMatrix([[1, 1], [0, 1]])


class TestPoly:
    def test_normalization_strips_leading_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero
        assert Poly([]).is_zero
        assert hash(Poly([1, 2, 0, 0])) == hash(Poly([1, 2]))

    def test_arithmetic(self):
        p = Poly([1, 1])  # 1 + x
        q = Poly([-1, 1])  # -1 + x
        assert p * q == Poly([-1, 0, 1])
        assert p + q == Poly([0, 2])
        assert p - p == Poly([0])
        assert 2 * p == Poly([2, 2])
        # an operand of another type is not a polynomial or a scalar
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, None)

    def test_evaluation(self):
        p = Poly([Fraction(1, 4), Fraction(-5, 4), 1])
        assert p(1) == 0
        assert p(Fraction(1, 2)) == Fraction(1, 4) - Fraction(5, 8) + Fraction(1, 4)

    def test_format(self):
        assert format_poly(Poly([0, Fraction(1, 4), Fraction(-5, 4), 1])) == "0 1/4 -5/4 1"


class TestCharpoly:
    def test_identity(self):
        assert charpoly(RatMatrix.identity(3)) == Poly([-1, 3, -3, 1])

    def test_known_spectra(self):
        # roots (1, 1/3, 0) and (1, 0, 1/4)
        assert charpoly(A_ZEROCOL) == Poly([0, Fraction(1, 3), Fraction(-4, 3), 1])
        assert charpoly(A_UNEVEN) == Poly([0, Fraction(1, 4), Fraction(-5, 4), 1])

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            charpoly(RatMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_against_cofactor_expansion(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4))
            assert charpoly(m) == charpoly_cofactor(m)

    def test_wide_prime_denominators_against_cofactor(self):
        # distinct primes 907..997 in every entry: the common denominator D
        # exceeds 2^64, so the integer recurrence runs on big ints
        rng = random.Random(47)
        for _ in range(12):
            n = rng.randint(3, 5)
            primes = rng.sample(WIDE_PRIMES, len(WIDE_PRIMES))
            entries = [
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), primes[k % len(primes)])
                for k in range(n * n)
            ]
            m = RatMatrix([entries[i * n : (i + 1) * n] for i in range(n)])
            assert lcm(*(e.denominator for row in m.rows for e in row)) > 2**64
            assert charpoly(m) == charpoly_cofactor(m)

    def test_negative_and_integer_entries_against_cofactor(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 5)
            negative = rand_matrix(rng, n, lo=-40, hi=-1, max_den=30)
            integer = RatMatrix(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            )
            assert charpoly(negative) == charpoly_cofactor(negative)
            assert charpoly(integer) == charpoly_cofactor(integer)
            assert all(c.denominator == 1 for c in charpoly(integer).coefficients)

    def test_order_one_and_zero_matrix(self):
        for q in (Fraction(0), Fraction(-7, 997), Fraction(5), Fraction(3, 4)):
            m = RatMatrix([[q]])
            assert charpoly(m) == charpoly_cofactor(m) == Poly([-q, 1])
        for n in range(1, 6):
            zero = RatMatrix.zeros(n)
            assert charpoly(zero) == charpoly_cofactor(zero) == Poly([0] * n + [1])

    def test_similarity_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 5)
            d = RatMatrix(
                [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if i == j else 0 for j in range(n)]
                    for i in range(n)
                ]
            )
            p = rand_invertible(rng, n)
            assert charpoly(p @ d @ invert(p)) == charpoly(d)


class TestCospectral:
    def test_known_pair(self):
        assert cospectral(A_ZEROCOL, B_PROJ)

    def test_identity_vs_uniform(self):
        assert not cospectral(RatMatrix.identity(2), uniform_matrix(2))

    def test_transpose_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 5))
            assert cospectral(m, m.T)

    def test_order_mismatch(self):
        with pytest.raises(DimensionError):
            cospectral(RatMatrix.identity(2), RatMatrix.identity(3))

    def test_equivalence_relation(self):
        rng = random.Random(21)
        mats = [rand_matrix(rng, 3) for _ in range(6)]
        for a in mats:
            assert cospectral(a, a)
            for b in mats:
                assert cospectral(a, b) == cospectral(b, a)
                for c in mats:
                    if cospectral(a, b) and cospectral(b, c):
                        assert cospectral(a, c)


#: conjugation must hold exactly and with multiplicity: a pair whose
#: imaginary parts differ by 1e-11, and a root listed twice whose conjugate
#: is listed once
NOT_CONJUGATE_CLOSED = [
    [
        1,
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1, 2), -Fraction(1, 3) - Fraction(1, 10**11)),
    ],
    [(0, 1), (0, 1), (0, -1)],
]

#: unclosed lists with fractional entries and the exact ConjugacyError text,
#: whose fractions are rebuilt from the cleared integer form
CONJUGACY_MESSAGES = [
    (
        [1, (Fraction(1, 3), Fraction(1, 2))],
        "entry (1/3, 1/2) occurs 1 times but its conjugate 0 times",
    ),
    (
        [(Fraction(1, 4), Fraction(2, 3))] * 2 + [(Fraction(1, 4), Fraction(-2, 3))],
        "entry (1/4, 2/3) occurs 2 times but its conjugate 1 times",
    ),
    (
        [(Fraction(2, 7), Fraction(-5, 9)), 1],
        "entry (2/7, -5/9) occurs 1 times but its conjugate 0 times",
    ),
]


class TestPolyFromSpectrum:
    def test_rational_spectrum(self):
        p = poly_from_spectrum([1, 0, Fraction(1, 4)])
        assert p == Poly([0, Fraction(1, 4), Fraction(-5, 4), 1])

    def test_conjugate_pair(self):
        p = poly_from_spectrum([(0, 1), (0, -1)])
        assert p == Poly([1, 0, 1])
        p = poly_from_spectrum([(0, 1), (0, 1), (0, -1), (0, -1)])
        assert p == Poly([1, 0, 2, 0, 1])

    def test_unpaired_imaginary_rejected(self):
        with pytest.raises(ConjugacyError):
            poly_from_spectrum([(1, 0), (0, 1)])
        for entries in NOT_CONJUGATE_CLOSED:
            with pytest.raises(ConjugacyError):
                poly_from_spectrum(entries)
        for entries, message in CONJUGACY_MESSAGES:
            with pytest.raises(ConjugacyError, match=re.escape(message)):
                poly_from_spectrum(entries)

    def test_equals_fraction_product(self):
        # complex, repeated-pair, zero and negative entries; denominators
        # 1-12, primes 907-997 and 2^-52 (a float's Fraction, as `realize`
        # builds for 1 + k); also the empty list
        primes = [p for p in range(907, 998) if all(p % q for q in range(2, 32))]
        parts = [
            lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
            lambda rng: Fraction(rng.randint(-2000, 2000), rng.choice(primes)),
            lambda rng: rng.choice((1, -1)) * Fraction(1 + rng.random()),
        ]
        rng = random.Random(29)
        spectra = [[]]
        for i in range(240):
            part = parts[i % 3]
            entries, size = [], rng.randint(1, 14)
            while len(entries) < size:
                kind = rng.random()
                if kind < 0.35:
                    re_k, im_k = part(rng), abs(part(rng)) or Fraction(1)
                    entries += [(re_k, im_k), (re_k, -im_k)] * rng.choice((1, 1, 2))
                elif kind < 0.5:
                    entries.append((0, 0))
                else:
                    entries.append((part(rng), 0))
            rng.shuffle(entries)
            spectra.append(entries)
        dens = {c.denominator for s in spectra for e in s for c in map(Fraction, e)}
        assert 2**52 in dens and dens & set(primes) and dens & set(range(2, 13))
        assert any(e == (0, 0) for s in spectra for e in s)
        for entries in spectra:
            got, want = poly_from_spectrum(entries), poly_from_roots_product(entries)
            assert got == want
            assert repr(got) == repr(want)

    def test_reproduces_charpoly_with_rational_roots(self):
        rng = random.Random(13)
        for _ in range(20):
            roots = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            p = Poly([1])
            for r in roots:
                p = p * Poly.x_minus(r)
            assert poly_from_spectrum(roots) == p


class TestCompanion:
    def test_swap_matrix(self):
        assert companion(Poly([-1, 0, 1])) == RatMatrix([[0, 1], [1, 0]])

    def test_degree_one(self):
        c = Fraction(5, 7)
        assert companion(Poly.x_minus(c)) == RatMatrix([[c]])

    def test_charpoly_round_trip_example(self):
        p = Poly([0, Fraction(-1, 4), 1])  # roots {0, 1/4}
        m = companion(p)
        assert m == RatMatrix([[0, 1], [0, Fraction(1, 4)]])
        assert charpoly(m) == p

    def test_rejects_non_monic_and_constant(self):
        with pytest.raises(PreconditionError):
            companion(Poly([1, 2]))
        with pytest.raises(PreconditionError):
            companion(Poly([1]))

    @settings(max_examples=40)
    @given(st.lists(small_fracs, min_size=1, max_size=8))
    def test_charpoly_of_companion_is_identity(self, coeffs):
        p = Poly(list(coeffs) + [1])
        assert charpoly(companion(p)) == p


class TestNullspace:
    def test_row_sum_kernel(self):
        basis = nullspace(A_ZEROCOL - RatMatrix.identity(3))
        assert len(basis) == 1
        v = basis[0]
        # spans (1,1,1)
        assert all(v[0] == e for e in v) and v[0] != 0

    def test_jordan_kernel(self):
        assert nullspace(RatMatrix([[0, 1], [0, 0]])) == [(1, 0)]

    def test_zero_matrix(self):
        basis = nullspace(RatMatrix.zeros(2))
        assert len(basis) == 2

    def test_nonsingular_has_empty_kernel(self):
        assert nullspace(RatMatrix.identity(4)) == []

    def test_membership_and_independence(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n, lo=-2, hi=2, max_den=2)
            basis = nullspace(m)
            for v in basis:
                col = RatMatrix([[e] for e in v])
                assert m @ col == RatMatrix.zeros(n, 1)
            if basis:
                # exact rank check: the Gram matrix of an independent family
                # is nonsingular over the rationals
                stacked = RatMatrix(list(basis))
                assert nullspace(stacked @ stacked.T) == []

    def test_equals_rref_oracle_on_rank_deficient_matrices(self):
        rng = random.Random(59)
        seen = {"zero_row": 0, "zero_col": 0, "swap": 0, "wide_den": 0}
        for _ in range(300):
            m = rand_rank_deficient(rng, rng.randint(1, 9))
            basis = nullspace(m)
            assert basis == nullspace_rref(m)
            assert basis
            rows, cols = m.rows, list(zip(*m.rows))
            seen["zero_row"] += any(not any(r) for r in rows)
            seen["zero_col"] += any(not any(c) for c in cols)
            seen["swap"] += rows[0][0] == 0 and any(cols[0])
            seen["wide_den"] += any(e.denominator > 900 for r in rows for e in r)
        assert min(seen.values()) >= 20, seen

    def test_equals_rref_oracle_on_unit_eigenspaces(self):
        # rows of A - I share a denominator per row, columns of A^T - I per
        # column: the two ways of clearing denominators
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(1, 9)
            a = rand_stochastic(rng, n, max_den=997)
            ident = RatMatrix.identity(n)
            for m in (a - ident, a.T - ident):
                assert nullspace(m) == nullspace_rref(m)


class TestSimilarToUnitSums:
    def test_known_stochastic(self):
        assert similar_to_unit_sums(A_ZEROCOL)

    def test_jordan_block_is_not(self):
        assert not similar_to_unit_sums(JORDAN)

    def test_jordan_self_sums_are_not(self):
        assert not similar_to_unit_sums(block_diag(JORDAN, JORDAN))
        assert not similar_to_unit_sums(block_diag(JORDAN, JORDAN, JORDAN))

    def test_jordan_plus_identity_blocks_are(self):
        # the identity block's basis vector lies in both unit eigenspaces,
        # so the pairing is not identically zero and a similarity witness
        # exists (u = w = that basis vector)
        assert similar_to_unit_sums(block_diag(JORDAN, RatMatrix.identity(1)))
        assert similar_to_unit_sums(block_diag(JORDAN, RatMatrix.identity(3)))

    def test_doubly_stochastic_always(self):
        rng = random.Random(29)
        for _ in range(25):
            m = rand_doubly_stochastic(rng, rng.randint(1, 5))
            assert similar_to_unit_sums(m)

    def test_requires_unit_eigenvalue(self):
        with pytest.raises(PreconditionError):
            similar_to_unit_sums(2 * RatMatrix.identity(2))


class TestSpectrumList:
    def test_requires_conjugate_closure(self):
        with pytest.raises(ConjugacyError):
            SpectrumList([(1, 0), (0, 1)])
        for entries in NOT_CONJUGATE_CLOSED:
            with pytest.raises(ConjugacyError):
                SpectrumList(entries)
        for entries, message in CONJUGACY_MESSAGES:
            with pytest.raises(ConjugacyError, match=re.escape(message)):
                SpectrumList(entries)

    def test_rejects_empty_and_binary_complex(self):
        with pytest.raises(PreconditionError, match="at least one"):
            SpectrumList([])
        with pytest.raises(TypeError, match="complex"):
            SpectrumList([1, 0.5j, -0.5j])

    def test_rest_drops_designated_entry(self):
        s = SpectrumList([1, Fraction(1, 3), 0])
        assert s.perron == (1, 0)
        assert s.rest() == ((Fraction(1, 3), 0), (0, 0))
        assert s == SpectrumList([1, Fraction(1, 3), 0])
        assert s != SpectrumList([1, 0, Fraction(1, 3)]) and s != s.entries
        assert repr(s) == (
            "SpectrumList(((Fraction(1, 1), Fraction(0, 1)), "
            "(Fraction(1, 3), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1))))"
        )

    def test_dominance_warning(self):
        with pytest.warns(PerronWarning):
            SpectrumList([Fraction(1, 2), 1, 0])
        with pytest.warns(PerronWarning):
            SpectrumList([(-1, 0), (0, 0)])

    def test_no_warning_when_dominant(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SpectrumList([1, (0, Fraction(1, 2)), (0, Fraction(-1, 2))])

    def test_parse(self):
        s = parse_spectrum("# spectrum\n1\n1/2+1/3 i\n1/2-1/3 i\n-0.25\n")
        assert s.perron == s.entries[0] == (1, 0)
        assert s.entries == (
            (1, 0),
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(-1, 3)),
            (Fraction(-1, 4), 0),
        )

    def test_parse_rejects_garbage(self):
        from dstoch import FormatError

        with pytest.raises(FormatError):
            parse_spectrum("1+i")
        with pytest.raises(FormatError):
            parse_spectrum("")

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dstoch import (
    BasisError,
    ConjugacyError,
    DimensionError,
    FloatMatrix,
    MembershipError,
    OrthoBasis,
    PerronWarning,
    PreconditionError,
    SpectrumList,
    canonical_basis,
    charpoly_float,
    companion,
    cospectral_ds,
    embed,
    extract,
    poly_from_spectrum,
    random_basis,
    realize_cospectral,
    realize_nonneg,
    uniform_matrix,
)
from dstoch import orthogonal, spectra
from dstoch.orthogonal import ASSEMBLY_TOL, MEMBERSHIP_TOL, SPECTRAL_TOL
from oracles import A_ZEROCOL, rand_unit_disk_spectrum


def max_abs_diff(a: FloatMatrix, b: FloatMatrix) -> float:
    return float(np.abs(a.to_numpy() - b.to_numpy()).max())


def companion_realization(s: SpectrumList, basis: OrthoBasis | None = None) -> FloatMatrix:
    # the paper's construction: the companion block of the non-dominant
    # entries' polynomial, embedded
    block = FloatMatrix(companion(poly_from_spectrum(s.rest())).rows)
    return embed(basis or canonical_basis(s.size), block)


def rand_float_matrix(rng: random.Random, n: int) -> FloatMatrix:
    return FloatMatrix([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])


class TestCanonicalBasis:
    def test_order_one(self):
        assert canonical_basis(1).u == FloatMatrix([[1.0]])

    def test_order_two(self):
        u = canonical_basis(2).u
        s = 1 / math.sqrt(2)
        want = FloatMatrix([[s, s], [s, -s]])
        assert max_abs_diff(u, want) <= ASSEMBLY_TOL

    def test_orthogonal_involution_up_to_twelve(self):
        for n in range(1, 13):
            u = canonical_basis(n).u.to_numpy()
            eye = np.eye(n)
            assert np.abs(u.T @ u - eye).max() <= ASSEMBLY_TOL
            assert np.abs(u @ u - eye).max() <= ASSEMBLY_TOL
            assert np.abs(u - u.T).max() <= ASSEMBLY_TOL
            assert np.abs(u[:, 0] - 1 / math.sqrt(n)).max() <= ASSEMBLY_TOL

    def test_symmetric_involution_at_large_orders(self):
        # canonical_basis checks neither symmetry nor involution at run time:
        # its symmetric fill gives both, shown here at the float_realize orders
        for n in (20, 40, 80):
            u = canonical_basis(n).u.to_numpy()
            eye = np.eye(n)
            assert np.array_equal(u, u.T)
            assert np.abs(u.T @ u - eye).max() <= ASSEMBLY_TOL
            assert np.abs(u @ u - eye).max() <= ASSEMBLY_TOL
            assert np.abs(u[:, 0] - 1 / math.sqrt(n)).max() <= ASSEMBLY_TOL

    def test_invalid_order(self):
        with pytest.raises(DimensionError):
            canonical_basis(0)


class TestUserBasis:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(BasisError):
            OrthoBasis(FloatMatrix([[1, 1], [0, 1]]))

    def test_rejects_wrong_first_column(self):
        with pytest.raises(BasisError):
            OrthoBasis(FloatMatrix.identity(3))

    def test_random_basis_is_valid_and_reproducible(self):
        for n in (1, 2, 7, 10):
            v = random_basis(n, seed=4)
            w = random_basis(n, seed=4)
            assert v.u == w.u
        assert random_basis(5, seed=1).u != random_basis(5, seed=2).u


class TestRandomBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 80])
    def test_valid_signed_reproducible_and_seed_dependent(self, n):
        seeds = (0, 1, 2, 99, 2**40)
        bases = [random_basis(n, seed) for seed in seeds]
        for seed, b in zip(seeds, bases):
            u = b.u.to_numpy()
            # the OrthoBasis checks pass again on the bare matrix
            assert OrthoBasis(b.u).u == b.u
            # +1/sqrt(n), not -1/sqrt(n): the diag(R) sign fix is applied
            assert np.abs(u[:, 0] - 1 / math.sqrt(n)).max() <= ASSEMBLY_TOL
            assert random_basis(n, seed).u.to_numpy().tobytes() == u.tobytes()
        distinct = len({b.u.to_numpy().tobytes() for b in bases})
        # at n = 2 the second column is +-(1, -1)/sqrt(2), and these seeds
        # draw both signs; without the per-column sign fix they draw one
        assert distinct == {1: 1, 2: 2}.get(n, len(bases))

    def test_negative_seed_is_a_precondition_error(self):
        with pytest.raises(PreconditionError, match="nonnegative"):
            random_basis(3, -1)

    def test_invalid_order(self):
        with pytest.raises(DimensionError):
            random_basis(0, 1)


class TestEmbed:
    def test_identity_block(self):
        for n in (2, 5):
            basis = canonical_basis(n)
            out = embed(basis, FloatMatrix.identity(n - 1))
            assert max_abs_diff(out, FloatMatrix.identity(n)) <= 1e-12

    def test_zero_block_gives_uniform(self):
        for n in (2, 4, 9):
            out = embed(canonical_basis(n), FloatMatrix.zeros(n - 1))
            assert max_abs_diff(out, FloatMatrix(uniform_matrix(n).rows)) <= 1e-12

    def test_one_by_one_block(self):
        out = embed(canonical_basis(2), FloatMatrix([[1 / 3]]))
        want = FloatMatrix([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert max_abs_diff(out, want) <= 1e-12

    def test_unit_row_and_column_sums(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 10)
            basis = random_basis(n, seed=rng.randint(0, 99)) if rng.random() < 0.5 else canonical_basis(n)
            out = embed(basis, rand_float_matrix(rng, n - 1))
            sums = out.row_sums() + out.col_sums()
            assert all(abs(s - 1) <= MEMBERSHIP_TOL for s in sums)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            embed(canonical_basis(3), FloatMatrix.identity(3))

    def test_product_beyond_float_range_overflows(self):
        with pytest.raises(OverflowError, match="the embedding leaves the float range"):
            embed(canonical_basis(3), FloatMatrix([[1.7e308, 1.7e308], [1.7e308, 1.7e308]]))


class TestExtract:
    def test_uniform_gives_zero_block(self):
        n = 5
        out = extract(canonical_basis(n), FloatMatrix(uniform_matrix(n).rows))
        assert max_abs_diff(out, FloatMatrix.zeros(n - 1)) <= 1e-12

    def test_identity_gives_identity_block(self):
        n = 6
        out = extract(canonical_basis(n), FloatMatrix.identity(n))
        assert max_abs_diff(out, FloatMatrix.identity(n - 1)) <= 1e-12

    def test_known_projection_block_spectrum(self):
        b = FloatMatrix(cospectral_ds(A_ZEROCOL).rows)
        x = extract(canonical_basis(3), b)
        got = charpoly_float(x)
        want = [float(c) for c in poly_from_spectrum([Fraction(1, 3), 0]).coefficients]
        assert all(abs(p - q) <= SPECTRAL_TOL for p, q in zip(got, want))

    def test_round_trip_both_bases(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 10)
            for basis in (canonical_basis(n), random_basis(n, seed=rng.randint(0, 99))):
                x = rand_float_matrix(rng, n - 1)
                back = extract(basis, embed(basis, x))
                assert max_abs_diff(back, x) <= 1e-10
                again = embed(basis, extract(basis, embed(basis, x)))
                assert max_abs_diff(again, embed(basis, x)) <= 1e-9

    def test_rejects_non_member(self):
        with pytest.raises(MembershipError):
            extract(canonical_basis(2), FloatMatrix([[1, 1], [0, 1]]))

    def test_dimension_check(self):
        with pytest.raises(DimensionError, match="order-1"):
            extract(canonical_basis(1), FloatMatrix([[1]]))
        with pytest.raises(DimensionError, match="3-by-3"):
            extract(canonical_basis(3), FloatMatrix.identity(2))


class TestRealizeCospectral:
    def test_singleton(self):
        assert realize_cospectral(SpectrumList([1])) == FloatMatrix([[1.0]])

    def test_known_spectrum(self):
        s = SpectrumList([1, Fraction(1, 3), 0])
        b = realize_cospectral(s)
        sums = b.row_sums() + b.col_sums()
        assert all(abs(v - 1) <= MEMBERSHIP_TOL for v in sums)
        got = charpoly_float(b)
        want = [float(c) for c in poly_from_spectrum(s).coefficients]
        assert all(abs(p - q) <= SPECTRAL_TOL for p, q in zip(got, want))

    def test_rejects_wrong_perron(self):
        with pytest.raises(PreconditionError):
            realize_cospectral(SpectrumList([Fraction(1, 2), 0]))
        # within 1e-12 of 1 is still not 1: realizing 1 would drop the entry
        with pytest.raises(PreconditionError):
            realize_cospectral(SpectrumList([Fraction("1.0000000000001"), 0]))

    def test_rejects_basis_of_another_order(self):
        with pytest.raises(DimensionError, match="basis order 4"):
            realize_cospectral(SpectrumList([1, Fraction(1, 3), 0]), canonical_basis(4))

    def test_block_is_float_companion(self):
        # the paper's companion block, as floats, is ones on the superdiagonal
        # and last row float(-c_j), and it embeds and extracts back unchanged
        rng = random.Random(41)
        spectra = [rand_unit_disk_spectrum(rng, n) for n in (2, 3, 5, 8, 12, 20)]
        # zero roots give zero coefficients, which must stay +0.0
        spectra += [[1, 0], [1, 0, Fraction(-1, 2)], [1, (0, Fraction(1, 2)), (0, Fraction(-1, 2))]]
        spectra += [entries + [0, 0] for entries in spectra[:4]]
        for entries in spectra:
            s = SpectrumList(entries)
            k = s.size - 1
            want = np.eye(k, k, 1)
            want[-1] = [float(-c) for c in poly_from_spectrum(s.rest()).coefficients[:k]]
            block = FloatMatrix(companion(poly_from_spectrum(s.rest())).rows)
            assert block.to_numpy().tobytes() == want.tobytes()
            for basis in (canonical_basis(s.size), random_basis(s.size, seed=s.size)):
                got = companion_realization(s, basis)
                assert got.to_numpy().tobytes() == embed(basis, block).to_numpy().tobytes()
                assert extract(basis, got).allclose(block, 1e-9)

    def test_normal_block_order(self, monkeypatch):
        # real entries on the diagonal in rest() order, then one 2x2 block
        # per entry with im > 0, in order; the im < 0 partners are skipped
        s = SpectrumList([
            1, (Fraction(1, 2), Fraction(1, 3)), Fraction(1, 4), (Fraction(1, 2), Fraction(-1, 3)),
            Fraction(-1, 2), (0, Fraction(-1, 5)), (0, Fraction(1, 5)),
        ])
        want = np.zeros((6, 6))
        want[:2, :2] = np.diag([1 / 4, -1 / 2])
        want[2:4, 2:4] = [[1 / 2, 1 / 3], [-1 / 3, 1 / 2]]
        want[4:, 4:] = [[0, 1 / 5], [-1 / 5, 0]]
        blocks = []

        def recording_embed(basis, x):
            blocks.append(x.to_numpy())
            return embed(basis, x)

        monkeypatch.setattr(orthogonal, "embed", recording_embed)
        for basis in (canonical_basis(7), random_basis(7, seed=7)):
            got = realize_cospectral(s, basis).to_numpy().tobytes()
            assert blocks.pop().tobytes() == want.tobytes()
            assert got == embed(basis, FloatMatrix(want)).to_numpy().tobytes()

    def test_normal_block_builds_no_polynomial(self, monkeypatch):
        s = SpectrumList([1, Fraction(1, 2), (0, Fraction(1, 3)), (0, Fraction(-1, 3))])
        calls = []
        real = spectra.poly_from_spectrum

        def counted(entries):
            calls.append(entries)
            return real(entries)

        monkeypatch.setattr(spectra, "poly_from_spectrum", counted)
        realize_cospectral(s)
        realize_cospectral(s, random_basis(s.size, seed=3))
        realize_nonneg(s)
        assert calls == []
        # a binding of its own in orthogonal would escape the patch above
        assert not hasattr(orthogonal, "poly_from_spectrum")

    @pytest.mark.parametrize("n", [10, 20, 40, 80])
    def test_normal_block_keeps_its_spectrum(self, n):
        # the orders the float_realize benchmark runs; the companion block
        # misses these spectra by up to 0.6 at n = 80
        rng = random.Random(n)
        for seed in range(3):
            s = SpectrumList(rand_unit_disk_spectrum(rng, n))
            want = [float(c) for c in poly_from_spectrum(s.rest()).coefficients]
            for basis in (canonical_basis(n), random_basis(n, seed)):
                b = realize_cospectral(s, basis)
                assert orthogonal._matched_eig_err(b, s.entries) <= 1e-12
                got = charpoly_float(extract(basis, b))
                assert max(abs(p - q) for p, q in zip(got, want)) <= SPECTRAL_TOL

    def test_root_of_multiplicity_six(self):
        # a companion matrix with a root of multiplicity m is a Jordan
        # block, and its eigenvalues move by about eps^(1/m): 2.5e-3 here
        s = SpectrumList([1] + [Fraction(1, 2)] * 6 + [(Fraction(-1, 4), Fraction(1, 3)),
                                                      (Fraction(-1, 4), Fraction(-1, 3))])
        for basis in (canonical_basis(9), random_basis(9, seed=5)):
            assert orthogonal._matched_eig_err(realize_cospectral(s, basis), s.entries) <= 1e-12
            companion_err = orthogonal._matched_eig_err(companion_realization(s, basis), s.entries)
            assert companion_err > 1e-6

    @pytest.mark.parametrize("n", [40, 80])
    def test_unit_sums_with_random_basis_at_large_order(self, n):
        rng = random.Random(n)
        for seed in range(3):
            s = SpectrumList(rand_unit_disk_spectrum(rng, n))
            b = realize_cospectral(s, random_basis(n, seed))
            assert all(abs(v - 1) <= MEMBERSHIP_TOL for v in b.row_sums() + b.col_sums())

    def test_every_polynomial_path_checks_closure_once(self, monkeypatch):
        # the companion construction builds its polynomial through the checked
        # poly_from_spectrum, so it runs the closure rule exactly once; the
        # normal block builds no polynomial and relies on the check
        # SpectrumList made, so it runs the rule no further time
        s = SpectrumList([1, Fraction(1, 2), (0, Fraction(1, 3)), (0, Fraction(-1, 3))])
        calls = []
        real = spectra._require_conjugate_closed

        def counted(entries):
            calls.append(entries)
            return real(entries)

        monkeypatch.setattr(spectra, "_require_conjugate_closed", counted)
        for run in (
            lambda: companion_realization(s),
            lambda: companion_realization(s, random_basis(s.size, seed=3)),
            lambda: poly_from_spectrum(s.rest()),
        ):
            calls.clear()
            run()
            assert calls == [s.rest()]
        for run in (
            lambda: realize_cospectral(s),
            lambda: realize_cospectral(s, random_basis(s.size, seed=3)),
            lambda: realize_nonneg(s),
        ):
            calls.clear()
            run()
            assert calls == []

    def test_conjugacy_error_at_construction(self):
        with pytest.raises(ConjugacyError):
            SpectrumList([1, (0, 1)])

    def test_different_bases_cospectral_but_unequal(self):
        s = SpectrumList([1, Fraction(-1, 2), Fraction(1, 4), 0])
        b_canon = realize_cospectral(s)
        b_rand = realize_cospectral(s, random_basis(4, seed=11))
        assert max_abs_diff(b_canon, b_rand) > 1e-6
        p, q = charpoly_float(b_canon), charpoly_float(b_rand)
        assert all(abs(x - y) <= SPECTRAL_TOL for x, y in zip(p, q))


class TestRealizeNonneg:
    def test_swap_spectrum_already_nonnegative(self):
        k, b = realize_nonneg(SpectrumList([1, -1]))
        assert k == 0.0
        assert max_abs_diff(b, FloatMatrix([[0, 1], [1, 0]])) <= 1e-12

    def test_frozen_regression_value(self):
        # the companion construction of [1, 0, 1/4], lifted
        k, b = orthogonal._lift(companion_realization(SpectrumList([1, 0, Fraction(1, 4)])))
        assert abs(k - 0.70753175473054816) <= 1e-12
        assert b.min_entry() >= -1e-10
        assert all(abs(s - (1 + k)) <= 1e-9 for s in b.row_sums() + b.col_sums())
        # non-dominant part of the spectrum is untouched: factor x(x - 1/4)
        got = charpoly_float(b)
        want = [float(c) for c in poly_from_spectrum([(Fraction(1 + k), 0), (0, 0), (Fraction(1, 4), 0)]).coefficients]
        assert all(abs(p - q) <= SPECTRAL_TOL for p, q in zip(got, want))

    def test_frozen_regression_value_normal_block(self):
        # the normal block diag(0, 1/4) embeds to a nonnegative matrix, so no
        # shift is needed; the companion block of x(x - 1/4) needs 0.7075...
        # (test_frozen_regression_value)
        s = SpectrumList([1, 0, Fraction(1, 4)])
        k, b = realize_nonneg(s)
        assert k == 0.0
        assert b == realize_cospectral(s)
        assert b.min_entry() >= -1e-10
        assert all(abs(v - 1) <= 1e-9 for v in b.row_sums() + b.col_sums())
        got = charpoly_float(b)
        want = [float(c) for c in poly_from_spectrum(s).coefficients]
        assert all(abs(p - q) <= SPECTRAL_TOL for p, q in zip(got, want))

    def test_shift_consistency_identity(self):
        # charpoly(B0 + k J) * (x - 1) == charpoly(B0) * (x - (1+k)) over floats
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 8)
            s = SpectrumList(rand_unit_disk_spectrum(rng, n))
            b0 = realize_cospectral(s)
            k, b = realize_nonneg(s)
            p0 = np.polynomial.Polynomial(charpoly_float(b0))
            pk = np.polynomial.Polynomial(charpoly_float(b))
            lhs = pk * np.polynomial.Polynomial([-1.0, 1.0])
            rhs = p0 * np.polynomial.Polynomial([-(1.0 + k), 1.0])
            assert np.abs(lhs.coef - rhs.coef).max() <= 1e-8

    def test_k_varies_with_basis(self):
        s = SpectrumList([1, Fraction(-3, 4), Fraction(1, 2), (0, Fraction(1, 2)), (0, Fraction(-1, 2))])
        k_canon, _ = realize_nonneg(s)
        ks = {round(realize_nonneg(s, random_basis(5, seed=i))[0], 12) for i in range(4)}
        ks.add(round(k_canon, 12))
        assert len(ks) > 1

    def test_lift_beyond_float_range_overflows(self):
        with pytest.warns(PerronWarning):
            s = SpectrumList([1, 10**154, 10**154])
        # the companion block of (x - 1e154)^2 has 1e308 in its last row
        assert companion_realization(s).min_entry() < 0
        with pytest.raises(OverflowError):
            orthogonal._lift(companion_realization(s))

    def test_lift_beyond_float_range_overflows_normal_block(self):
        with pytest.warns(PerronWarning):
            s = SpectrumList([1, -17 * 10**307, -17 * 10**307])
        assert realize_cospectral(s).min_entry() < 0
        with pytest.raises(OverflowError, match="the nonnegative lift"):
            realize_nonneg(s)

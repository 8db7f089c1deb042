"""Fiberization: Gram fibers, bounds, biorthogonality, containment,
orthonormalization, synthesis."""

import numpy as np
import pytest

import wandergen as wg
from wandergen import _linalg, fibers, oblique, oracle
from wandergen.defaults import TOL_RANK_REL
from wandergen.fibers import family_from_fibers, fiber_span_angle, gram_normalization, union_family
from conftest import (
    combine_fiberwise,
    orth_columns,
    random_biortho_quadruple,
    random_coeff_stack,
    random_family,
    random_oblique_instance,
    random_riesz_family,
    random_orthonormal_family,
    random_space,
)


def space(orders, m=1):
    return wg.SystemSpace(wg.FiniteAbelian(tuple(orders)), m)


class TestGramFibers:
    def test_delta_orbit_identity(self):
        sp = space([2])
        G = wg.gram_fibers(wg.Family(sp, (wg.delta(sp, 0),)))
        np.testing.assert_allclose(G.matrices, np.ones((2, 1, 1)), atol=1e-15)

    def test_weighted_z2(self):
        sp = space([2])
        x = np.sqrt(3) / 2 * wg.delta(sp, 0) + 0.5 * wg.delta(sp, 1)
        G = wg.gram_fibers(wg.Family(sp, (x,)))
        vals = sorted(float(m[0, 0].real) for m in G.matrices)
        np.testing.assert_allclose(vals, [1 - np.sqrt(3) / 2, 1 + np.sqrt(3) / 2], atol=1e-12)
        np.testing.assert_allclose(vals, [0.134, 1.866], atol=1e-3)

    def test_two_member_fibers_hermitian_psd(self):
        rng = np.random.default_rng(20)
        sp = space([4], 2)
        fam = random_family(rng, sp, 2)
        G = wg.gram_fibers(fam)
        assert G.matrices.shape == (4, 2, 2)
        assert np.max(np.abs(G.matrices - G.matrices.conj().transpose(0, 2, 1))) <= 1e-12
        eigs = np.linalg.eigvalsh(G.matrices)
        assert eigs.min() >= -1e-10
        # eigenvalue multiset equals the dense orbit Gram's
        M = oracle.dense_family_matrix(fam)
        dense_eigs = np.sort(np.linalg.eigvalsh(M.conj().T @ M))
        np.testing.assert_allclose(np.sort(eigs.ravel()), dense_eigs, atol=1e-8)

    def test_empty_family(self):
        with pytest.raises(wg.EmptyFamily):
            wg.gram_fibers(wg.Family(space([2]), ()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_gram_with_an_infinite_eigenvalue_is_a_size_limit(self):
        # every Gram entry is 1e308, but the fiber's eigenvalue 2e308 is not
        X = wg.SampledFamily(wg.SystemSpace(wg.IntegerShift(4), 1), np.full((4, 1, 2), 1e154, dtype=complex))
        assert np.all(np.isfinite(wg.gram_fibers(X).matrices))
        for bounds in (wg.riesz_bounds, wg.frame_bounds):
            with pytest.raises(wg.SizeLimit, match="Gram fiber eigenvalues overflow float64"):
                bounds(X)


class TestRieszBounds:
    def test_orthonormal_orbit(self):
        sp = space([3], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        b = wg.riesz_bounds(fam)
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)
        assert b.exact

    def test_weighted_z2_values(self):
        sp = space([2])
        x = np.sqrt(3) / 2 * wg.delta(sp, 0) + 0.5 * wg.delta(sp, 1)
        b = wg.riesz_bounds(wg.Family(sp, (x,)))
        assert b.lower == pytest.approx(0.1340, abs=1e-4)
        assert b.upper == pytest.approx(1.8660, abs=1e-4)

    def test_duplicate_member_not_riesz(self):
        sp = space([2])
        with pytest.raises(wg.NotRiesz):
            wg.riesz_bounds(wg.Family(sp, (wg.delta(sp, 0), wg.delta(sp, 0))))


class TestFrameBounds:
    def test_duplicated_generator_doubles(self):
        sp = space([2])
        b = wg.frame_bounds(wg.Family(sp, (wg.delta(sp, 0), wg.delta(sp, 0))))
        assert b.lower == pytest.approx(2.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_riesz_family_same_bounds(self):
        rng = np.random.default_rng(21)
        fam = random_riesz_family(rng, space([4], 2), 2)
        rb, fb = wg.riesz_bounds(fam), wg.frame_bounds(fam)
        assert fb.lower == pytest.approx(rb.lower, rel=1e-12)
        assert fb.upper == pytest.approx(rb.upper, rel=1e-12)

    def test_rank_one_pair_matches_dense(self):
        rng = np.random.default_rng(22)
        sp = space([4], 2)
        base = random_riesz_family(rng, sp, 1)
        fam = wg.Family(sp, (base.members[0], 2.0 * base.members[0]))
        fb = wg.frame_bounds(fam)
        db = oracle.dense_frame_bounds(fam)
        assert abs(fb.lower - db.lower) <= 1e-8
        assert abs(fb.upper - db.upper) <= 1e-8

    def test_rank_jump(self):
        sp = space([2])
        x = wg.delta(sp, 0) + wg.delta(sp, 1)  # fiber vanishes at the sign character
        with pytest.raises(wg.RankJump):
            wg.frame_bounds(wg.Family(sp, (x,)))

    def test_zero_span_family(self):
        sp = space([2])
        zero = 0.0 * wg.delta(sp, 0)
        with pytest.raises(wg.EmptyFamily):
            wg.frame_bounds(wg.Family(sp, (zero,)))


class TestMixedGramian:
    def test_self_pairing_orthonormal(self):
        sp = space([4], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        M = wg.mixed_gramian(fam, fam)
        assert M.identity_deviation() <= 1e-12

    def test_orthogonal_families_zero(self):
        sp = space([2], 2)
        A = wg.Family(sp, (wg.delta(sp, 0, 0),))
        B = wg.Family(sp, (wg.delta(sp, 0, 1),))
        M = wg.mixed_gramian(A, B)
        assert np.max(np.abs(M.matrices)) <= 1e-15

    def test_size_mismatch(self):
        sp = space([2], 2)
        A = wg.Family(sp, (wg.delta(sp, 0, 0),))
        B = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        with pytest.raises(wg.SizeMismatch):
            wg.mixed_gramian(A, B)

    def test_matches_direct_inner_products(self):
        # cross-Gram identity fibers <=> all orbit cross inner products are deltas
        rng = np.random.default_rng(23)
        sp = space([3], 2)
        X = random_riesz_family(rng, sp, 2)
        G = wg.gram_fibers(X)
        # canonical dual inside the span: fibers X @ conj(inv(G))
        dual = combine_fiberwise(X, np.linalg.inv(G.matrices).conj())
        check = wg.is_biorthogonal(X, dual)
        assert check.ok and check.residual <= 1e-9
        group = sp.group
        for i, x in enumerate(X.members):
            for j, d in enumerate(dual.members):
                for g in group.elements():
                    expected = 1.0 if (i == j and g == group.identity) else 0.0
                    assert abs(x.inner(wg.translate(g, d)) - expected) <= 1e-9


class TestIsBiorthogonal:
    def test_identity_pair(self):
        sp = space([2], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        ok, residual = wg.is_biorthogonal(fam, fam)
        assert ok and residual <= 1e-15

    def test_perturbed_pair(self):
        sp = space([2], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        bumped = wg.Family(
            sp, (fam.members[0] + 0.01 * wg.delta(sp, 0, 1), fam.members[1])
        )
        ok, residual = wg.is_biorthogonal(fam, bumped)
        assert not ok
        assert residual == pytest.approx(0.01, rel=1e-6)


class TestIsContained:
    def test_literal_subfamily(self):
        rng = np.random.default_rng(24)
        sp = space([4], 2)
        Y = random_riesz_family(rng, sp, 2)
        X = wg.Family(sp, Y.members[:1])
        assert wg.is_contained(X, Y)

    def test_orthogonal_component_not_contained(self):
        sp = space([2], 2)
        Y = wg.Family(sp, (wg.delta(sp, 0, 0),))
        X = wg.Family(sp, (wg.delta(sp, 0, 1),))
        assert not wg.is_contained(X, Y)

    def test_fiberwise_image_contained(self):
        rng = np.random.default_rng(25)
        sp = space([6], 3)
        Y = random_riesz_family(rng, sp, 2)
        X = combine_fiberwise(Y, random_coeff_stack(rng, 6, 2, 1))
        assert wg.is_contained(X, Y)

    def test_mutual_containment_means_equal_spans(self):
        rng = np.random.default_rng(26)
        sp = space([4], 3)
        Y = random_riesz_family(rng, sp, 2)
        X = combine_fiberwise(Y, random_coeff_stack(rng, 4, 2, 2))
        if wg.is_contained(X, Y) and wg.is_contained(Y, X):
            assert fiber_span_angle(X, Y) <= 1e-8


class TestOrthonormalize:
    def test_orthonormal_input_stays(self):
        sp = space([4], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        out = wg.orthonormalize(fam)
        assert wg.gram_fibers(out).identity_deviation() <= 1e-12

    def test_scalar_fibers_unit_modulus(self):
        sp = space([2])
        x = np.sqrt(3) / 2 * wg.delta(sp, 0) + 0.5 * wg.delta(sp, 1)
        out = wg.orthonormalize(wg.Family(sp, (x,)))
        F = out.fibers
        np.testing.assert_allclose(
            np.abs(F) * np.sqrt(gram_normalization(sp)), 1.0, atol=1e-12
        )

    def test_random_family_dense_orbit_gram(self):
        rng = np.random.default_rng(27)
        fam = random_riesz_family(rng, space([6], 3), 2)
        out = wg.orthonormalize(fam)
        M = oracle.dense_family_matrix(out)
        np.testing.assert_allclose(M.conj().T @ M, np.eye(M.shape[1]), atol=1e-9)
        assert fiber_span_angle(out, fam) <= 1e-8

    def test_idempotent_bounds(self):
        rng = np.random.default_rng(28)
        fam = random_riesz_family(rng, space([4], 2), 2)
        b = wg.riesz_bounds(wg.orthonormalize(fam))
        assert abs(b.lower - 1) <= 1e-9 and abs(b.upper - 1) <= 1e-9

    def test_not_riesz_rejected(self):
        sp = space([2])
        with pytest.raises(wg.NotRiesz):
            wg.orthonormalize(wg.Family(sp, (wg.delta(sp, 0), wg.delta(sp, 0))))


class TestSynthesize:
    def test_single_unit_coefficient(self):
        sp = space([4], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        out = wg.synthesize(fam, {((2,), 1): 1.0})
        assert out == wg.translate((2,), fam.members[1])

    def test_zero_array(self):
        sp = space([4])
        fam = wg.Family(sp, (wg.delta(sp, 0),))
        assert wg.synthesize(fam, {}).norm() == 0.0

    def test_parseval_on_orthonormal_family(self):
        rng = np.random.default_rng(29)
        sp = space([4], 2)
        fam = random_orthonormal_family(rng, sp, 2)
        a = {
            (g, j): complex(rng.standard_normal(), rng.standard_normal())
            for g in sp.group.elements()
            for j in range(2)
        }
        out = wg.synthesize(fam, a)
        asq = sum(abs(v) ** 2 for v in a.values())
        assert abs(out.norm() ** 2 - asq) <= 1e-10 * asq

    def test_index_out_of_range(self):
        sp = space([2])
        fam = wg.Family(sp, (wg.delta(sp, 0),))
        with pytest.raises(IndexError):
            wg.synthesize(fam, {((0,), 1): 1.0})


class TestSynthesisInequality:
    def test_bounds_hold_on_random_coefficients(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            sp = random_space(rng)
            fam = random_riesz_family(rng, sp, int(rng.integers(1, sp.channels + 1)))
            b = wg.riesz_bounds(fam)
            a = {
                (g, j): complex(rng.standard_normal(), rng.standard_normal())
                for g in sp.group.elements()
                for j in range(len(fam))
            }
            nsq = wg.synthesize(fam, a).norm() ** 2
            asq = sum(abs(v) ** 2 for v in a.values())
            eps = 1e-10 * asq
            assert b.lower * asq - eps <= nsq <= b.upper * asq + eps


class TestFamilyFibers:
    def test_fibers_kept_and_read_only(self):
        rng = np.random.default_rng(62)
        fam = random_family(rng, space([4], 2), 2)
        F = fam.fibers
        assert fam.fibers is F
        with pytest.raises(ValueError):
            F[0, 0, 0] = 1.0

    def test_empty_family_fibers(self):
        fam = wg.Family(space([3], 2), ())
        assert fam.fibers.shape == (3, 2, 0)
        assert fam.space.points == 3


class TestFiberHolders:
    """Every holder is a system space and a fiber tensor over its dual points."""

    def test_sampling_is_the_spaces(self):
        rng = np.random.default_rng(63)
        sp = space([4], 2)
        X = random_family(rng, sp, 2)
        columns = np.stack([v.dense().reshape(-1) for v in X.members], axis=1)
        shift = wg.SystemSpace(wg.IntegerShift(16), 1)
        holders = [
            X,
            wg.SampledFamily(sp, X.fibers),
            wg.DenseBasis(sp, columns),
            wg.FiberBasisField(sp, X.fibers),
            wg.Family(shift, (wg.delta(shift, 0),)),
            union_family(X, X),
        ]
        for holder in holders:
            assert len(holder.fibers) == holder.space.points

    @pytest.mark.parametrize("holder", [wg.SampledFamily, wg.FiberBasisField])
    def test_fibers_must_match_the_space(self, holder):
        sp = space([8], 2)
        with pytest.raises(ValueError, match=r"^expected \(8, 2, k\) fibers, got \(4, 2, 1\)$"):
            holder(sp, np.zeros((4, 2, 1), dtype=np.complex128))
        with pytest.raises(ValueError, match=r"^expected \(8, 2, k\) fibers, got \(8, 3, 1\)$"):
            holder(sp, np.zeros((8, 3, 1), dtype=np.complex128))
        with pytest.raises(ValueError, match=r"^expected \(8, 2, k\) fibers, got \(8, 2\)$"):
            holder(sp, np.zeros((8, 2), dtype=np.complex128))
        assert len(holder(sp, np.zeros((8, 2, 3), dtype=np.complex128))) == 3

    @pytest.mark.parametrize("orders", [(256,), (1024,), (32, 32)], ids=["Z256", "Z1024", "Z32xZ32"])
    def test_union_stacks_cached_fibers(self, orders, monkeypatch):
        rng = np.random.default_rng(sum(orders) + 1)
        sp = space(orders, 4)
        X, Y = random_family(rng, sp, 2), random_family(rng, sp, 3)
        joined = wg.Family(sp, X.members + Y.members)
        joined.gram, X.fibers, Y.fibers  # every transform before the union
        calls = []
        transform = fibers._transform
        monkeypatch.setattr(fibers, "_transform", lambda *args: calls.append(args) or transform(*args))
        union = union_family(X, Y)
        assert np.array_equal(union.fibers, joined.fibers)
        assert np.array_equal(union.gram, joined.gram)
        assert calls == []


class TestCachedFactors:
    """Each holder's thin SVD factors ``svd`` = (U, s): computed once,
    read-only, the one spectrum its rank decisions read, and never written
    through the fiber bases sliced from U."""

    def test_kept_and_read_only_for_every_holder(self):
        rng = np.random.default_rng(64)
        sp = space([8], 3)
        X = random_family(rng, sp, 2)
        columns = np.stack([v.dense().reshape(-1) for v in X.members], axis=1)
        for holder in (X, wg.SampledFamily(sp, X.fibers), wg.DenseBasis(sp, columns), wg.FiberBasisField(sp, X.fibers)):
            factors = holder.svd
            assert holder.svd is factors
            assert [a.shape for a in factors] == [(8, 3, 2), (8, 2)]
            for a in factors:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0

    @pytest.mark.parametrize("kind", ["random", "rank-deficient", "zero"])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_one_spectrum_for_ranks_and_bases(self, kind, k):
        rng = np.random.default_rng(66 + k)
        sp = space([8], 4)
        F = random_coeff_stack(rng, 8, 4, k)
        if kind == "rank-deficient":  # rank 1 or 2, the other singular values at rounding level
            F = random_coeff_stack(rng, 8, 4, k // 2) @ random_coeff_stack(rng, 8, k // 2, k)
        elif kind == "zero":
            F = np.zeros_like(F)
        U, s = wg.SampledFamily(sp, F).svd
        for rel in (TOL_RANK_REL, 1e-6):
            expected = _linalg._rank(np.linalg.svd(F, compute_uv=False), rel)
            assert np.array_equal(_linalg._rank(s, rel), expected)
            assert np.array_equal(_linalg.matrix_rank(F, rel), expected)
        assert np.array_equal(U, orth_columns(F)[0])
        assert set(_linalg._rank(s, TOL_RANK_REL)) == {{"random": min(k, 4), "rank-deficient": k // 2, "zero": 0}[kind]}

    def test_constructions_never_write_into_cached_bases(self):
        rng = np.random.default_rng(67)
        X, Y, W0 = random_oblique_instance(rng)
        Xb, Xtb, Yb, Ytb = random_biortho_quadruple(rng)
        holders = (X, Y, W0, Xb, Xtb, Yb, Ytb)
        before = [h.svd[0].copy() for h in holders]
        basis = oblique._fiber_basis(W0, TOL_RANK_REL)
        assert np.shares_memory(basis.fibers, W0.svd[0]) and not basis.fibers.flags.writeable
        wg.oblique_riesz_wavelets(X, Y, W0)
        wg.oblique_frame_wavelets(X, Y, W0)
        wg.orth_complement_in(Y, X)
        wg.biorthogonal_wavelets(Xb, Xtb, Yb, Ytb)
        wg.dual_family(Yb, Ytb)
        for h, U in zip(holders, before):
            assert np.array_equal(h.svd[0], U)


class TestSampledMode:
    def test_two_tap_bound_curve_values(self):
        sp = wg.SystemSpace(wg.IntegerShift(32), 1)
        x = (1 / np.sqrt(2)) * (wg.delta(sp, 0) + wg.delta(sp, 1))
        G = wg.gram_fibers(wg.Family(sp, (x,)))
        angles = 2.0 * np.pi * np.arange(32) / 32
        np.testing.assert_allclose(
            G.matrices[:, 0, 0].real, 2 * np.cos(angles / 2) ** 2, atol=1e-12
        )

    def test_bounds_flagged_inexact(self):
        sp = wg.SystemSpace(wg.IntegerShift(16), 1)
        x = wg.delta(sp, 0) + 0.25 * wg.delta(sp, 1)
        b = wg.riesz_bounds(wg.Family(sp, (x,)))
        assert not b.exact
        np.testing.assert_allclose(b.lower, 0.5625, atol=1e-12)  # (1 - 1/4)^2
        np.testing.assert_allclose(b.upper, 1.5625, atol=1e-12)  # (1 + 1/4)^2

    def test_grid_refinement_nests(self):
        x_taps = [(0, 1.0), (1, 0.35), (2, -0.2)]
        lowers, uppers = [], []
        for grid in (16, 32, 64):
            sp = wg.SystemSpace(wg.IntegerShift(grid), 1)
            x = wg.GroupVector(sp, {((n), 0): v for n, v in x_taps})
            b = wg.riesz_bounds(wg.Family(sp, (x,)))
            lowers.append(b.lower)
            uppers.append(b.upper)
        assert lowers[0] >= lowers[1] >= lowers[2]
        assert uppers[0] <= uppers[1] <= uppers[2]


class TestBatchedTransforms:
    """One stacked FFT per family, bit for bit equal to one per member."""

    @pytest.mark.parametrize("orders", [(256,), (1024,), (32, 32)], ids=["Z256", "Z1024", "Z32xZ32"])
    def test_forward_and_inverse_equal_per_member(self, orders):
        rng = np.random.default_rng(sum(orders))
        sp = space(orders, 4)
        X = random_family(rng, sp, 3)
        per_member = np.stack([wg.fourier(v) for v in X.members], axis=2)
        assert np.array_equal(X.fibers, per_member)
        F = X.fibers @ random_coeff_stack(rng, sp.points, 3, 2)
        Z = family_from_fibers(sp, F)
        for j, z in enumerate(Z.members):
            expected = wg.inverse_fourier(F[:, :, j], sp)
            assert np.array_equal(z.dense(), expected.dense())

"""Oblique projector calculus and the wavelet constructions."""

import numpy as np
import pytest

import wandergen as wg
from wandergen import _linalg, oracle
from wandergen.defaults import TOL_RANK_REL
from wandergen.fibers import fiber_span_angle, gram_normalization
from wandergen.oblique import _fiber_basis
from conftest import (
    combine_fiberwise,
    random_biortho_quadruple,
    random_coeff_stack,
    random_frame_instance,
    random_noninvariant_dense_w0,
    random_oblique_instance,
    random_orthonormal_family,
    random_projection_triple,
    random_riesz_family,
    random_wandering_subfamily,
)


def space(orders, m=1):
    return wg.SystemSpace(wg.FiniteAbelian(tuple(orders)), m)


def idempotency_residual(P) -> float:
    """Largest entry of |P^2 - P| over a projector field's matrices."""
    return float(np.max(np.abs(P.matrices @ P.matrices - P.matrices)))


def z2_worked_example():
    sp = space([2], 2)
    e1, e2 = wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)
    X = wg.Family(sp, ((e1 + e2) * (1 / np.sqrt(2)),))
    Y = wg.Family(sp, (e1, e2))
    W0 = wg.Family(sp, (e2,))
    return sp, X, Y, W0


class TestOrthComplementIn:
    def test_empty_x_gives_whole_span(self):
        rng = np.random.default_rng(50)
        sp = space([4], 2)
        Y = random_riesz_family(rng, sp, 2)
        V = wg.orth_complement_in(Y, wg.Family(sp, ()))
        assert len(V) == 2
        assert wg.gram_fibers(V).identity_deviation() <= 1e-10
        assert fiber_span_angle(V, Y) <= 1e-8

    def test_x_equal_y_empty(self):
        rng = np.random.default_rng(51)
        sp = space([3], 2)
        Y = random_riesz_family(rng, sp, 2)
        assert len(wg.orth_complement_in(Y, Y)) == 0

    def test_z2_antisymmetric_generator(self):
        sp, X, Y, _ = z2_worked_example()
        V = wg.orth_complement_in(Y, X)
        got = V.members[0].dense().reshape(-1)
        want = np.array([1, -1, 0, 0], dtype=complex) / np.sqrt(2)
        phase = got[np.argmax(np.abs(got))] / want[np.argmax(np.abs(want))]
        np.testing.assert_allclose(got, phase * want, atol=1e-12)
        # dense oracle: complement of V0's orbit inside V1's
        P = oracle.dense_projector(oracle.dense_family_matrix(Y)) - oracle.dense_projector(
            oracle.dense_family_matrix(X)
        )
        np.testing.assert_allclose(P @ got, got, atol=1e-10)


class TestIsInvariant:
    def test_orbit_family_always(self):
        sp = space([4], 2)
        assert wg.is_invariant(wg.Family(sp, (wg.delta(sp, 1, 0),)))

    def test_dense_non_closed_span(self):
        sp = space([2], 2)
        cols = np.zeros((4, 1), dtype=complex)
        cols[2, 0] = 1.0  # delta at the nonidentity element, channel 0
        assert not wg.is_invariant(wg.DenseBasis(sp, cols))

    def test_dense_orbit_span_is_invariant(self):
        sp, X, Y, _ = z2_worked_example()
        V = wg.orth_complement_in(Y, X)
        cols = oracle.dense_family_matrix(V)
        assert wg.is_invariant(wg.DenseBasis(sp, cols))


class TestObliqueProjector:
    def test_orthogonal_split_matches_orthogonal_projector(self):
        rng = np.random.default_rng(52)
        sp = space([4], 3)
        Y = random_orthonormal_family(rng, sp, 3)
        X = random_wandering_subfamily(rng, Y, 1)
        V = wg.orth_complement_in(Y, X)
        P = wg.oblique_projector(X, V, Y)
        assert idempotency_residual(P) <= 1e-10
        FV, FX = V.fibers, X.fibers
        for p in range(FV.shape[0]):
            BV = np.linalg.svd(FV[p], full_matrices=False)[0]
            BX = np.linalg.svd(FX[p], full_matrices=False)[0]
            orth = BV @ BV.conj().T
            np.testing.assert_allclose(P.matrices[p] @ BV, BV, atol=1e-10)
            np.testing.assert_allclose(P.matrices[p] @ BX, 0 * BX, atol=1e-10)
            # on the joint span the oblique projector along an orthogonal
            # complement IS the orthogonal projector
            np.testing.assert_allclose(P.matrices[p] @ orth, orth, atol=1e-10)

    def test_generic_split_matches_dense_oracle(self):
        rng = np.random.default_rng(53)
        X, Y, W0 = random_oblique_instance(rng)
        P = wg.oblique_projector(X, W0, Y)
        assert idempotency_residual(P) <= 1e-10
        dense = oracle.dense_operator(P)
        oracle_dense = oracle.dense_oblique_projector(
            oracle.dense_family_matrix(X), oracle.dense_family_matrix(W0)
        )
        np.testing.assert_allclose(dense, oracle_dense, atol=1e-9)

    def test_overlap_rejected(self):
        rng = np.random.default_rng(54)
        sp = space([3], 2)
        Y = random_riesz_family(rng, sp, 2)
        X = combine_fiberwise(Y, random_coeff_stack(rng, 3, 2, 1))
        with pytest.raises(wg.NotDirectSum):
            wg.oblique_projector(X, X, Y)

    def test_v0_outside_v1_rejected(self):
        sp = space([2], 2)
        X, Y = wg.Family(sp, (wg.delta(sp, 0, 0),)), wg.Family(sp, (wg.delta(sp, 0, 1),))
        with pytest.raises(wg.NotContained, match="^V0 generators leave the fine space fiberwise$"):
            wg.oblique_projector(X, Y, Y)

    def test_commutes_with_dense_translations(self):
        rng = np.random.default_rng(55)
        X, Y, W0 = random_oblique_instance(rng)
        P = oracle.dense_operator(wg.oblique_projector(X, W0, Y))
        for g in [tuple(rng.integers(0, n) for n in X.space.group.orders) for _ in range(3)]:
            L = oracle.dense_translation_matrix(X.space, g)
            assert np.max(np.abs(P @ L - L @ P)) <= 1e-9

    def test_range_and_kernel_laws_generic(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            X, Y, W0 = random_oblique_instance(rng)
            P = wg.oblique_projector(X, W0, Y)
            assert idempotency_residual(P) <= 1e-10
            BV0 = _fiber_basis(X, 1e-9).fibers
            BW0 = _fiber_basis(W0, 1e-9).fibers
            assert np.max(np.abs(P.matrices @ BV0)) <= 1e-10
            assert np.max(np.abs(P.matrices @ BW0 - BW0)) <= 1e-10


class TestRestrictedProjectionPair:
    def test_m_equals_mprime(self):
        rng = np.random.default_rng(56)
        sp = space([4], 2)
        M = random_riesz_family(rng, sp, 1)
        N = random_riesz_family(rng, sp, 1)
        from wandergen.oblique import direct_sum_check

        if not direct_sum_check(M, N):
            pytest.skip("unlucky draw")
        pair = wg.restricted_projection_pair(M, M, N)
        assert pair.inverse_residual <= 1e-10
        np.testing.assert_allclose(pair.p1.matrices, np.ones((4, 1, 1)), atol=1e-9)

    def test_two_dim_fiber_with_line(self):
        rng = np.random.default_rng(57)
        M, Mp, N = random_projection_triple(rng)
        pair = wg.restricted_projection_pair(M, Mp, N)
        assert pair.inverse_residual <= 1e-9
        k = len(M)
        eye = np.eye(k)
        assert np.max(np.abs(pair.q1.matrices @ pair.p1.matrices - eye)) <= 1e-9

    @pytest.mark.parametrize("seed", [57, 800, 801, 802, 803])
    def test_two_svds_and_pinv_bits(self, monkeypatch, seed):
        """With the holders' factors cached, the pair factors [FM | BN] and
        [FMp | BN] once each, for the rank tests, the test that FMp lies in
        [FM | BN]'s span and the solve; p1 and q1 keep numpy's pinv bits."""
        M, Mp, N = random_projection_triple(np.random.default_rng(seed))
        for fam in (M, Mp, N):
            fam.svd
        svd, shapes = np.linalg.svd, []
        counting = lambda a, *r, **k: shapes.append(np.shape(a)) or svd(a, *r, **k)  # noqa: E731
        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(np.linalg._linalg, "svd", counting)  # the SVD inside np.linalg.pinv
        pair = wg.restricted_projection_pair(M, Mp, N)
        monkeypatch.undo()
        k, rn = len(M), _linalg._rank(N.svd[1], TOL_RANK_REL)
        BN = _linalg.leading_columns(N.svd[0], rn)
        assert [len(shape) for shape in shapes] == [3, 3]
        p1 = (np.linalg.pinv(np.concatenate([M.fibers, BN], axis=2)) @ Mp.fibers)[:, :k]
        q1 = (np.linalg.pinv(np.concatenate([Mp.fibers, BN], axis=2)) @ M.fibers)[:, :k]
        assert np.array_equal(pair.p1.matrices, p1) and np.array_equal(pair.q1.matrices, q1)

    def test_empty_n_change_of_basis(self):
        rng = np.random.default_rng(58)
        sp = space([3], 2)
        M = random_riesz_family(rng, sp, 2)
        mix = random_coeff_stack(rng, 3, 2, 2)
        Mp = combine_fiberwise(M, mix)
        pair = wg.restricted_projection_pair(M, Mp, wg.Family(sp, ()))
        assert pair.inverse_residual <= 1e-10
        # with N = 0 the restriction is exactly the change of basis
        np.testing.assert_allclose(pair.p1.matrices, mix, atol=1e-9)

    def test_size_mismatch(self):
        sp = space([2], 2)
        M = wg.Family(sp, (wg.delta(sp, 0, 0),))
        Mp = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        with pytest.raises(wg.SizeMismatch):
            wg.restricted_projection_pair(M, Mp, wg.Family(sp, ()))

    def test_forms_no_oblique_projector(self, monkeypatch):
        from wandergen import _linalg

        def refuse(*args):
            raise AssertionError("the pair is one solve per direction")

        monkeypatch.setattr(_linalg, "oblique_projector_matrix", refuse)
        M, Mp, N = random_projection_triple(np.random.default_rng(57))
        assert wg.restricted_projection_pair(M, Mp, N).inverse_residual <= 1e-9


class TestObliqueRieszWavelets:
    def test_orthogonal_target_returns_z(self):
        rng = np.random.default_rng(59)
        sp = space([4], 2)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        V = wg.orth_complement_in(Y, X)
        gamma = wg.oblique_riesz_wavelets(X, Y, V)
        assert len(gamma) == 1
        np.testing.assert_allclose(
            gamma.members[0].dense(), V.members[0].dense(), atol=1e-10
        )
        b = wg.riesz_bounds(gamma)
        assert abs(b.lower - 1) <= 1e-9 and abs(b.upper - 1) <= 1e-9

    def test_z2_worked_example(self):
        sp, X, Y, W0 = z2_worked_example()
        gamma = wg.oblique_riesz_wavelets(X, Y, W0)
        assert len(gamma) == 1
        assert wg.is_contained(gamma, W0)
        # dense oracle: explicit projector in the 4-dim ambient space
        Z = wg.orth_complement_in(Y, X)
        P = oracle.dense_oblique_projector(
            oracle.dense_family_matrix(X), oracle.dense_family_matrix(W0)
        )
        expected = P @ Z.members[0].dense().reshape(-1)
        np.testing.assert_allclose(
            gamma.members[0].dense().reshape(-1), expected, atol=1e-10
        )
        # gamma is biorthogonal-normalizable against Z: the pairing is nonsingular
        pairing = wg.mixed_gramian(gamma, Z)
        assert np.min(np.abs(np.linalg.det(pairing.matrices))) > 1e-6

    def test_size_law_and_bounds(self):
        rng = np.random.default_rng(60)
        for _ in range(5):
            X, Y, W0 = random_oblique_instance(rng)
            gamma = wg.oblique_riesz_wavelets(X, Y, W0)
            assert len(gamma) == len(Y) - len(X)
            assert wg.riesz_bounds(gamma).lower > 0
            assert wg.is_contained(gamma, W0)

    def test_non_invariant_dense_w0(self):
        rng = np.random.default_rng(61)
        X, Y, _ = random_oblique_instance(rng)
        W = random_noninvariant_dense_w0(rng, X, Y)
        with pytest.raises(wg.NotInvariant):
            wg.oblique_riesz_wavelets(X, Y, W)

    def test_invariant_dense_w0_accepted(self):
        sp, X, Y, W0 = z2_worked_example()
        dense_w0 = wg.DenseBasis(sp, oracle.dense_family_matrix(W0))
        gamma = wg.oblique_riesz_wavelets(X, Y, dense_w0)
        assert len(gamma) == 1

    def test_equal_sizes_rejected(self):
        rng = np.random.default_rng(62)
        sp = space([3], 2)
        Y = random_riesz_family(rng, sp, 2)
        with pytest.raises(wg.SizesEqual):
            wg.oblique_riesz_wavelets(Y, Y, Y)


class TestObliqueFrameWavelets:
    def test_orthogonal_case_projects_y(self):
        rng = np.random.default_rng(63)
        sp = space([4], 2)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        V = wg.orth_complement_in(Y, X)
        gamma = wg.oblique_frame_wavelets(X, Y, V)
        assert len(gamma) == len(Y)
        b = wg.frame_bounds(gamma)
        assert b.lower > 0
        assert fiber_span_angle(gamma, V) <= 1e-8

    def test_redundant_fine_family(self):
        rng = np.random.default_rng(64)
        X, Y, W0 = random_frame_instance(rng)
        gamma = wg.oblique_frame_wavelets(X, Y, W0)
        assert len(gamma) == len(Y)
        b = wg.frame_bounds(gamma)
        assert b.lower > 0
        assert fiber_span_angle(gamma, W0) <= 1e-8

    def test_riesz_inputs_still_frame(self):
        rng = np.random.default_rng(65)
        X, Y, W0 = random_oblique_instance(rng)
        gamma = wg.oblique_frame_wavelets(X, Y, W0)
        assert wg.frame_bounds(gamma).lower > 0

    def test_builds_no_complement_of_v0(self, monkeypatch):
        from wandergen import _linalg

        def refuse(*args):
            raise AssertionError("Gamma = P Y needs no basis of V1 minus V0")

        monkeypatch.setattr(_linalg, "complement_in_span", refuse)
        monkeypatch.setattr(_linalg, "_pivoted_qr", refuse)
        X, Y, W0 = random_frame_instance(np.random.default_rng(64))
        assert len(wg.oblique_frame_wavelets(X, Y, W0)) == len(Y)

    def test_gamma_is_the_dense_oblique_projector_applied_to_y(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            X, Y, W0 = random_frame_instance(rng)
            gamma = wg.oblique_frame_wavelets(X, Y, W0)
            dense_x, dense_w0 = oracle.dense_family_matrix(X), oracle.dense_family_matrix(W0)
            expected = oracle.dense_oblique_projector(dense_x, dense_w0) @ oracle.dense_family_matrix(Y)
            np.testing.assert_allclose(oracle.dense_family_matrix(gamma), expected, rtol=0, atol=1e-11)


class TestDualFamily:
    def test_orthonormal_self_dual(self):
        rng = np.random.default_rng(66)
        sp = space([4], 2)
        Y = random_orthonormal_family(rng, sp, 2)
        gamma = random_wandering_subfamily(rng, Y, 1)
        dual = wg.dual_family(gamma, gamma)
        ok, residual = wg.is_biorthogonal(gamma, dual)
        assert ok
        np.testing.assert_allclose(
            dual.members[0].dense(), gamma.members[0].dense(), atol=1e-9
        )

    def test_canonical_dual_matches_inverse_gram(self):
        rng = np.random.default_rng(67)
        sp = space([3], 2)
        gamma = random_riesz_family(rng, sp, 2)
        dual = wg.dual_family(gamma, gamma)
        G = wg.gram_fibers(gamma)
        expected = combine_fiberwise(gamma, np.linalg.inv(G.matrices).conj())
        for a, b in zip(dual.members, expected.members):
            np.testing.assert_allclose(a.dense(), b.dense(), atol=1e-9)

    def test_skew_dual_space(self):
        sp, X, Y, W0 = z2_worked_example()
        gamma = wg.oblique_riesz_wavelets(X, Y, W0)
        # a skew dual space: spanned by something non-orthogonal to gamma
        tilted = wg.Family(sp, (wg.delta(sp, 0, 1) + 0.4 * wg.delta(sp, 0, 0),))
        dual = wg.dual_family(gamma, tilted)
        ok, residual = wg.is_biorthogonal(gamma, dual)
        assert ok and residual <= 1e-9
        assert wg.is_contained(dual, tilted)

    def test_singular_pairing(self):
        sp = space([2], 2)
        gamma = wg.Family(sp, (wg.delta(sp, 0, 0),))
        perp = wg.Family(sp, (wg.delta(sp, 0, 1),))
        with pytest.raises(wg.SingularPairing):
            wg.dual_family(gamma, perp)


class TestDirectSumCheck:
    def test_orthogonal_pair(self):
        sp = space([2], 2)
        A = wg.Family(sp, (wg.delta(sp, 0, 0),))
        B = wg.Family(sp, (wg.delta(sp, 0, 1),))
        assert wg.direct_sum_check(A, B)
        assert wg.direct_sum_check(A, B, require_ambient=True)

    def test_equal_families_fail(self):
        sp = space([2], 2)
        A = wg.Family(sp, (wg.delta(sp, 0, 0),))
        assert not wg.direct_sum_check(A, A)

    def test_pipeline_dual_space_complements_w0_perp(self):
        rng = np.random.default_rng(68)
        X, Xt, Y, Yt = random_biortho_quadruple(rng)
        pair = wg.biorthogonal_wavelets(X, Xt, Y, Yt)
        # Wt0 (here: span of gamma_tilde) (+) W0-perp = H, i.e. the pairing
        # of gamma with gamma_tilde is nonsingular and dims match
        FG, FGt = pair.gamma.fibers, pair.gamma_tilde.fibers
        N = gram_normalization(X.space)
        for p in range(X.space.points):
            pairing = N * FG[p].T @ FGt[p].conj()
            s = np.linalg.svd(pairing, compute_uv=False)
            assert s[-1] > 1e-9


class TestBiorthogonalWavelets:
    def test_orthonormal_self_dual_reduces_to_complement(self):
        rng = np.random.default_rng(69)
        sp = space([4], 3)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        pair = wg.biorthogonal_wavelets(X, X, Y, Y)
        # self-dual case: gamma_tilde = gamma and both live in the orthogonal
        # complement, exactly the wandering complement's span
        np.testing.assert_allclose(
            pair.gamma.members[0].dense(), pair.gamma_tilde.members[0].dense(), atol=1e-9
        )
        comp = wg.complement_wandering(X, Y)
        assert fiber_span_angle(pair.gamma, comp) <= 1e-8

    def test_skew_quadruple_pipeline(self):
        rng = np.random.default_rng(70)
        X, Xt, Y, Yt = random_biortho_quadruple(rng)
        pair = wg.biorthogonal_wavelets(X, Xt, Y, Yt)
        assert len(pair.gamma) == len(Y) - len(X)
        assert pair.pair_residual <= 1e-9
        assert pair.union_residual <= 1e-9
        assert wg.riesz_bounds(wg.Family(X.space, X.members + pair.gamma.members)).lower > 0
        assert wg.riesz_bounds(wg.Family(Xt.space, Xt.members + pair.gamma_tilde.members)).lower > 0
        # wavelets land in the right subspaces
        FG, FXt = pair.gamma.fibers, Xt.fibers
        inner = np.einsum("pci,pcj->pij", FXt.conj(), FG)
        assert np.max(np.abs(inner)) <= 1e-9

    def test_pair_residual_at_rounding_level(self):
        # the duals' final pairing inverse removes the rounding of the
        # projector products: 1.3e-14 here, 1.7e-13 without it
        rng = np.random.default_rng(78)
        worst = max(wg.biorthogonal_wavelets(*random_biortho_quadruple(rng)).pair_residual for _ in range(50))
        assert worst <= 5e-14

    def test_pipeline_pair_direct_inner_products(self):
        # oracle route: every orbit cross inner product of (Gamma, Gammatilde)
        # is the expected Kronecker delta by direct summation
        rng = np.random.default_rng(74)
        X, Xt, Y, Yt = random_biortho_quadruple(rng)
        pair = wg.biorthogonal_wavelets(X, Xt, Y, Yt)
        group = X.space.group
        for i, z in enumerate(pair.gamma.members):
            for j, zt in enumerate(pair.gamma_tilde.members):
                for g in group.elements():
                    expected = 1.0 if (i == j and g == group.identity) else 0.0
                    assert abs(z.inner(wg.translate(g, zt)) - expected) <= 1e-9

    def test_equal_sizes_rejected(self):
        rng = np.random.default_rng(71)
        sp = space([3], 3)
        Y = random_orthonormal_family(rng, sp, 2)
        with pytest.raises(wg.SizesEqual):
            wg.biorthogonal_wavelets(Y, Y, Y, Y)

    def test_no_subspace_bases_split_or_dual_solve(self, monkeypatch):
        # the wavelets and duals come from the two pairs' projectors alone
        from wandergen import oblique

        def refuse(*args, **kwargs):
            raise AssertionError("biorthogonal_wavelets must not call this")

        for module, name in ((oblique, "_validated_split"), (oblique, "dual_family"), (_linalg, "null_space_columns")):
            monkeypatch.setattr(module, name, refuse)
        X, Xt, Y, Yt = random_biortho_quadruple(np.random.default_rng(73))
        pair = wg.biorthogonal_wavelets(X, Xt, Y, Yt)
        assert len(pair.gamma) == len(Y) - len(X) and pair.pair_residual <= 1e-12

    def test_non_biorthogonal_inputs_rejected(self):
        rng = np.random.default_rng(72)
        sp = space([3], 3)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        skew = wg.Family(sp, (X.members[0] * 2.0,))
        with pytest.raises(wg.HypothesisFailure):
            wg.biorthogonal_wavelets(skew, X, Y, Y)


class TestWaveletsAgainstDenseOracle:
    """Gamma's dense orbit is the dense oblique projector onto W0 along V0
    applied to the dense orbit of the orthogonal complement of V0 in V1,
    on random instances over product groups."""

    ORDERS = [(4, 3), (2, 2), (2, 4), (2, 2, 3)]

    @staticmethod
    def expected_orbit(X, Y, w0_columns):
        Z = oracle.dense_family_matrix(wg.orth_complement_in(Y, X))
        return oracle.dense_oblique_projector(oracle.dense_family_matrix(X), w0_columns) @ Z

    @pytest.mark.parametrize("orders", ORDERS, ids=str)
    def test_oblique_riesz_wavelets(self, orders):
        rng = np.random.default_rng([75, *orders])
        for _ in range(3):
            X, Y, W0 = random_oblique_instance(rng, orders=orders)
            gamma = wg.oblique_riesz_wavelets(X, Y, W0)
            expected = self.expected_orbit(X, Y, oracle.dense_family_matrix(W0))
            np.testing.assert_allclose(oracle.dense_family_matrix(gamma), expected, rtol=0, atol=1e-12)

    @staticmethod
    def dense_perp_intersection(big, perp_of):
        """Orthonormal dense basis of (span big) intersect (span perp_of)-perp:
        the part of big's orbit basis that perp_of's orbit basis does not see."""
        B = oracle.dense_orth_basis(oracle.dense_family_matrix(big))
        A = oracle.dense_orth_basis(oracle.dense_family_matrix(perp_of))
        _, sv, Vh = np.linalg.svd(A.conj().T @ B)
        return B @ Vh[np.sum(sv > 1e-9):].conj().T

    @pytest.mark.parametrize("orders", ORDERS, ids=str)
    def test_biorthogonal_wavelets(self, orders):
        """Gamma against the oblique projection of the complement onto W0 =
        V1 intersect Vt0-perp along V0, and Gamma-tilde against the unique
        columns of Wt0 = Vt1 intersect V0-perp whose pairing with Gamma's
        orbit is the identity."""
        rng = np.random.default_rng([76, *orders])
        for _ in range(3):
            X, Xt, Y, Yt = random_biortho_quadruple(rng, orders=orders)
            pair = wg.biorthogonal_wavelets(X, Xt, Y, Yt)
            w0 = self.dense_perp_intersection(Y, Xt)
            wt0 = self.dense_perp_intersection(Yt, X)
            assert w0.shape[1] == wt0.shape[1] == Y.space.group.order * (len(Y) - len(X))
            gamma = oracle.dense_family_matrix(pair.gamma)
            np.testing.assert_allclose(gamma, self.expected_orbit(X, Y, w0), rtol=0, atol=1e-12)
            dual = wt0 @ np.linalg.inv(gamma.conj().T @ wt0)
            np.testing.assert_allclose(oracle.dense_family_matrix(pair.gamma_tilde), dual, rtol=0, atol=1e-11)


class TestDenseW0ResolvedOnce:
    """A dense W0 is tested for invariance once, by comparing its rank with
    the sum of its fiber ranks, with the NotInvariant messages and
    precedence kept."""

    @staticmethod
    def reference_is_invariant(W, tol_rank=1e-9):
        # every generator's dense translation matrix applied to the columns
        B, orders = W.columns, W.space.group.orders
        r = np.linalg.matrix_rank(B, tol=None)
        for j, n in enumerate(orders):
            if n > 1:
                g = tuple(int(i == j) for i in range(len(orders)))
                L = oracle.dense_translation_matrix(W.space, g)
                if np.linalg.matrix_rank(np.hstack([B, L @ B]), tol=None) != r:
                    return False
        return True

    @pytest.mark.parametrize("orders", [[5], [2, 3], [1, 4], [2, 1, 2]])
    def test_roll_verdicts_match_translation_matrices(self, orders):
        rng = np.random.default_rng(sum(orders))
        sp = space(orders, 2)
        fam = random_riesz_family(rng, sp, 1)
        cases = [oracle.dense_family_matrix(fam), rng.standard_normal((sp.group.order * 2, 2))]
        for cols in cases:
            basis = wg.DenseBasis(sp, cols)
            assert wg.is_invariant(basis) == self.reference_is_invariant(basis)
        assert wg.is_invariant(wg.DenseBasis(sp, cases[0]))

    @pytest.mark.parametrize("orders", [[8], [2, 3], [4, 4]])
    def test_noise_on_either_side_of_the_rank_rule(self, orders):
        # noise below the rank rule leaves the exact orbit span's verdict;
        # noise above it is seen as the exact translation matrices see it
        rng = np.random.default_rng(sum(orders))
        sp = space(orders, 2)
        cols = oracle.dense_family_matrix(random_riesz_family(rng, sp, 1))
        noise = rng.standard_normal(cols.shape) + 1j * rng.standard_normal(cols.shape)
        noise /= np.abs(noise).max()
        below, above = (wg.DenseBasis(sp, cols + eps * noise) for eps in (1e-10, 1e-8))
        assert self.reference_is_invariant(wg.DenseBasis(sp, cols))
        assert wg.is_invariant(below)
        assert not self.reference_is_invariant(above)
        assert not wg.is_invariant(above)

    @pytest.mark.parametrize("construct", [wg.oblique_riesz_wavelets, wg.oblique_frame_wavelets])
    def test_invariance_tested_once(self, monkeypatch, construct):
        from wandergen import oblique

        sp, X, Y, W0 = z2_worked_example()
        calls = []
        original = oblique.is_invariant
        monkeypatch.setattr(oblique, "is_invariant", lambda W, tol: calls.append(W) or original(W, tol))
        gamma = construct(X, Y, wg.DenseBasis(sp, oracle.dense_family_matrix(W0)))
        assert len(gamma) >= 1 and len(calls) == 1

    @pytest.mark.parametrize("construct", [wg.oblique_riesz_wavelets, wg.oblique_frame_wavelets])
    def test_w0_message(self, construct):
        rng = np.random.default_rng(61)
        X, Y, _ = random_oblique_instance(rng)
        W = random_noninvariant_dense_w0(rng, X, Y)
        with pytest.raises(wg.NotInvariant, match="^W0 is not closed under the group action$"):
            construct(X, Y, W)

    def test_x_and_y_errors_come_first(self):
        rng = np.random.default_rng(61)
        X, Y, _ = random_oblique_instance(rng)
        W = random_noninvariant_dense_w0(rng, X, Y)
        singular = wg.Family(X.space, (X.members[0], X.members[0]))
        with pytest.raises(wg.NotRiesz):
            wg.oblique_riesz_wavelets(singular, Y, W)
        with pytest.raises(wg.SizesEqual):
            wg.oblique_riesz_wavelets(Y, Y, W)
        outside = wg.Family(X.space, (wg.delta(X.space, 0, 0),))
        if not wg.is_contained(outside, Y):
            with pytest.raises(wg.NotContained):
                wg.oblique_riesz_wavelets(outside, Y, W)

    def test_other_presentations_keep_the_generic_message(self):
        rng = np.random.default_rng(61)
        X, Y, _ = random_oblique_instance(rng)
        W = random_noninvariant_dense_w0(rng, X, Y)
        generic = "^dense subspace is not closed under the group action$"
        with pytest.raises(wg.NotInvariant, match=generic):
            wg.oblique_projector(X, W, Y)
        with pytest.raises(wg.NotInvariant, match=generic):
            _fiber_basis(W, 1e-9)

    def test_varying_fiber_rank(self):
        # channel 1 of the second member is delta_0 + delta_1, whose fiber
        # vanishes at dual point 1: rank 2 at point 0, rank 1 at point 1
        sp = space([2], 2)
        W0 = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1) + wg.delta(sp, 1, 1)))
        with pytest.raises(wg.NotDirectSum, match="^family has varying fiber rank on this sampling$"):
            _fiber_basis(W0, 1e-9)
        dense = wg.DenseBasis(sp, oracle.dense_family_matrix(W0))
        message = "^invariant subspace has varying fiber dimension on this sampling$"
        with pytest.raises(wg.NotDirectSum, match=message):
            _fiber_basis(dense, 1e-9)

    def test_dense_fibers_computed_once_and_read_only(self):
        sp, _, _, W0 = z2_worked_example()
        basis = wg.DenseBasis(sp, oracle.dense_family_matrix(W0))
        F = basis.fibers
        assert basis.fibers is F and not F.flags.writeable
        assert F.shape == (2, 2, 2)

"""Dense oracle: orbit matrices, bounds, projectors."""

import tracemalloc

import numpy as np
import pytest

import wandergen as wg
from wandergen import groups, oracle
from conftest import random_riesz_family


def space(orders, m=1):
    return wg.SystemSpace(wg.FiniteAbelian(tuple(orders)), m)


def random_family(rng, sp, k):
    n, m = sp.group.order, sp.channels
    return wg.Family(sp, tuple(
        wg.from_dense(sp, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        for _ in range(k)
    ))


def translated_columns(X):
    """Orbit matrix built one translate at a time, lexicographic in (g, j)."""
    return np.stack(
        [wg.translate(g, x).dense().reshape(-1) for g in X.space.group.elements() for x in X.members],
        axis=1,
    )


def refuse_translate(monkeypatch):
    def fail(*args):
        raise AssertionError("the oracle called translate")

    monkeypatch.setattr(groups, "translate", fail)
    monkeypatch.setattr(wg, "translate", fail)
    monkeypatch.setattr(oracle, "translate", fail, raising=False)


class TestDenseFamilyMatrix:
    def test_single_delta_z2(self):
        M = oracle.dense_family_matrix(wg.Family(space([2]), (wg.delta(space([2]), 0),)))
        np.testing.assert_allclose(M, np.eye(2), atol=1e-15)

    def test_orthonormal_deltas_two_channels(self):
        sp = space([2], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        M = oracle.dense_family_matrix(fam)
        assert M.shape == (4, 4)
        np.testing.assert_allclose(M.conj().T @ M, np.eye(4), atol=1e-15)

    def test_weighted_z2_gram_eigenvalues(self):
        sp = space([2])
        x = np.sqrt(3) / 2 * wg.delta(sp, 0) + 0.5 * wg.delta(sp, 1)
        M = oracle.dense_family_matrix(wg.Family(sp, (x,)))
        eigs = np.sort(np.linalg.eigvalsh(M.conj().T @ M))
        np.testing.assert_allclose(eigs, [1 - np.sqrt(3) / 2, 1 + np.sqrt(3) / 2], atol=1e-12)

    def test_size_limit(self):
        sp = space([24], 4)
        fam = wg.Family(sp, tuple(wg.delta(sp, 0, c) for c in range(4)))
        # 24 * 4 * 4 = 384 is fine; inflate members to blow the cap
        big = wg.Family(sp, fam.members * 11)  # 24 * 4 * 44 = 4224 > 4096
        with pytest.raises(wg.SizeLimit):
            oracle.dense_family_matrix(big)

    def test_exact_mode_only(self):
        sp = wg.SystemSpace(wg.IntegerShift(8), 1)
        fam = wg.Family(sp, (wg.delta(sp, 0),))
        with pytest.raises(wg.ExactModeRequired):
            oracle.dense_family_matrix(fam)

    @pytest.mark.parametrize("orders,m,k", [
        ((1,), 1, 1), ((1,), 3, 2),
        ((2,), 1, 1), ((2,), 2, 2), ((2,), 4, 1),
        ((16,), 1, 3), ((16,), 2, 2), ((16,), 3, 1), ((16,), 4, 4),
        ((4, 6), 3, 2), ((2, 2, 3), 2, 5),
        ((4, 6), 1, 3),  # wide: more members than channels
    ])
    def test_equals_translated_columns(self, orders, m, k):
        rng = np.random.default_rng(sum(orders) * 100 + m * 10 + k)
        X = random_family(rng, space(orders, m), k)
        M = oracle.dense_family_matrix(X)
        assert M.shape == (X.space.group.order * m, X.space.group.order * k)
        assert M.dtype == np.complex128 and M.flags.c_contiguous
        assert np.array_equal(M, translated_columns(X))

    def test_repeated_and_sparse_members(self):
        sp = space([4, 6], 2)
        x = wg.delta(sp, (1, 5), 1, 0.5 - 2j) + wg.delta(sp, (3, 0), 0, 1.5)
        X = wg.Family(sp, (x, wg.delta(sp, (0, 2), 1), x))
        assert np.array_equal(oracle.dense_family_matrix(X), translated_columns(X))

    def test_builders_never_translate(self, monkeypatch):
        rng = np.random.default_rng(14)
        X = random_family(rng, space([2, 2, 3], 2), 3)
        expected = translated_columns(X)
        x = X.members[0]
        shifted = wg.translate((1, 0, 2), x).dense().reshape(-1)
        refuse_translate(monkeypatch)
        assert np.array_equal(oracle.dense_family_matrix(X), expected)
        L = oracle.dense_translation_matrix(X.space, (1, 0, 2))
        assert np.array_equal(L @ x.dense().reshape(-1), shifted)

    def test_peak_memory_at_the_cap(self):
        # Z256, 4 channels, 4 members: |G|*m*k = 4096, a 16 MiB matrix
        rng = np.random.default_rng(15)
        X = random_family(rng, space([256], 4), 4)
        tracemalloc.start()
        try:
            M = oracle.dense_family_matrix(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.nbytes == 16 * 2**20
        assert peak <= 1.25 * M.nbytes


class TestDenseBounds:
    def test_orthonormal(self):
        sp = space([3], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        b = oracle.dense_riesz_bounds(fam)
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_delta(self):
        sp = space([2])
        fam = wg.Family(sp, (wg.delta(sp, 0), wg.delta(sp, 0)))
        with pytest.raises(wg.NotRiesz):
            oracle.dense_riesz_bounds(fam)
        b = oracle.dense_frame_bounds(fam)
        assert b.lower == pytest.approx(2.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_matches_fiberization(self):
        rng = np.random.default_rng(10)
        fam = random_riesz_family(rng, space([6], 3), 2)
        fiber = wg.riesz_bounds(fam)
        dense = oracle.dense_riesz_bounds(fam)
        assert abs(fiber.lower - dense.lower) <= 1e-8
        assert abs(fiber.upper - dense.upper) <= 1e-8


class TestDenseProjectors:
    def test_full_span_is_identity(self):
        P = oracle.dense_projector(np.eye(4))
        np.testing.assert_allclose(P, np.eye(4), atol=1e-12)

    def test_orthogonal_pair_adds_up(self):
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        A, B = Q[:, :2], Q[:, 2:5]
        PA, PB = oracle.dense_projector(A), oracle.dense_projector(B)
        PAB = oracle.dense_projector(np.hstack([A, B]))
        np.testing.assert_allclose(PA + PB, PAB, atol=1e-12)

    def test_oblique_idempotent_on_skew_pair(self):
        # 4-dim ambient space of the Z2, two-channel system
        v = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex) / np.sqrt(2)
        w = np.array([[0.0], [1.0], [0.3], [0.0]], dtype=complex)
        P = oracle.dense_oblique_projector(v, w)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)
        np.testing.assert_allclose(P @ v, np.zeros_like(v), atol=1e-12)
        np.testing.assert_allclose(P @ w, w, atol=1e-12)

    def test_overlapping_spans_rejected(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        with pytest.raises(wg.NotDirectSum):
            oracle.dense_oblique_projector(v, v)

    def test_oblique_matches_direct_solve(self):
        rng = np.random.default_rng(12)
        V = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        W = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        P = oracle.dense_oblique_projector(V, W)
        # decompose a random vector of span(V)+span(W) by explicit solve
        u = V @ rng.standard_normal(2) + W @ rng.standard_normal(2)
        coeffs = np.linalg.lstsq(np.hstack([V, W]), u, rcond=None)[0]
        np.testing.assert_allclose(P @ u, W @ coeffs[2:], atol=1e-10)


def assert_permutation(L):
    assert set(np.unique(L)) <= {0.0, 1.0}
    assert np.all(L.sum(axis=0) == 1) and np.all(L.sum(axis=1) == 1)


def test_translation_matrix_is_regular_action():
    rng = np.random.default_rng(13)
    for orders in [(4,), (4, 6), (2, 2, 3)]:
        sp = space(orders, 2)
        n = sp.group.order
        v = wg.from_dense(sp, rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        for g in sp.group.elements():
            L = oracle.dense_translation_matrix(sp, g)
            assert L.shape == (2 * n, 2 * n)
            assert_permutation(L)
            assert np.array_equal(L @ v.dense().reshape(-1), wg.translate(g, v).dense().reshape(-1))


def test_translation_matrix_accepts_any_element_form():
    sp = space([5], 3)
    expected = oracle.dense_translation_matrix(sp, (2,))
    for g in [2, np.int64(7), (-3,), [12]]:
        assert np.array_equal(oracle.dense_translation_matrix(sp, g), expected)
    with pytest.raises(ValueError):
        oracle.dense_translation_matrix(space([2, 3]), (1,))

"""Batched linear-algebra helpers against per-point references.

Each helper decides ranks and bases for a whole stack of fiber matrices at
once.  The references below are the per-matrix computations the helpers
replace: the same LAPACK routine on each matrix, so results must agree
exactly, on stacks that mix full-rank, rank-deficient and zero matrices.
"""

import numpy as np
import pytest

from wandergen import _linalg
from wandergen.defaults import TOL_RANK_REL


def ref_rank(M, rel=TOL_RANK_REL):
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > rel * max(s[0], 1.0)))


def ref_orth(M, rel=TOL_RANK_REL):
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > rel * max(s[0], 1.0))) if s.size else 0
    return U[:, :r]


def ref_null(M, rel=TOL_RANK_REL):
    cols = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, Vh = np.linalg.svd(M)
    r = int(np.sum(s > rel * max(s[0], 1.0))) if s.size else 0
    return Vh[r:].conj().T


def ref_phase(Q):
    out = np.array(Q, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def mixed_stack(rng, points, n, k):
    """Random complex stack with rank-deficient, tiny-but-nonzero and zero matrices."""
    M = rng.standard_normal((points, n, k)) + 1j * rng.standard_normal((points, n, k))
    if n and k:
        for p in range(0, points, 3):
            r = int(rng.integers(0, min(n, k)))
            A = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            B = rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))
            M[p] = A @ B
        M[1] = 0.0
        M[2, :, 0] = 0.0  # one zero column
        M[4] *= 1e-12  # nonzero, below the cutoff
    return M


SHAPES = [(4, 3), (3, 5), (2, 2), (4, 0), (0, 3)]


@pytest.mark.parametrize("n,k", SHAPES)
def test_matrix_rank_matches_per_point(n, k):
    M = mixed_stack(np.random.default_rng(n * 10 + k), 12, n, k)
    ranks = _linalg.matrix_rank(M)
    assert ranks.shape == (12,)
    assert [int(r) for r in ranks] == [ref_rank(M[p]) for p in range(12)]


@pytest.mark.parametrize("n,k", SHAPES)
def test_orth_columns_match_per_point(n, k):
    M = mixed_stack(np.random.default_rng(100 + n * 10 + k), 12, n, k)
    U, r = _linalg.orth_columns(M)
    for p in range(12):
        np.testing.assert_array_equal(U[p, :, : r[p]], ref_orth(M[p]))


@pytest.mark.parametrize("rows,k", [(2, 4), (3, 3), (0, 3), (2, 0)])
def test_null_space_matches_per_point(rows, k):
    M = mixed_stack(np.random.default_rng(200 + rows * 10 + k), 9, rows, k)
    V, r = _linalg.null_space_columns(M)
    for p in range(9):
        np.testing.assert_array_equal(V[p, :, r[p]:], ref_null(M[p]))


def test_phase_normalize_matches_per_point():
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((20, 4, 3)) + 1j * rng.standard_normal((20, 4, 3))
    Q[3, :, 1] = 0.0
    out = _linalg.phase_normalize_columns(Q)
    for p in range(20):
        np.testing.assert_array_equal(out[p], ref_phase(Q[p]))


def test_oblique_projector_matches_per_point():
    rng = np.random.default_rng(8)
    onto = mixed_stack(rng, 9, 4, 2)
    along = mixed_stack(rng, 9, 4, 1)
    P = _linalg.oblique_projector_matrix(onto, along)
    for p in range(9):
        S = np.hstack([along[p], onto[p]])
        coords = np.linalg.pinv(S, rcond=TOL_RANK_REL)
        np.testing.assert_array_equal(P[p], onto[p] @ coords[1:, :])


def test_first_failing_point_then_first_listed_check():
    a = np.array([False, False, True, True])
    b = np.array([False, True, False, True])

    def check(mask, name):
        return mask, lambda p: ValueError(f"{name} at {p}")

    with pytest.raises(ValueError, match="b at 1"):
        _linalg.raise_at_first_failure(check(a, "a"), check(b, "b"))
    with pytest.raises(ValueError, match="a at 3"):
        _linalg.raise_at_first_failure(check(a & b, "a"), check(a & b, "b"))
    _linalg.raise_at_first_failure(check(np.zeros(4, bool), "a"))

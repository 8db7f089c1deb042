"""Batched linear-algebra helpers against per-point references.

Each helper decides ranks and bases for a whole stack of fiber matrices at
once.  The references below are the per-matrix computations the helpers
replace: the same LAPACK routine on each matrix, so results must agree
exactly, on stacks that mix full-rank, rank-deficient and zero matrices.
The numpy kernels that stand in for scipy routines (pivoted QR, principal
angles, block diagonals) are checked against scipy itself, which the
library does not need; those tests skip when scipy is absent.
"""

import math

import numpy as np
import pytest

import wandergen as wg
from wandergen import _linalg
from wandergen.defaults import TOL_RANK_REL
from wandergen.errors import NotContained
from wandergen.fibers import dense_fourier_matrix
from wandergen.oblique import OperatorField
from conftest import combine_fiberwise, orth_columns, random_projection_triple, random_riesz_family


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
    U, r = orth_columns(M)
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


# ---------------------------------------------------------------------------
# numpy kernels against scipy


@pytest.fixture
def sla():
    return pytest.importorskip("scipy.linalg")


def complex_stack(rng, points, m, n):
    return rng.standard_normal((points, m, n)) + 1j * rng.standard_normal((points, m, n))


def assert_qr_matches_scipy(sla, D, lead=None):
    """Pivots, |diag R| and Q against scipy's economic pivoted QR, point by point.

    ``lead`` limits the comparison to the first pivots and Q columns: past a
    matrix's rank the remaining column norms are rounding noise, so later
    pivots (and their Q columns) are arbitrary in both factorizations.
    """
    Q, R, piv = _linalg._pivoted_qr(D)
    kk = min(D.shape[-2:])
    assert Q.shape == D.shape[:-1] + (kk,) and R.shape == D.shape[:-2] + (kk, D.shape[-1])
    for p in range(D.shape[0]):
        q, r, pv = sla.qr(D[p], mode="economic", pivoting=True)
        j = kk if lead is None else lead
        np.testing.assert_array_equal(piv[p, :j], pv[:j])
        np.testing.assert_allclose(np.abs(np.diagonal(R[p])), np.abs(np.diag(r)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(Q[p, :, :j], q[:, :j], rtol=0, atol=1e-14)
        assert np.all(np.diagonal(R[p]).imag == 0)
        np.testing.assert_allclose(Q[p] @ R[p], D[p][:, piv[p]], rtol=0, atol=1e-13)


@pytest.mark.parametrize("m,n", [(4, 4), (5, 3), (3, 5), (4, 1), (1, 4)])
def test_pivoted_qr_random_stacks(sla, m, n):
    assert_qr_matches_scipy(sla, complex_stack(np.random.default_rng(300 + 10 * m + n), 40, m, n))


@pytest.mark.parametrize("m,n,r", [(4, 4, 2), (5, 3, 1), (3, 5, 2), (4, 4, 3)])
def test_pivoted_qr_rank_deficient_stacks(sla, m, n, r):
    rng = np.random.default_rng(400 + 10 * m + n + r)
    D = complex_stack(rng, 40, m, r) @ complex_stack(rng, 40, r, n)
    assert_qr_matches_scipy(sla, D, lead=r)


def test_pivoted_qr_projector_differences(sla):
    # the matrices complement_in_span factors: P_big - P_small, nested spans
    rng = np.random.default_rng(450)
    U = np.linalg.qr(complex_stack(rng, 60, 4, 3))[0]
    D = _linalg.projector(U) - _linalg.projector(U[:, :, :1])
    assert_qr_matches_scipy(sla, D, lead=2)


def test_pivoted_qr_zero_stack(sla):
    D = np.zeros((3, 4, 3), dtype=np.complex128)
    assert_qr_matches_scipy(sla, D)
    Q, R, piv = _linalg._pivoted_qr(D)
    np.testing.assert_array_equal(piv, np.broadcast_to(np.arange(3), (3, 3)))
    np.testing.assert_array_equal(R, 0)


def test_pivoted_qr_complex_first_pivot(sla):
    rng = np.random.default_rng(500)
    D = complex_stack(rng, 30, 4, 4)
    D[:, :, 2] *= 3  # column 2 wins the first pivot at every point
    D[:, 0, 2] = 20j  # with a purely imaginary leading entry
    D[:5, 1:, 2] = 0  # and, at some points, nothing below it
    assert_qr_matches_scipy(sla, D)
    assert np.all(_linalg._pivoted_qr(D)[2][:, 0] == 2)


def test_pivoted_qr_tied_column_norms(sla):
    rng = np.random.default_rng(510)
    D = complex_stack(rng, 30, 4, 4)
    D[:, :, 1] = -D[:, :, 0]  # exactly tied norms: the first maximal column wins
    D[:, :, 3] = D[:, :, 0].conj()
    D[:, :, 2] *= 0.5
    assert_qr_matches_scipy(sla, D, lead=2)
    assert_qr_matches_scipy(sla, np.tile(np.eye(4, dtype=np.complex128), (3, 1, 1)))


def ref_max_angle(sla, A, B):
    """The per-pair computation the stacked angle replaced."""
    UA, UB = ref_orth(A), ref_orth(B)
    if UA.shape[1] != UB.shape[1]:
        return math.pi / 2
    if UA.shape[1] == 0:
        return 0.0
    return float(sla.subspace_angles(UA, UB).max())


def max_angle(A, B):
    return _linalg.max_principal_angle(_linalg.thin_svd(A), _linalg.thin_svd(B))


def test_max_principal_angle_stack_matches_per_pair(sla):
    rng = np.random.default_rng(600)
    points, n = 24, 5
    A = np.zeros((points, n, 3), dtype=np.complex128)
    B = np.zeros((points, n, 3), dtype=np.complex128)
    for p in range(points):
        r = p % 4  # ranks 0..3 mixed across the stack, equal within each pair
        A[p, :, :r] = complex_stack(rng, 1, n, r)[0]
        B[p, :, :r] = A[p, :, :r] + 10.0 ** -(p % 7) * complex_stack(rng, 1, n, r)[0]
    B[5] = A[5] @ complex_stack(rng, 1, 3, 3)[0]  # same span, other basis
    per_pair = [ref_max_angle(sla, A[p], B[p]) for p in range(points)]
    for p in range(points):
        assert max_angle(A[p], B[p]) == pytest.approx(per_pair[p], abs=1e-15)
    assert max_angle(A, B) == pytest.approx(max(per_pair), abs=1e-15)
    assert max_angle(A[::4], B[::4]) == 0.0  # two empty spans
    B[7, :, 2] = 0.0  # rank 3 against rank 2
    assert ref_max_angle(sla, A[7], B[7]) == math.pi / 2
    assert max_angle(A, B) == math.pi / 2


def test_operator_field_dense_matches_block_diag(sla):
    rng = np.random.default_rng(700)
    sp = wg.SystemSpace(wg.FiniteAbelian((2, 3)), 2)
    field = OperatorField(wg.dual_sampling(sp), complex_stack(rng, 6, 2, 2))
    PHI = dense_fourier_matrix(sp)
    ref = PHI.conj().T @ sla.block_diag(*field.matrices) @ PHI
    assert np.array_equal(field.dense(sp), ref)


# ---------------------------------------------------------------------------
# complement_in_span: error precedence


def coordinate_span(n, axes):
    F = np.zeros((n, max(len(axes), 1)), dtype=np.complex128)
    for j, a in enumerate(axes):
        F[a, j] = 1.0
    return F


def complement_stack(cases, n=3):
    """(F_small, F_big) stacks from per-point (small axes, big axes) pairs."""
    small = np.stack([coordinate_span(n, s) for s, _ in cases])
    big = np.stack([np.pad(coordinate_span(n, b), ((0, 0), (0, 2 - max(len(b), 1) + 1))) for _, b in cases])
    return small, big


def complement(small, big, dim):
    return _linalg.complement_in_span(_linalg.thin_svd(small), _linalg.thin_svd(big), dim)


NESTED = ((0,), (0, 1))  # complement dimension 1, contained
CROSSED = ((2,), (0, 1))  # dimension 1 by rank count, but not contained
SAME = ((0,), (0,))  # dimension 0


def test_complement_rank_failure_before_later_dimension_failure():
    small, big = complement_stack([NESTED, CROSSED, NESTED, SAME])
    with pytest.raises(NotContained, match=r"complement projector rank 3 != expected 1;"):
        complement(small, big, 1)


def test_complement_dimension_failure_before_later_rank_failure():
    small, big = complement_stack([NESTED, SAME, CROSSED])
    with pytest.raises(NotContained, match=r"fiber complement dimension 0 != expected 1$"):
        complement(small, big, 1)


def test_complement_dimension_checked_before_rank_at_one_point():
    # both checks fail for dim 2: found 1, detected rank 3
    small, big = complement_stack([CROSSED, NESTED])
    with pytest.raises(NotContained, match=r"fiber complement dimension 1 != expected 2$"):
        complement(small, big, 2)


def test_complement_zero_dimension_returns_empty_bases():
    small, big = complement_stack([SAME, SAME])
    out = complement(small, big, 0)
    assert out.shape == (2, 3, 0)
    small, big = complement_stack([SAME, NESTED])
    with pytest.raises(NotContained, match=r"fiber complement dimension 1 != expected 0$"):
        complement(small, big, 0)


def test_complement_bases_span_the_difference():
    small, big = complement_stack([NESTED, ((0,), (0, 2)), ((1,), (0, 1))])
    out = complement(small, big, 1)
    expected = [1, 2, 0]
    for p, axis in enumerate(expected):
        np.testing.assert_allclose(np.abs(out[p, :, 0]), np.eye(3)[axis], atol=1e-15)


# ---------------------------------------------------------------------------
# restricted_projection_pair: stacked solve against per-point least squares


def ref_projection_pair(M, Mp, N, rel=TOL_RANK_REL):
    FM, FMp, FN = M.fibers, Mp.fibers, N.fibers
    UN, rn = orth_columns(FN, rel)
    BN = UN * (np.arange(UN.shape[2]) < rn[:, None])[:, None, :]
    P = _linalg.oblique_projector_matrix(orth_columns(FM, rel)[0], BN, rel)
    Q = _linalg.oblique_projector_matrix(orth_columns(FMp, rel)[0], BN, rel)
    PFMp, QFM = P @ FMp, Q @ FM
    p1 = np.stack([np.linalg.lstsq(FM[p], PFMp[p], rcond=None)[0] for p in range(len(FM))])
    q1 = np.stack([np.linalg.lstsq(FMp[p], QFM[p], rcond=None)[0] for p in range(len(FM))])
    return p1, q1


@pytest.mark.parametrize("seed", [800, 801, 802, 803])
def test_restricted_projection_pair_matches_lstsq(seed):
    rng = np.random.default_rng(seed)
    M, Mp, N = random_projection_triple(rng)
    pair = wg.restricted_projection_pair(M, Mp, N)
    p1, q1 = ref_projection_pair(M, Mp, N)
    np.testing.assert_allclose(pair.p1.matrices, p1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pair.q1.matrices, q1, rtol=0, atol=1e-13)


def test_restricted_projection_pair_empty_n_matches_lstsq():
    rng = np.random.default_rng(810)
    sp = wg.SystemSpace(wg.FiniteAbelian((5,)), 3)
    M = random_riesz_family(rng, sp, 2)
    Mp = combine_fiberwise(M, rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2)))
    N = wg.Family(sp, ())
    pair = wg.restricted_projection_pair(M, Mp, N)
    p1, q1 = ref_projection_pair(M, Mp, N)
    np.testing.assert_allclose(pair.p1.matrices, p1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pair.q1.matrices, q1, rtol=0, atol=1e-13)

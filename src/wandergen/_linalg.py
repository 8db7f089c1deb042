"""Small dense linear-algebra helpers shared by the fiberwise constructions.

Every helper takes stacked matrices of shape (..., n, k), one per dual
point.  ``cutoff`` is the library's one rank rule: a singular value or Gram
eigenvalue counts as zero at or below rel * max(largest in its row, 1), and
every rank and singularity decision reads it.  Four other tests stay apart:
``oracle.py``'s copies (the independent reference), the QR's detected rank
in ``complement_in_span`` (a projector spectrum near {0, 1}), ``pinv``'s
rcond (orthonormal columns, so sigma_max >= 1 and it agrees; the projection
pair's solve keeps numpy's default, after its rank tests) and the
condition limit ``nonabelian._COND_LIMIT`` of the seeded draws in
``are_equivalent`` and ``wandering_complement_general`` (conditioning,
not rank).  Helpers that read a subspace take its thin SVD factors (U, s),
so one factorization serves every decision on a stack, and a decision
about two subspaces reads the holders' factors too: containment and the
dimension a stack adds to a span come from its residual off the cached
basis (``contained_in``, ``residual_rank``), and principal angles from the
cached bases themselves.  Pivoted QR and principal angles are numpy
kernels batched over the stack, so the library needs numpy only.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import TOL_RANK_REL
from .errors import NotContained, SelectionObstruction


def cutoff(values: np.ndarray, rel: float) -> np.ndarray:
    """Zero cutoffs rel * max(largest value, 1), one per row of a stack (..., k)
    of singular values or eigenvalues in either order; an empty row's is rel."""
    return rel * np.maximum(np.max(values, axis=-1, initial=0.0), 1.0)


def _rank(values: np.ndarray, rel: float) -> np.ndarray:
    return np.sum(values > cutoff(values, rel)[..., None], axis=-1)


def matrix_rank(M: np.ndarray, rel: float = TOL_RANK_REL) -> np.ndarray:
    """Ranks of a stack (..., n, k), singular values at or below ``cutoff``
    counted as zero."""
    return _rank(np.linalg.svd(M, compute_uv=False), rel)


def thin_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin SVD factors of a stack (..., n, k): U (..., n, min(n, k)) and s (..., min(n, k))."""
    U, s, _ = np.linalg.svd(np.asarray(M, dtype=np.complex128), full_matrices=False)
    return U, s


def _residual_off(F: np.ndarray, factors: tuple, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """The residual R = F - B (B^H F) of a stack F (points, n, k) off a
    holder's span, and the zero cutoff of each point.

    B is the holder's cached basis: the leading columns of its thin SVD
    factors (U, s), cut at its rank.  The cutoff reads ``cutoff`` over the
    holder's largest singular value and ||F_p||_F, the scale a joint SVD of
    [holder | F] reads, so no caller writes its own.
    """
    U, s = factors
    B = leading_columns(U, _rank(s, rel))
    R = F - B @ (B.conj().swapaxes(-1, -2) @ F)
    scale = np.stack([np.max(s, axis=-1, initial=0.0), np.linalg.norm(F, axis=(-2, -1))], axis=-1)
    return R, cutoff(scale, rel)


def contained_in(F: np.ndarray, factors: tuple, rel: float) -> np.ndarray:
    """Per point, whether the columns of F (points, n, k) lie in the span of a
    holder's thin SVD factors (U, s): ||R_p||_F of their residual off it at
    or below the cutoff."""
    R, cut = _residual_off(F, factors, rel)
    return np.linalg.norm(R, axis=(-2, -1)) <= cut


def residual_rank(F: np.ndarray, factors: tuple, rel: float) -> np.ndarray:
    """Per point, the rank of F's residual off the span of a holder's thin SVD
    factors (U, s): the dimension F's columns add to that span."""
    R, cut = _residual_off(F, factors, rel)
    return np.sum(np.linalg.svd(R, compute_uv=False) > cut[..., None], axis=-1)


def leading_columns(U: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Zero the columns of each basis U[p] (points, n, d) from index r[p] on.

    Ranks may vary across points: this keeps every basis in one array, with
    the span of U[p, :, :r[p]].
    """
    return U * (np.arange(U.shape[-1]) < r[:, None])[:, None, :]


def projector(B: np.ndarray) -> np.ndarray:
    """Orthogonal projectors onto the spans of orthonormal columns B (..., n, d)."""
    return B @ B.conj().swapaxes(-1, -2)


def phase_normalize_columns(Q: np.ndarray) -> np.ndarray:
    """Rotate each column of a stack (..., n, k) so its largest-magnitude entry
    is real positive.

    Ties break to the lowest index, which pins the phase convention.
    """
    Q = np.asarray(Q, dtype=np.complex128)
    rows = np.argmax(np.abs(Q), axis=-2)[..., None, :]
    pivots = np.take_along_axis(Q, rows, axis=-2)
    # numpy's scalar complex division: its array division differs in the
    # last bit, and the golden reports pin these bits
    scale = [abs(z) / z if abs(z) > 0 else 1.0 for z in pivots.ravel()]
    return Q * np.array(scale, dtype=np.complex128).reshape(pivots.shape)


def null_space_columns(M: np.ndarray, rel: float = TOL_RANK_REL) -> tuple[np.ndarray, np.ndarray]:
    """Kernel bases of a stack (..., rows, k) via SVD.

    Returns V, shape (..., k, k), and the ranks r: the columns of V from
    index r on are an orthonormal basis of that matrix's kernel.
    """
    _, s, Vh = np.linalg.svd(np.asarray(M, dtype=np.complex128))
    return Vh.conj().swapaxes(-1, -2), _rank(s, rel)


def _pivoted_qr(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted Householder QR (Businger-Golub) of a stack (..., m, n).

    Returns Q (..., m, kk), R (..., kk, n) and the pivots (..., n) with
    D[..., piv] = Q @ R and kk = min(m, n), as LAPACK zgeqp3 and zungqr give
    them matrix by matrix: the column of largest remaining norm is the
    next pivot, the first one on a tie, and the norms are downdated as in
    zlaqp2 (LAPACK Working Note 176); each reflector H = I - tau v v^H is
    zlarfg's, so R has a real diagonal; Q = H_1 ... H_kk, formed as zung2r
    does.  The loop runs over the columns; each step is batched over the stack.
    """
    D = np.asarray(D, dtype=np.complex128)
    m, n = D.shape[-2:]
    kk = min(m, n)
    A = D.reshape((-1, m, n)).copy()
    rows = np.arange(A.shape[0])
    piv = np.broadcast_to(np.arange(n), (A.shape[0], n)).copy()
    vn1 = np.linalg.norm(A, axis=1)
    vn2 = vn1.copy()
    tau = np.zeros((A.shape[0], kk), dtype=np.complex128)
    tol3z = math.sqrt(np.finfo(np.float64).eps / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(kk):
            pvt = i + np.argmax(vn1[:, i:], axis=1)
            col = A[rows, :, pvt]
            A[rows, :, pvt] = A[:, :, i]
            A[:, :, i] = col
            piv[rows, pvt], piv[:, i] = piv[:, i].copy(), piv[rows, pvt]
            vn1[rows, pvt], vn2[rows, pvt] = vn1[:, i], vn2[:, i]
            # zlarfg: H^H [alpha; x] = [beta; 0] with beta real
            alpha = A[:, i, i]
            xnorm = np.linalg.norm(A[:, i + 1:, i], axis=1)
            parts = np.stack([np.abs(alpha.real), np.abs(alpha.imag), xnorm])
            w = parts.max(axis=0)
            beta = -np.copysign(w * np.sqrt(((parts / w) ** 2).sum(axis=0)), alpha.real)
            act = (xnorm != 0) | (alpha.imag != 0)
            t = np.where(act, (beta - alpha.real) / beta - 1j * (alpha.imag / beta), 0)
            A[:, i + 1:, i] *= np.where(act, 1 / (alpha - beta), 1)[:, None]
            A[:, i, i] = np.where(act, beta, alpha)
            tau[:, i] = t
            if i + 1 < n:
                v = A[:, i:, i].copy()
                v[:, 0] = 1
                C = A[:, i:, i + 1:]
                vw = v[:, :, None] * (v[:, None, :].conj() @ C)
                C -= t.conj()[:, None, None] * vw
                # zlaqp2's partial column norm downdate
                cols = slice(i + 1, n)
                live = vn1[:, cols] != 0
                temp = np.maximum(1 - (np.abs(A[:, i, cols]) / vn1[:, cols]) ** 2, 0)
                stale = live & (temp * (vn1[:, cols] / vn2[:, cols]) ** 2 <= tol3z)
                fresh = np.linalg.norm(A[:, i + 1:, cols], axis=1)
                vn1[:, cols] = np.where(stale, fresh, np.where(live, vn1[:, cols] * np.sqrt(temp), vn1[:, cols]))
                vn2[:, cols] = np.where(stale, fresh, vn2[:, cols])
    R = np.triu(A[:, :kk, :])
    # zung2r: Q = H_1 ... H_kk applied to the first kk unit columns
    Q = np.tril(A[:, :, :kk], -1)
    for i in range(kk - 1, -1, -1):
        t = tau[:, i]
        if i + 1 < kk:
            Q[:, i, i] = 1
            v = Q[:, i:, i].copy()
            C = Q[:, i:, i + 1:]
            C -= t[:, None, None] * (v[:, :, None] * (v[:, None, :].conj() @ C))
        Q[:, i + 1:, i] *= -t[:, None]
        Q[:, i, i] = 1 - t
    lead = D.shape[:-2]
    return Q.reshape(lead + (m, kk)), R.reshape(lead + (kk, n)), piv.reshape(lead + (n,))


def complement_in_span(
    small: tuple[np.ndarray, np.ndarray],
    big: tuple[np.ndarray, np.ndarray],
    dim: int,
    rel: float = TOL_RANK_REL,
) -> np.ndarray:
    """Per-point orthonormal bases of (span big) minus (span small).

    Takes the thin SVD factors (U, s) of two stacks (points, n, k) and
    returns (points, n, dim).  The difference of the two orthogonal
    projectors is (numerically) the projector onto the complement; its
    range is extracted with a column-pivoted QR (``_pivoted_qr``) so the
    basis choice is deterministic.  At each point the complement dimension
    is checked before the QR's detected rank, and the first failing point
    raises.
    """
    (U_small, s_small), (U_big, s_big) = small, big
    r_small, r_big = _rank(s_small, rel), _rank(s_big, rel)
    found = r_big - r_small
    dimension = (
        found != dim,
        lambda p: NotContained(f"fiber complement dimension {found[p]} != expected {dim}"),
    )
    if dim == 0:
        raise_at_first_failure(dimension)
        return np.zeros(U_big.shape[:-1] + (0,), dtype=np.complex128)
    D = projector(leading_columns(U_big, r_big)) - projector(leading_columns(U_small, r_small))
    Q, R, _ = _pivoted_qr(D)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    # D is a difference of nested projectors, so its spectrum sits near {0, 1}
    detected = np.sum(diag > 0.5 * np.maximum(diag[:, :1], 1e-300), axis=-1)
    raise_at_first_failure(
        dimension,
        (
            detected != dim,
            lambda p: NotContained(
                f"complement projector rank {detected[p]} != expected {dim}; "
                "containment is numerically inconsistent on this sampling"
            ),
        ),
    )
    return Q[:, :, :dim]


# largest l2 move of a basis column that procrustes_align accepts
_MAX_DRIFT = 0.5


def procrustes_align(bases: np.ndarray) -> np.ndarray:
    """Rotate each basis onto its predecessor (orthogonal Procrustes).

    ``bases`` stacks per-grid-point orthonormal bases, shape (points, n, d).
    Raises SelectionObstruction when the best rotation still moves some
    column farther (in l2) than ``_MAX_DRIFT``: the sampled bundle is then
    too twisted for a trustworthy continuous selection.
    """
    out = np.array(bases, dtype=np.complex128, copy=True)
    if out.shape[0] <= 1 or out.shape[2] == 0:
        return out
    for t in range(1, out.shape[0]):
        overlap = out[t].conj().T @ out[t - 1]
        U, _, Vh = np.linalg.svd(overlap)
        out[t] = out[t] @ (U @ Vh)
        drift = float(np.linalg.norm(out[t] - out[t - 1], axis=0).max())
        if drift > _MAX_DRIFT:
            raise SelectionObstruction(
                f"basis drift {drift:.3g} exceeds {_MAX_DRIFT} between grid points "
                f"{t - 1} and {t}"
            )
    return out


def max_principal_angle(A: tuple, B: tuple, rel: float = TOL_RANK_REL) -> float:
    """Largest canonical angle between the column spans of two matrices, or
    the largest over a stack of pairs (..., n, k), given their thin SVD
    factors (U, s).

    Spans of unequal dimension report pi/2 (maximally apart); two empty
    spans agree at angle 0.  Pairs of equal rank r are grouped by r, and
    each group takes the sine/cosine split of Bjorck-Golub (1973) and
    Knyazev-Argentati (2002) on the cached orthonormal bases QA, QB, the
    leading r columns of each U: the cosines are the singular values of
    QA^H QB, the sines those of QB - QA QA^H QB, and arcsin applies
    wherever the cosine squared is >= 0.5.
    """
    (UA, sa), (UB, sb) = A, B
    UA, UB = UA.reshape((-1,) + UA.shape[-2:]), UB.reshape((-1,) + UB.shape[-2:])
    ra, rb = np.ravel(_rank(sa, rel)), np.ravel(_rank(sb, rel))
    if np.any(ra != rb):
        return math.pi / 2
    worst = 0.0
    for r in sorted(set(ra[ra > 0].tolist())):  # np.unique would import numpy.ma
        at = ra == r
        QA, QB = UA[at, :, :r], UB[at, :, :r]
        QA_H_QB = QA.conj().swapaxes(-1, -2) @ QB
        sigma = np.linalg.svd(QA_H_QB, compute_uv=False)
        sines = np.linalg.svd(QB - QA @ QA_H_QB, compute_uv=False)
        theta = np.where(
            sigma**2 >= 0.5,
            np.arcsin(np.clip(sines, -1.0, 1.0)),
            np.arccos(np.clip(sigma[:, ::-1], -1.0, 1.0)),
        )
        worst = max(worst, float(theta.max()))
    return worst


def conj_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD factors (U, s, Vh) of conj(M) for a stack (..., n, k): the
    factorization ``numpy.linalg.pinv`` takes of M."""
    return np.linalg.svd(M.conjugate(), full_matrices=False)


def pinv_from(factors: tuple, rcond: float) -> np.ndarray:
    """Pseudo-inverses of a stack M (..., n, k) from ``conj_svd(M)``, formed
    exactly as ``numpy.linalg.pinv(M, rcond=rcond)`` forms them."""
    U, s, Vh = factors
    large = s > rcond * np.max(s, axis=-1, keepdims=True, initial=0.0)
    inverse = np.divide(1, s, where=large, out=s.copy())
    inverse[~large] = 0
    return Vh.swapaxes(-1, -2) @ (inverse[..., None] * U.swapaxes(-1, -2))


def oblique_projector_matrix(B_onto: np.ndarray, B_along: np.ndarray, rel: float, factors: tuple) -> np.ndarray:
    """Projectors onto span(B_onto) along span(B_along), zero on the joint
    span's orthogonal complement; stacks (..., n, d) give (..., n, n).

    ``factors`` are ``conj_svd`` of the joint stack [B_along | B_onto]; the
    pseudo-inverse is ``pinv_from(factors, rel)``.
    """
    return B_onto @ pinv_from(factors, rel)[..., B_along.shape[-1]:, :]


def raise_at_first_failure(*checks) -> None:
    """Raise for the first dual point at which some check fails.

    Each check is a pair (failed, error): a boolean array over the points
    and a function from a point index to the exception.  At that point the
    earliest listed failing check wins, as in a loop over the points that
    runs the checks in order.
    """
    failed = np.stack([np.asarray(f, dtype=bool) for f, _ in checks])
    hit = failed.any(axis=0)
    if hit.any():
        p = int(np.argmax(hit))
        raise checks[int(np.argmax(failed[:, p]))][1](p)

"""Small dense linear-algebra helpers shared by the fiberwise constructions.

Every helper takes stacked matrices of shape (..., n, k), one per dual
point, and decides each matrix's rank with the cutoff
rel * max(sigma_max, 1).  scipy is imported only by the two helpers that
need it, so the rest of the library starts without it.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import TOL_RANK_REL
from .errors import NotContained, SelectionObstruction


def _rank(s: np.ndarray, rel: float) -> np.ndarray:
    return np.sum(s > rel * np.maximum(s[..., :1], 1.0), axis=-1)


def matrix_rank(M: np.ndarray, rel: float = TOL_RANK_REL) -> np.ndarray:
    """Ranks of a stack (..., n, k), singular values below rel * max(sigma_max, 1)
    counted as zero."""
    return _rank(np.linalg.svd(M, compute_uv=False), rel)


def orth_columns(M: np.ndarray, rel: float = TOL_RANK_REL) -> tuple[np.ndarray, np.ndarray]:
    """Column-space bases of a stack (..., n, k) via SVD (deterministic).

    Returns the left singular vectors U, shape (..., n, min(n, k)), and the
    ranks r: the first r columns of each U are an orthonormal basis of that
    matrix's column space.
    """
    U, s, _ = np.linalg.svd(np.asarray(M, dtype=np.complex128), full_matrices=False)
    return U, _rank(s, rel)


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


def complement_in_span(
    F_small: np.ndarray,
    F_big: np.ndarray,
    dim: int,
    rel: float = TOL_RANK_REL,
) -> np.ndarray:
    """Per-point orthonormal bases of (span F_big) minus (span F_small).

    Takes stacks (points, n, k) and returns (points, n, dim).  The
    difference of the two orthogonal projectors is (numerically) the
    projector onto the complement; its range is extracted with a
    column-pivoted QR so the basis choice is deterministic.  scipy has no
    stacked pivoted QR, so that step runs point by point.
    """
    import scipy.linalg

    U_small, r_small = orth_columns(F_small, rel)
    U_big, r_big = orth_columns(F_big, rel)
    out = np.zeros(F_big.shape[:-1] + (dim,), dtype=np.complex128)
    for p in range(out.shape[0]):
        found = r_big[p] - r_small[p]
        if found != dim:
            raise NotContained(f"fiber complement dimension {found} != expected {dim}")
        if dim == 0:
            continue
        D = projector(U_big[p, :, : r_big[p]]) - projector(U_small[p, :, : r_small[p]])
        Q, R, _ = scipy.linalg.qr(D, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        # D is a difference of nested projectors, so its spectrum sits near {0, 1}
        detected = int(np.sum(diag > 0.5 * max(diag[0], 1e-300)))
        if detected != dim:
            raise NotContained(
                f"complement projector rank {detected} != expected {dim}; "
                "containment is numerically inconsistent on this sampling"
            )
        out[p] = Q[:, :dim]
    return out


def procrustes_align(bases: np.ndarray, max_drift: float = 0.5) -> np.ndarray:
    """Rotate each basis onto its predecessor (orthogonal Procrustes).

    ``bases`` stacks per-grid-point orthonormal bases, shape (points, n, d).
    Raises SelectionObstruction when the best rotation still moves some
    column farther (in l2) than ``max_drift``: the sampled bundle is then
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
        if drift > max_drift:
            raise SelectionObstruction(
                f"basis drift {drift:.3g} exceeds {max_drift} between grid points "
                f"{t - 1} and {t}"
            )
    return out


def max_principal_angle(A: np.ndarray, B: np.ndarray, rel: float = TOL_RANK_REL) -> float:
    """Largest canonical angle between the column spans of two matrices.

    Spans of unequal dimension report pi/2 (maximally apart); two empty
    spans agree at angle 0.
    """
    import scipy.linalg

    UA, ra = orth_columns(A, rel)
    UB, rb = orth_columns(B, rel)
    if ra != rb:
        return math.pi / 2
    if ra == 0:
        return 0.0
    angles = scipy.linalg.subspace_angles(UA[:, :ra], UB[:, :rb])
    return float(angles.max()) if angles.size else 0.0


def oblique_projector_matrix(
    B_onto: np.ndarray, B_along: np.ndarray, rel: float = TOL_RANK_REL
) -> np.ndarray:
    """Projectors onto span(B_onto) along span(B_along), zero on the joint
    span's orthogonal complement; stacks (..., n, d) give (..., n, n)."""
    coords = np.linalg.pinv(np.concatenate([B_along, B_onto], axis=-1), rcond=rel)
    return B_onto @ coords[..., B_along.shape[-1]:, :]


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

"""Dense brute-force ground truth, independent of the fiberization path.

Exact mode only: the full orbit matrix is one index gather from the stacked
dense generators (the coefficient of g x at h is x(h - g)), and bounds,
projectors, and spans are derived directly with dense linear algebra.
Neither the transform nor ``translate`` is used.  Differential tests compare
these answers against the fiberized ones; that comparison is this module's
reason to exist.
"""

from __future__ import annotations

import numpy as np

from .defaults import ORACLE_SIZE_LIMIT, TOL_RANK_REL
from .errors import EmptyFamily, ExactModeRequired, NotDirectSum, NotRiesz, SizeLimit
from .fibers import Bounds
from .groups import FiniteAbelian, SystemSpace

__all__ = [
    "dense_family_matrix",
    "dense_riesz_bounds",
    "dense_frame_bounds",
    "dense_projector",
    "dense_oblique_projector",
    "dense_translation_matrix",
    "dense_orth_basis",
]


def _require_exact(space: SystemSpace) -> FiniteAbelian:
    group = space.group
    if not isinstance(group, FiniteAbelian):
        raise ExactModeRequired("the dense oracle has no finite realization in shift mode")
    return group


def _offset_index(group: FiniteAbelian, shifts: np.ndarray) -> np.ndarray:
    """idx[h, i] = flat index of h - shifts[:, i], for every element h in
    index order; ``shifts`` holds element multi-indices as columns.

    int32 (every index is below |G|) keeps the |G| x |G| table of the orbit
    matrix at a quarter of that matrix's bytes when m = k = 1.
    """
    coords = np.indices(group.orders).reshape(len(group.orders), -1, 1)
    offsets = coords - shifts[:, None, :]
    return np.ravel_multi_index(tuple(offsets), group.orders, mode="wrap").astype(np.int32)


def dense_translation_matrix(space: SystemSpace, g) -> np.ndarray:
    """Permutation-kron-identity realization of left translation by g."""
    group = _require_exact(space)
    n, m = group.order, space.channels
    # row (h, c) takes the coefficient at (h - g, c)
    source = _offset_index(group, np.array(group.canonical(g))[:, None])
    channel = np.arange(m)
    L = np.zeros((n, m, n, m))
    L[np.arange(n)[:, None], channel, source, channel] = 1.0
    return L.reshape(n * m, n * m)


def dense_family_matrix(X) -> np.ndarray:
    """Columns are the dense coefficients of g x_j, lexicographic in (g, j)."""
    space = X.space
    group = _require_exact(space)
    members = list(X.members)
    if not members:
        raise EmptyFamily("dense orbit matrix needs at least one generator")
    n, m, k = group.order, space.channels, len(members)
    if n * m * k > ORACLE_SIZE_LIMIT:
        raise SizeLimit(f"|G|*m*k = {n * m * k} exceeds the oracle cap {ORACLE_SIZE_LIMIT}")
    stacked = np.stack([x.dense() for x in members], axis=-1)  # (element, channel, member)
    elements = np.indices(group.orders).reshape(len(group.orders), -1)
    source = _offset_index(group, elements)  # source[h, g]: index of h - g
    # entry (h, c, g, j) is x_j(h - g, c); the result is already C-ordered
    cols = stacked[source[:, None, :, None], np.arange(m)[:, None, None], np.arange(k)]
    return cols.reshape(n * m, n * k)


def _gram_spectrum(X) -> np.ndarray:
    """Eigenvalues of the dense orbit Gram: squared singular values of the
    orbit matrix, padded with the structural zeros a wide matrix hides."""
    M = dense_family_matrix(X)
    s = np.linalg.svd(M, compute_uv=False)
    sq = np.zeros(M.shape[1])
    sq[: s.size] = s**2
    return sq


def dense_riesz_bounds(X, tol_rank: float = TOL_RANK_REL) -> Bounds:
    """Extreme eigenvalues of the dense orbit Gram."""
    sq = _gram_spectrum(X)
    if sq[-1] <= tol_rank * max(sq[0], 1.0):
        raise NotRiesz(f"dense orbit matrix is rank deficient (min sigma^2 {sq[-1]:.3e})")
    return Bounds(float(sq[-1]), float(sq[0]), exact=True)


def dense_frame_bounds(X, tol_rank: float = TOL_RANK_REL) -> Bounds:
    """Extreme nonzero eigenvalues of the dense orbit Gram."""
    sq = _gram_spectrum(X)
    keep = sq[sq > tol_rank * max(sq[0], 1.0)]
    if keep.size == 0:
        raise EmptyFamily("family spans only the zero subspace")
    return Bounds(float(keep.min()), float(keep.max()), exact=True)


def dense_orth_basis(columns: np.ndarray, tol_rank: float = TOL_RANK_REL) -> np.ndarray:
    """Orthonormal basis of the column span (SVD rank cutoff)."""
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.shape[1] == 0:
        return np.zeros((columns.shape[0], 0), dtype=np.complex128)
    U, s, _ = np.linalg.svd(columns, full_matrices=False)
    r = int(np.sum(s > tol_rank * max(s[0], 1.0)))
    return U[:, :r]


def dense_projector(columns: np.ndarray, tol_rank: float = TOL_RANK_REL) -> np.ndarray:
    """Orthogonal projector onto the column span."""
    B = dense_orth_basis(columns, tol_rank)
    return B @ B.conj().T


def dense_oblique_projector(
    v_columns: np.ndarray, w_columns: np.ndarray, tol_rank: float = TOL_RANK_REL
) -> np.ndarray:
    """Projector onto span(w) along span(v), zero on the joint orthocomplement.

    Solves u = v0 + w0 on the stacked basis; rank additivity of the stack is
    required, otherwise the decomposition is not unique (NotDirectSum).
    """
    v_columns = np.asarray(v_columns, dtype=np.complex128)
    w_columns = np.asarray(w_columns, dtype=np.complex128)
    S = np.hstack([v_columns, w_columns])
    rv = np.linalg.matrix_rank(v_columns, tol=None) if v_columns.size else 0
    rw = np.linalg.matrix_rank(w_columns, tol=None) if w_columns.size else 0
    rs = np.linalg.matrix_rank(S, tol=None) if S.size else 0
    if rs != rv + rw:
        raise NotDirectSum(f"stacked rank {rs} != {rv} + {rw}; spans overlap")
    coords = np.linalg.pinv(S, rcond=tol_rank)
    return w_columns @ coords[v_columns.shape[1]:, :]

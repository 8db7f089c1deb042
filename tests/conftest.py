"""Shared random-instance generators for the test and acceptance suites.

Everything is driven by an explicit numpy Generator so failures replay.
Generators resample until the instance is numerically sane (moderate
Riesz bounds, transversal subspaces); the constructions under test are
supposed to work on generic well-posed inputs, not on adversarial ones.
"""

from __future__ import annotations

import numpy as np

from wandergen import _linalg
from wandergen.defaults import TOL_RANK_REL
from wandergen.errors import NotRiesz
from wandergen.fibers import (
    Family,
    family_from_fibers,
    is_contained,
    orthonormalize,
    riesz_bounds,
)
from wandergen.groups import FiniteAbelian, SystemSpace, from_dense
from wandergen import nonabelian as na
from wandergen import oracle

GROUP_POOL = [
    (2,), (3,), (4,), (5,), (6,), (8,), (12,), (24,),
    (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 2, 3),
]


def orth_columns(M: np.ndarray, rel: float = TOL_RANK_REL) -> tuple[np.ndarray, np.ndarray]:
    """Reference column-space bases of a stack (..., n, k) via SVD: the left
    singular vectors U, shape (..., n, min(n, k)), and the ranks r; the first
    r columns of each U are an orthonormal basis of that matrix's column
    space.  A fiber holder's cached ``svd`` factors must equal it."""
    U, s = _linalg.thin_svd(M)
    return U, _linalg._rank(s, rel)


def random_space(rng, max_channels: int = 4, min_channels: int = 1, orders=None) -> SystemSpace:
    """A random space; ``orders`` fixes the group instead of drawing it."""
    orders = orders or GROUP_POOL[rng.integers(0, len(GROUP_POOL))]
    m = int(rng.integers(min_channels, max_channels + 1))
    return SystemSpace(FiniteAbelian(orders), m)


def random_vector(rng, space: SystemSpace):
    group = space.group
    dense = rng.standard_normal((group.order, space.channels)) + 1j * rng.standard_normal(
        (group.order, space.channels)
    )
    return from_dense(space, dense)


def random_family(rng, space: SystemSpace, k: int) -> Family:
    return Family(space, tuple(random_vector(rng, space) for _ in range(k)))


def well_conditioned(X, lo: float = 1e-2, hi: float = 1e3) -> bool:
    try:
        b = riesz_bounds(X)
    except NotRiesz:
        return False
    return lo <= b.lower and b.upper <= hi


def random_riesz_family(rng, space: SystemSpace, k: int, tries: int = 50) -> Family:
    for _ in range(tries):
        X = random_family(rng, space, k)
        if well_conditioned(X):
            return X
    raise RuntimeError("could not draw a well-conditioned Riesz family")


def random_orthonormal_family(rng, space: SystemSpace, k: int) -> Family:
    return orthonormalize(random_riesz_family(rng, space, k))


def combine_fiberwise(base: Family, coeff_stack: np.ndarray):
    """Members whose fibers are pointwise combinations (base fibers) @ C[p]."""
    return family_from_fibers(base.space, base.fibers @ coeff_stack)


def random_isometry_stack(rng, points: int, s: int, r: int) -> np.ndarray:
    out = np.empty((points, s, r), dtype=np.complex128)
    for p in range(points):
        A = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
        out[p] = np.linalg.qr(A)[0]
    return out


def random_coeff_stack(rng, points: int, s: int, r: int) -> np.ndarray:
    return rng.standard_normal((points, s, r)) + 1j * rng.standard_normal((points, s, r))


def random_wandering_subfamily(rng, Yon: Family, r: int) -> Family:
    """Wandering family of size r inside the span of an orthonormal family."""
    sampling = Yon.sampling
    return combine_fiberwise(Yon, random_isometry_stack(rng, len(sampling), len(Yon), r))


def random_robertson_instance(rng, min_channels: int = 2):
    """(X, Y) with Y orbit-orthonormal and X wandering inside its span."""
    space = random_space(rng, min_channels=min_channels)
    s = int(rng.integers(2, space.channels + 1))
    Y = random_orthonormal_family(rng, space, s)
    r = int(rng.integers(1, s + 1))
    X = random_wandering_subfamily(rng, Y, r)
    return X, Y


def random_oblique_instance(rng, tries: int = 50, orders=None):
    """(X, Y, W0) Riesz families with V0 (+) W0 = V1 fiberwise, |X| < |Y|."""
    for _ in range(tries):
        space = random_space(rng, min_channels=2, orders=orders)
        s = int(rng.integers(2, min(space.channels, 3) + 1))
        r = int(rng.integers(1, s))
        Y = random_riesz_family(rng, space, s)
        points = len(Y.sampling)
        X = combine_fiberwise(Y, random_coeff_stack(rng, points, s, r))
        W0 = combine_fiberwise(Y, random_coeff_stack(rng, points, s, s - r))
        if not (well_conditioned(X) and well_conditioned(W0)):
            continue
        from wandergen.oblique import direct_sum_check

        if direct_sum_check(X, W0) and is_contained(W0, Y):
            return X, Y, W0
    raise RuntimeError("could not draw an oblique split instance")


def random_noninvariant_dense_w0(rng, X: Family, Y: Family, tries: int = 50):
    """Dense complement of V0 in V1 that is not shift-invariant."""
    from wandergen.oblique import DenseBasis, is_invariant

    OX = oracle.dense_family_matrix(X)
    OY = oracle.dense_family_matrix(Y)
    BX = oracle.dense_orth_basis(OX)
    BY = oracle.dense_orth_basis(OY)
    PV0 = BX @ BX.conj().T
    V = oracle.dense_orth_basis(BY - PV0 @ BY)
    for _ in range(tries):
        mix = rng.standard_normal((BY.shape[1], V.shape[1])) + 1j * rng.standard_normal(
            (BY.shape[1], V.shape[1])
        )
        W = V + 0.3 * BY @ mix
        stacked = np.hstack([BX, W])
        if np.linalg.matrix_rank(stacked) != BX.shape[1] + V.shape[1]:
            continue
        basis = DenseBasis(X.space, W)
        if not is_invariant(basis):
            return basis
    raise RuntimeError("could not draw a non-invariant dense complement")


def random_frame_instance(rng, tries: int = 50):
    """(X, Y, W0) where Y is a redundant frame family (|Y| > fiber rank)."""
    from wandergen.oblique import direct_sum_check

    for _ in range(tries):
        space = random_space(rng, min_channels=2)
        rank_y = int(rng.integers(2, min(space.channels, 3) + 1))
        s = rank_y + int(rng.integers(1, 3))
        base = random_riesz_family(rng, space, rank_y)
        points = len(base.sampling)
        # constant mixing keeps the honest redundancy structure visible
        mix = rng.standard_normal((rank_y, s)) + 1j * rng.standard_normal((rank_y, s))
        Y = combine_fiberwise(base, np.broadcast_to(mix, (points, rank_y, s)).copy())
        rank_x = int(rng.integers(1, rank_y))
        X = combine_fiberwise(base, random_coeff_stack(rng, points, rank_y, rank_x))
        W0 = combine_fiberwise(base, random_coeff_stack(rng, points, rank_y, rank_y - rank_x))
        if not (well_conditioned(X, hi=1e4) and well_conditioned(W0, hi=1e4)):
            continue
        if direct_sum_check(X, W0) and is_contained(W0, Y) and is_contained(X, Y):
            return X, Y, W0
    raise RuntimeError("could not draw a frame instance")


def random_biortho_quadruple(rng, tries: int = 50, orders=None):
    """(X, Xt, Y, Yt) biorthogonal Riesz pairs with skew dual spaces."""
    from wandergen.fibers import gram_normalization, is_biorthogonal

    for _ in range(tries):
        group = FiniteAbelian(orders or GROUP_POOL[rng.integers(0, len(GROUP_POOL))])
        s = int(rng.integers(2, 4))
        m = s + int(rng.integers(1, 3))
        space = SystemSpace(group, m)
        Y = random_riesz_family(rng, space, s)
        sampling, FY = Y.sampling, Y.fibers
        points = len(sampling)
        N = gram_normalization(space)
        G = N * np.einsum("pci,pcj->pij", FY, FY.conj())
        dual = FY @ np.linalg.inv(G).conj()
        # orthogonal junk moves the dual span off V1 without touching the pairing
        junk = np.empty_like(dual)
        for p in range(points):
            BY = np.linalg.svd(FY[p], full_matrices=False)[0]
            E = rng.standard_normal((m, s)) + 1j * rng.standard_normal((m, s))
            junk[p] = E - BY @ (BY.conj().T @ E)
        FYt = dual + 0.4 * junk
        Yt = family_from_fibers(space, FYt)
        r = int(rng.integers(1, s))
        M = random_coeff_stack(rng, points, s, r)
        X = combine_fiberwise(Y, M)
        C = np.empty((points, s, r), dtype=np.complex128)
        for p in range(points):
            C[p] = np.linalg.pinv(M[p].T).conj()
        Xt = combine_fiberwise(Yt, C)
        families = (X, Xt, Y, Yt)
        if not all(well_conditioned(f, lo=1e-3, hi=1e4) for f in families):
            continue
        if not is_biorthogonal(X, Xt).ok or not is_biorthogonal(Y, Yt).ok:
            continue
        return X, Xt, Y, Yt
    raise RuntimeError("could not draw a biorthogonal quadruple")


def random_projection_triple(rng, tries: int = 50):
    """(M, Mp, N) families with col M (+) col N = col Mp (+) col N fiberwise."""
    from wandergen.oblique import direct_sum_check

    for _ in range(tries):
        space = random_space(rng, min_channels=2)
        m = space.channels
        q = int(rng.integers(0, m))          # dim N
        a = int(rng.integers(1, m - q + 1))  # dim M = dim M'
        M = random_riesz_family(rng, space, a)
        N = random_riesz_family(rng, space, q) if q else Family(space, ())
        sampling, FM = M.sampling, M.fibers
        points = len(sampling)
        FN = N.fibers if q else np.zeros((points, m, 0), dtype=np.complex128)
        joint = np.concatenate([FM, FN], axis=2)
        # M' drawn inside col(M) + col(N) so the two sums agree as subspaces
        Mp = family_from_fibers(space, joint @ random_coeff_stack(rng, points, a + q, a))
        if not well_conditioned(Mp, lo=1e-3, hi=1e4):
            continue
        if q and not (direct_sum_check(M, N) and direct_sum_check(Mp, N)):
            continue
        return M, Mp, N
    raise RuntimeError("could not draw a projection triple")


# ---------------------------------------------------------------------------
# non-abelian helpers


def compress(rep: na.Representation, basis: np.ndarray) -> na.Representation:
    return na.Representation(rep.group, basis.conj().T @ rep.matrices @ basis)


def haar_unitary(rng, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_commutant_element(rng, rep: na.Representation) -> np.ndarray:
    group = rep.group
    inv = [group.inverse(g) for g in group.elements()]
    R = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
    return np.mean(rep.matrices @ R @ rep.matrices[inv], axis=0)


def random_commutant_unitary(rng, rep: na.Representation) -> np.ndarray:
    T = random_commutant_element(rng, rep)
    W, _, Vh = np.linalg.svd(T)
    return W @ Vh


def random_invariant_splitting(rng, rep: na.Representation):
    """(B_S, B_perp): orthonormal bases of a random invariant subspace and its
    complement, from the eigenspaces of a commutant Hermitian element."""
    C = random_commutant_element(rng, rep)
    H = C + C.conj().T
    w, U = np.linalg.eigh(H)
    clusters: list[list[int]] = []
    for i, val in enumerate(w):
        if clusters and abs(val - w[clusters[-1][-1]]) < 1e-8 * max(1.0, abs(val)):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) < 2:
        raise RuntimeError("degenerate commutant element")
    n_pick = int(rng.integers(1, len(clusters)))
    picked = sorted(rng.choice(len(clusters), size=n_pick, replace=False).tolist())
    sel = [i for c in picked for i in clusters[c]]
    rest = [i for i in range(rep.dim) if i not in sel]
    return U[:, sel], U[:, rest]

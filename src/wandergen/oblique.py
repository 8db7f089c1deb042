"""Oblique projection calculus and the multiwavelet constructions.

Subspaces enter in one of three presentations: an orbit generator family
(invariance holds by construction), a dense basis of the exact-mode
ambient space (accepted so the non-invariant branch is exercisable), or a
precomputed per-point fiber basis field.  Each is a system space and a
fiber tensor values[point, channel, column] over that space's dual
sampling, read as ``.fibers``.  All projectors and generator outputs are
produced point by point over those dual points.

The Riesz construction follows the proof shape: orthonormal generators of
the orthogonal complement V of the coarse space inside the fine one, then
the oblique projector onto the target space along the coarse space applied
to those generators.  The frame construction first projects the fine
generators orthogonally onto V, then obliquely into the target.

The public functions check their hypotheses once, at entry, in a fixed
order.  The private steps trust them: ``_oblique_riesz_core``, shared by
the Riesz and biorthogonal constructions, and ``_validated_split``, which
assumes V0 already sits inside V1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg
from .defaults import TOL_RANK_REL
from .errors import (
    ExactModeRequired,
    HypothesisFailure,
    NotContained,
    NotDirectSum,
    NotInvariant,
    SingularPairing,
    SizeMismatch,
    SizesEqual,
)
from .fibers import (
    Family,
    FiberField,
    SampledFamily,
    _FiberHolder,
    default_bio_tol,
    dense_fourier_matrix,
    family_from_fibers,
    frame_bounds,
    gram_normalization,
    is_biorthogonal,
    is_contained,
    riesz_bounds,
    union_family,
)
from .groups import DualSampling, SystemSpace, dft
from .wandering import complement_fibers

__all__ = [
    "DenseBasis",
    "FiberBasisField",
    "ObliqueSplit",
    "OperatorField",
    "ProjectionPair",
    "BiorthogonalPair",
    "orth_complement_in",
    "is_invariant",
    "oblique_projector",
    "restricted_projection_pair",
    "oblique_riesz_wavelets",
    "oblique_frame_wavelets",
    "dual_family",
    "direct_sum_check",
    "biorthogonal_wavelets",
]


@dataclass(frozen=True)
class DenseBasis(_FiberHolder):
    """Dense coefficient columns spanning a subspace of the exact ambient space;
    ``fibers`` (values[point, channel, column]) is computed once, read-only."""

    space: SystemSpace
    columns: np.ndarray  # (|G| * channels, d)

    def __post_init__(self):
        if not self.space.exact:
            raise ExactModeRequired("dense bases exist only in exact mode")
        cols = np.asarray(self.columns, dtype=np.complex128)
        rows = self.space.group.order * self.space.channels
        if cols.ndim != 2 or cols.shape[0] != rows:
            raise ValueError(f"expected ({rows}, d) columns, got {cols.shape}")
        object.__setattr__(self, "columns", cols)

    @cached_property
    def fibers(self) -> np.ndarray:
        group = self.space.group
        values = dft(group, self.columns.reshape(group.order, self.space.channels, -1))
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class FiberBasisField(_FiberHolder):
    """Per-dual-point orthonormal bases of a fiber subspace field."""

    space: SystemSpace
    fibers: np.ndarray  # (points, channels, dim)


@dataclass(frozen=True)
class ObliqueSplit:
    """Direct-sum presentation V0 (+) W0 = V1, all fiberwise."""

    v0: Family
    w0: Family | DenseBasis | FiberBasisField
    within: Family


@dataclass(frozen=True)
class OperatorField:
    """Fiberwise linear maps on channel coordinates.

    Projector instances act as the oblique projector on the split's joint
    fiber span and annihilate its orthogonal complement, so the matrices
    are idempotent at every point.
    """

    sampling: DualSampling
    matrices: np.ndarray  # (points, channels, channels)

    def idempotency_residual(self) -> float:
        PP = self.matrices @ self.matrices
        return float(np.max(np.abs(PP - self.matrices)))

    def dense(self, space: SystemSpace) -> np.ndarray:
        """Exact-mode dense realization: conjugate the block diagonal by the
        dense transform."""
        PHI = dense_fourier_matrix(space)
        points, c, _ = self.matrices.shape
        blocks = np.zeros((points, c, points, c), dtype=self.matrices.dtype)
        at = np.arange(points)
        blocks[at, :, at, :] = self.matrices
        blocks = blocks.reshape(points * c, points * c)
        return PHI.conj().T @ blocks @ PHI


def is_invariant(W, tol_rank: float = TOL_RANK_REL) -> bool:
    """Whether the subspace is closed under the group action.

    Orbit families and fiber basis fields are invariant by construction and
    return True immediately.  Dense bases get the generator translation
    test: translating every basis column by each group generator (a roll
    along one cyclic axis) must stay inside the span.
    """
    if isinstance(W, (Family, SampledFamily, FiberBasisField)):
        return True
    if not isinstance(W, DenseBasis):
        raise TypeError(f"unsupported subspace presentation: {type(W).__name__}")
    B, orders = W.columns, W.space.group.orders
    r = _linalg.matrix_rank(B, tol_rank)
    cyclic = B.reshape(orders + (-1,))  # rows are (element, channel) pairs, element-major
    moved = (np.roll(cyclic, 1, axis).reshape(B.shape) for axis, n in enumerate(orders) if n > 1)
    return all(_linalg.matrix_rank(np.hstack([B, LB]), tol_rank) == r for LB in moved)


def _fiber_basis(
    W, tol_rank: float, not_invariant: str = "dense subspace is not closed under the group action"
) -> FiberBasisField:
    """Resolve a subspace presentation to per-point orthonormal fiber bases.

    Dense bases are checked for invariance first (NotInvariant with the
    given message); every presentation must have one fiber dimension at all
    points.
    """
    if isinstance(W, FiberBasisField):
        return W
    if isinstance(W, DenseBasis):
        if not is_invariant(W, tol_rank):
            raise NotInvariant(not_invariant)
        varying = "invariant subspace has varying fiber dimension"
    else:
        varying = "family has varying fiber rank"
    r = _linalg._rank(W.svd[1], tol_rank)
    if r.min() != r.max():
        raise NotDirectSum(f"{varying} on this sampling")
    return FiberBasisField(W.space, W.svd[0][:, :, : r[0]])


def direct_sum_check(A, B, tol_rank: float = TOL_RANK_REL, require_ambient: bool = False) -> bool:
    """Pointwise rank additivity of the stacked fibers.

    With ``require_ambient`` the joint span must also fill all channels,
    i.e. the fiberwise sum reconstructs the whole space.
    """
    joint = _linalg.matrix_rank(np.concatenate([A.fibers, B.fibers], axis=2), tol_rank)
    ok = joint == _linalg._rank(A.svd[1], tol_rank) + _linalg._rank(B.svd[1], tol_rank)
    if require_ambient:
        ok &= joint == A.space.channels
    return bool(np.all(ok))


def orth_complement_in(Y: Family, X, tol_rank: float = TOL_RANK_REL):
    """Orthonormal generators of the orthogonal complement of X's span inside Y's.

    The output family's orbit is an orthonormal basis of V1 intersect
    V0-perp; the basis choice per point is the deterministic pivoted one.
    """
    riesz_bounds(Y, tol_rank)
    if len(X):
        riesz_bounds(X, tol_rank)
        if not is_contained(X, Y, tol_rank):
            raise NotContained("X's orbit span must sit inside Y's")
    return family_from_fibers(Y.space, complement_fibers(X, Y, tol_rank))


def _validated_split(v0, w0, v1, tol_rank: float) -> tuple[FiberBasisField, FiberBasisField, np.ndarray]:
    """Resolve and validate a split whose V0 is known to sit inside V1 (trivial
    intersection, joint spanning of the fine space's fibers); returns both
    fiber bases and the projectors onto W0 along V0."""
    BV0 = _fiber_basis(v0, tol_rank)
    BW0 = _fiber_basis(w0, tol_rank)
    r1 = _linalg._rank(v1.svd[1], tol_rank)
    joint = _linalg.matrix_rank(np.concatenate([BV0.fibers, BW0.fibers], axis=2), tol_rank)
    w0_in_v1 = _linalg.matrix_rank(np.concatenate([v1.fibers, BW0.fibers], axis=2), tol_rank)
    _linalg.raise_at_first_failure(
        (
            joint != len(BV0) + len(BW0),
            lambda p: NotDirectSum(f"V0 and W0 fibers overlap at dual point {p}"),
        ),
        (
            joint != r1,
            lambda p: NotDirectSum(
                f"V0 (+) W0 spans a {joint[p]}-dimensional fiber at dual point {p}, "
                f"the fine space has {r1[p]}"
            ),
        ),
        (
            w0_in_v1 != r1,
            lambda p: NotDirectSum(f"W0 fibers leave the fine space at dual point {p}"),
        ),
    )
    return BV0, BW0, _linalg.oblique_projector_matrix(BW0.fibers, BV0.fibers, tol_rank)


def oblique_projector(split: ObliqueSplit, tol_rank: float = TOL_RANK_REL) -> OperatorField:
    """Fiberwise projector onto W0's span along V0's span inside V1."""
    if not is_contained(split.v0, split.within, tol_rank):
        raise NotContained("V0 generators leave the fine space fiberwise")
    *_, mats = _validated_split(split.v0, split.w0, split.within, tol_rank)
    return OperatorField(split.within.sampling, mats)


@dataclass(frozen=True)
class ProjectionPair:
    """Oblique-projection restrictions between two complements of N.

    ``p1`` maps M'-coordinates to M-coordinates (projection onto M along N
    restricted to M'), ``q1`` the reverse; they are mutually inverse.
    """

    p1: FiberField
    q1: FiberField
    inverse_residual: float


def restricted_projection_pair(
    M: Family, Mp: Family, N: Family, tol_rank: float = TOL_RANK_REL
) -> ProjectionPair:
    """Lemma-style inverse pair for X = M (+) N = M' (+) N, fiber by fiber."""
    if len(M) != len(Mp):
        raise SizeMismatch(f"complement sizes differ: {len(M)} vs {len(Mp)}")
    FM, FMp = M.fibers, Mp.fibers
    k = len(M)
    (UM, sM), (UMp, sMp), (UN, sN) = M.svd, Mp.svd, N.svd
    rn = _linalg._rank(sN, tol_rank)
    BN = _linalg.leading_columns(UN, rn)

    def rank(*blocks):
        return _linalg.matrix_rank(np.concatenate(blocks, axis=2), tol_rank)

    _linalg.raise_at_first_failure(
        (
            (_linalg._rank(sM, tol_rank) != k) | (_linalg._rank(sMp, tol_rank) != k),
            lambda p: NotDirectSum(f"generator fibers are dependent at dual point {p}"),
        ),
        (
            (rank(FM, BN) != k + rn) | (rank(FMp, BN) != k + rn),
            lambda p: NotDirectSum(f"complements meet N at dual point {p}"),
        ),
        (
            rank(FM, FMp, BN) != k + rn,
            lambda p: NotDirectSum(f"M (+) N and M' (+) N differ at dual point {p}"),
        ),
    )
    # full column rank everywhere, so the SVD bases keep all k columns
    P = _linalg.oblique_projector_matrix(UM, BN, tol_rank)
    Q = _linalg.oblique_projector_matrix(UMp, BN, tol_rank)
    # FM and FMp have full column rank k, so their pseudo-inverses give the
    # least-squares solutions at every point at once
    p1 = np.linalg.pinv(FM) @ (P @ FMp)
    q1 = np.linalg.pinv(FMp) @ (Q @ FM)
    eye = np.eye(k)
    residual = float(np.max(np.abs(p1 @ q1 - eye))) if k else 0.0
    return ProjectionPair(FiberField(M.sampling, p1), FiberField(M.sampling, q1), residual)


def oblique_riesz_wavelets(
    X: Family,
    Y: Family,
    w0,
    tol_rank: float = TOL_RANK_REL,
):
    """Riesz generators of W0: obliquely project the orthogonal-complement ones.

    Requires the fine and coarse orbit families to be Riesz, the coarse span
    contained in the fine one with strictly fewer generators, W0 invariant
    (automatic for orbit presentations, tested for dense bases), and
    V0 (+) W0 = V1 fiberwise.  The output has exactly |Y| - |X| members.
    """
    riesz_bounds(X, tol_rank)
    riesz_bounds(Y, tol_rank)
    if not is_contained(X, Y, tol_rank):
        raise NotContained("X's orbit span must sit inside Y's")
    r, s = len(X), len(Y)
    if r >= s:
        raise SizesEqual(f"need |X| < |Y|, got {r} >= {s}")
    BW0 = _fiber_basis(w0, tol_rank, "W0 is not closed under the group action")
    return _oblique_riesz_core(X, Y, BW0, tol_rank)


def _oblique_riesz_core(X: Family, Y: Family, BW0: FiberBasisField, tol_rank: float):
    """The Riesz construction on checked inputs (X and Y Riesz, X's span in
    Y's, |X| < |Y|, W0 resolved): the complement fibers of X's in Y's,
    projected onto W0 along V0 as they are, then one inverse transform."""
    FZ = complement_fibers(X, Y, tol_rank)
    *_, P = _validated_split(X, BW0, Y, tol_rank)
    return family_from_fibers(X.space, P @ FZ)


def oblique_frame_wavelets(
    X: Family,
    Y: Family,
    w0,
    tol_rank: float = TOL_RANK_REL,
):
    """Frame generators of W0: project all fine generators orthogonally onto
    the complement V, then obliquely into W0.

    The output keeps |Y| members (possibly redundant); fine and coarse orbit
    families only need to be frames, so their fiber ranks may fall below the
    generator counts.
    """
    frame_bounds(X, tol_rank)
    frame_bounds(Y, tol_rank)
    if not is_contained(X, Y, tol_rank):
        raise NotContained("X's orbit span must sit inside Y's")
    w0 = _fiber_basis(w0, tol_rank, "W0 is not closed under the group action")  # resolved once
    BV0, BW0, P = _validated_split(X, w0, Y, tol_rank)
    a, b = len(BV0), len(BW0)
    # a valid split gives every fine fiber the rank a + b
    BV = _linalg.complement_in_span(BV0.svd, _linalg.thin_svd(Y.svd[0][:, :, : a + b]), b, tol_rank)
    return family_from_fibers(X.space, P @ (_linalg.projector(BV) @ Y.fibers))


def dual_family(gamma, w0_tilde, tol_rank: float = TOL_RANK_REL):
    """The unique generators inside the dual subspace pairing biorthogonally
    with gamma's orbit.

    Requires the dual subspace to complement the orthogonal complement of
    gamma's span in the whole space, which pins dimensions and makes the
    fiberwise pairing matrices square; a singular pairing means no dual
    exists in that subspace.
    """
    riesz_bounds(gamma, tol_rank)
    BWt = _fiber_basis(w0_tilde, tol_rank)
    k = len(gamma)
    if len(BWt) != k:  # one dimension at every point, so the first point fails
        raise NotDirectSum(f"dual subspace has fiber dimension {len(BWt)} != {k} at dual point 0")
    Bt = BWt.fibers
    pairing = gram_normalization(gamma.space) * gamma.fibers.transpose(0, 2, 1) @ Bt.conj()
    # the stacked inverse raises on any singular matrix, so check every point first
    singular = np.flatnonzero(_linalg.matrix_rank(pairing, tol_rank) < k)
    if singular.size:
        raise SingularPairing(f"fiber pairing singular at dual point {singular[0]}")
    return family_from_fibers(gamma.space, Bt @ np.linalg.inv(pairing).conj())


def _perp_intersection_field(big, perp_of, expected_dim: int, tol_rank: float) -> FiberBasisField:
    """Fiber bases of (span big) intersect (span perp_of)^perp."""
    B = _fiber_basis(big, tol_rank).fibers
    A = _fiber_basis(perp_of, tol_rank).fibers
    V, r = _linalg.null_space_columns(A.conj().transpose(0, 2, 1) @ B, tol_rank)
    found = V.shape[2] - r
    wrong = np.flatnonzero(found != expected_dim)
    if wrong.size:
        p = wrong[0]
        raise NotDirectSum(
            f"intersection dimension {found[p]} != expected {expected_dim} at dual point {p}"
        )
    return FiberBasisField(big.space, B @ V[:, :, V.shape[2] - expected_dim:])


@dataclass(frozen=True)
class BiorthogonalPair:
    """Output of the biorthogonal pipeline with its certification residuals."""

    gamma: Family | SampledFamily
    gamma_tilde: Family | SampledFamily
    pair_residual: float
    union_residual: float


def biorthogonal_wavelets(
    X: Family,
    Xt: Family,
    Y: Family,
    Yt: Family,
    tol_rank: float = TOL_RANK_REL,
    tol_bio: float | None = None,
) -> BiorthogonalPair:
    """Dual multiwavelet pair from biorthogonal refinable family pairs.

    W0 = V1 intersect Vt0-perp and Wt0 = Vt1 intersect V0-perp are computed
    fiberwise; the wavelets come from the oblique Riesz construction, their
    duals from the fiberwise pairing solve.  The union systems (X with the
    wavelets against their tilde mates) are certified Riesz and
    biorthogonal before returning.
    """
    if tol_bio is None:
        tol_bio = default_bio_tol(X.space)
    for fam in (X, Xt, Y, Yt):
        riesz_bounds(fam, tol_rank)
    for name, A, At in (("X", X, Xt), ("Y", Y, Yt)):
        ok, res = is_biorthogonal(A, At, tol_bio)
        if not ok:
            raise HypothesisFailure(f"{name} and {name}t are not biorthogonal (residual {res:.3e})")
    for A, B, a, b in ((X, Y, "X", "Y"), (Xt, Yt, "Xt", "Yt")):
        if not is_contained(A, B, tol_rank):
            raise NotContained(f"{a}'s orbit span must sit inside {b}'s")
    r, s = len(X), len(Y)
    if r >= s:
        raise SizesEqual(f"need |X| < |Y|, got {r} >= {s}")
    W0 = _perp_intersection_field(Y, Xt, s - r, tol_rank)
    Wt0 = _perp_intersection_field(Yt, X, s - r, tol_rank)
    gamma = _oblique_riesz_core(X, Y, W0, tol_rank)
    gamma_t = dual_family(gamma, Wt0, tol_rank)
    ok, pair_res = is_biorthogonal(gamma, gamma_t, tol_bio)
    if not ok:
        raise SingularPairing(f"constructed pair residual {pair_res:.3e} exceeds {tol_bio:.1e}")
    # union certification: Riesz for the fine spaces, jointly biorthogonal
    union = union_family(X, gamma)
    union_t = union_family(Xt, gamma_t)
    riesz_bounds(union, tol_rank)
    riesz_bounds(union_t, tol_rank)
    _, union_res = is_biorthogonal(union, union_t, tol_bio)
    return BiorthogonalPair(gamma, gamma_t, pair_res, float(union_res))


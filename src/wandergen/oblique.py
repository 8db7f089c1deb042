"""Oblique projection calculus and the multiwavelet constructions.

Subspaces enter in one of three presentations: an orbit generator family
(invariance holds by construction), a dense basis of the exact-mode
ambient space (accepted so the non-invariant branch is exercisable), or a
precomputed per-point fiber basis field.  Each is a system space and a
fiber tensor values[point, channel, column] over that space's dual
points, read as ``.fibers``.  All projectors and generator outputs are
produced point by point over those dual points.

The Riesz construction follows the proof shape: orthonormal generators of
the orthogonal complement V of the coarse space inside the fine one, then
the oblique projector P onto the target space along the coarse space applied
to those generators.  The frame construction applies P to the fine
generators themselves: the proof first projects them orthogonally onto V,
but P kills the coarse space and the fine generators already lie in the
fine space, so P after that projection is P alone.  The biorthogonal
construction needs no split: each biorthogonal pair gives its projector.

The public functions check their hypotheses once, at entry, in a fixed
order.  The private steps trust them: ``_validated_split``, which assumes
V0 already sits inside V1, and ``_projector_along_dual``, which assumes
its pair biorthogonal.
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
    _require_contained,
    default_bio_tol,
    family_from_fibers,
    frame_bounds,
    gram_normalization,
    is_biorthogonal,
    is_contained,
    riesz_bounds,
    union_family,
)
from .groups import SystemSpace, dft
from .wandering import complement_fibers

__all__ = [
    "DenseBasis",
    "FiberBasisField",
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


def is_invariant(W, tol_rank: float = TOL_RANK_REL) -> bool:
    """Whether the subspace is closed under the group action.

    Orbit families and fiber basis fields are invariant by construction and
    return True immediately.  Dense bases are counted: the translates of
    the columns span the subspace whose fiber at each dual point is the
    span of the columns' fibers there, and the columns lie inside it, so
    they are invariant exactly when their rank equals the sum of their
    fiber ranks.
    """
    if isinstance(W, (Family, SampledFamily, FiberBasisField)):
        return True
    if not isinstance(W, DenseBasis):
        raise TypeError(f"unsupported subspace presentation: {type(W).__name__}")
    return bool(_linalg.matrix_rank(W.columns, tol_rank) == _linalg._rank(W.svd[1], tol_rank).sum())


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
    """Pointwise rank additivity of the two fiber spans: A's residual off
    B's cached basis keeps all of A's rank.

    With ``require_ambient`` the joint span must also fill all channels,
    i.e. the fiberwise sum reconstructs the whole space.
    """
    added = _linalg.residual_rank(A.fibers, B.svd, tol_rank)
    ok = added == _linalg._rank(A.svd[1], tol_rank)
    if require_ambient:
        ok &= _linalg._rank(B.svd[1], tol_rank) + added == A.space.channels
    return bool(np.all(ok))


def orth_complement_in(Y: Family, X, tol_rank: float = TOL_RANK_REL):
    """Orthonormal generators of the orthogonal complement of X's span inside Y's.

    The output family's orbit is an orthonormal basis of V1 intersect
    V0-perp; the basis choice per point is the deterministic pivoted one.
    """
    riesz_bounds(Y, tol_rank)
    if len(X):
        riesz_bounds(X, tol_rank)
        _require_contained(X, Y, tol_rank, "X", "Y")
    return family_from_fibers(Y.space, complement_fibers(X, Y, tol_rank))


def _validated_split(v0, w0, v1, tol_rank: float) -> np.ndarray:
    """Resolve and validate a split whose V0 is known to sit inside V1 (trivial
    intersection, joint spanning of the fine space's fibers); returns the
    projectors onto W0 along V0."""
    BV0 = _fiber_basis(v0, tol_rank)
    BW0 = _fiber_basis(w0, tol_rank)
    r1 = _linalg._rank(v1.svd[1], tol_rank)
    factors = _linalg.conj_svd(np.concatenate([BV0.fibers, BW0.fibers], axis=2))  # one SVD: rank and projector
    joint = _linalg._rank(factors[1], tol_rank)
    w0_in_v1 = _linalg.contained_in(BW0.fibers, v1.svd, tol_rank)
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
            ~w0_in_v1,
            lambda p: NotDirectSum(f"W0 fibers leave the fine space at dual point {p}"),
        ),
    )
    return _linalg.oblique_projector_matrix(BW0.fibers, BV0.fibers, tol_rank, factors)


def oblique_projector(v0: Family, w0, within: Family, tol_rank: float = TOL_RANK_REL) -> FiberField:
    """Fiberwise projector onto W0's span along V0's span inside V1 = ``within``,
    for a direct sum V0 (+) W0 = V1.

    Each matrix acts as that projector on the joint fiber span and annihilates
    its orthogonal complement, so it is idempotent.
    """
    if not is_contained(v0, within, tol_rank):
        raise NotContained("V0 generators leave the fine space fiberwise")
    return FiberField(within.space, _validated_split(v0, w0, within, tol_rank))


# numpy.linalg.pinv's default rcond
_PINV_RCOND = 1e-15


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
    (_, sM), (_, sMp), (UN, sN) = M.svd, Mp.svd, N.svd
    rn = _linalg._rank(sN, tol_rank)
    BN = _linalg.leading_columns(UN, rn)
    # each side's stack is factored once, for its rank test and solve (the left's also for M')
    onM, onMp = (_linalg.conj_svd(np.concatenate([F, BN], axis=2)) for F in (FM, FMp))
    _linalg.raise_at_first_failure(
        (
            (_linalg._rank(sM, tol_rank) != k) | (_linalg._rank(sMp, tol_rank) != k),
            lambda p: NotDirectSum(f"generator fibers are dependent at dual point {p}"),
        ),
        (
            (_linalg._rank(onM[1], tol_rank) != k + rn) | (_linalg._rank(onMp[1], tol_rank) != k + rn),
            lambda p: NotDirectSum(f"complements meet N at dual point {p}"),
        ),
        (
            ~_linalg.contained_in(FMp, (onM[0].conj(), onM[1]), tol_rank),
            lambda p: NotDirectSum(f"M (+) N and M' (+) N differ at dual point {p}"),
        ),
    )
    # [FM | BN] and [FMp | BN] have rank k + rn at every point (BN's zeroed
    # columns aside), so each side's fibers have unique coordinates in the
    # other side's stack, and the first k are the projection along N; the
    # checks above made every rank decision, so the solve keeps numpy's
    # default pinv rcond and matches pinv bit for bit
    p1 = (_linalg.pinv_from(onM, _PINV_RCOND) @ FMp)[:, :k]
    q1 = (_linalg.pinv_from(onMp, _PINV_RCOND) @ FM)[:, :k]
    residual = _linalg.identity_deviation(p1 @ q1)
    return ProjectionPair(FiberField(M.space, p1), FiberField(M.space, q1), residual)


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
    _require_contained(X, Y, tol_rank, "X", "Y")
    r, s = len(X), len(Y)
    if r >= s:
        raise SizesEqual(f"need |X| < |Y|, got {r} >= {s}")
    BW0 = _fiber_basis(w0, tol_rank, "W0 is not closed under the group action")
    FZ = complement_fibers(X, Y, tol_rank)
    return family_from_fibers(X.space, _validated_split(X, BW0, Y, tol_rank) @ FZ)


def oblique_frame_wavelets(
    X: Family,
    Y: Family,
    w0,
    tol_rank: float = TOL_RANK_REL,
):
    """Frame generators of W0: Gamma = P Y, the projector P onto W0 along V0
    applied to all fine generators.

    The proof projects Y orthogonally onto the complement V of V0 in V1
    first; P kills V0 and vanishes off V1, so P after that projection is P,
    and P commutes with the group and maps V1 onto W0, which carries Y's
    frame to a frame of W0.  The output keeps |Y| members (possibly
    redundant); fine and coarse orbit families only need to be frames, so
    their fiber ranks may fall below the generator counts.
    """
    frame_bounds(X, tol_rank)
    frame_bounds(Y, tol_rank)
    _require_contained(X, Y, tol_rank, "X", "Y")
    w0 = _fiber_basis(w0, tol_rank, "W0 is not closed under the group action")  # resolved once
    return family_from_fibers(X.space, _validated_split(X, w0, Y, tol_rank) @ Y.fibers)


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
    singular = _linalg.matrix_rank(pairing, tol_rank) < k
    _linalg.raise_at_first_failure((singular, lambda p: SingularPairing(f"fiber pairing singular at dual point {p}")))
    return family_from_fibers(gamma.space, Bt @ np.linalg.inv(pairing).conj())


def _projector_along_dual(A, At, tol_rank: float, error, what: str) -> np.ndarray:
    """Projectors F_A (F_At^H F_A)^+ F_At^H onto A's fiber spans along the
    orthogonal complements of At's.  One SVD of the normalized pairing
    N F_At^H F_A serves its singularity test, which raises ``error`` with
    ``what`` at the first singular dual point, and its pseudo-inverse."""
    FtH = gram_normalization(A.space) * At.fibers.conj().swapaxes(-1, -2)
    factors = _linalg.conj_svd(FtH @ A.fibers)
    singular = _linalg._rank(factors[1], tol_rank) < len(A)
    _linalg.raise_at_first_failure((singular, lambda p: error(f"{what} at dual point {p}")))
    return A.fibers @ _linalg.pinv_from(factors, tol_rank) @ FtH


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

    Each pair gives its fiberwise projector along the dual span's orthogonal
    complement: Q0 onto V0, Q1 onto V1.  The wavelets are (I - Q0) Z, in
    W0 = V1 intersect Vt0-perp, for the complement generators Z of V0 in V1;
    their duals are (I - Q0^H) Q1^H Z, in Wt0 = Vt1 intersect V0-perp, times
    the inverse of their pairing, which is I up to rounding.  The union
    systems (X with the wavelets against their tilde mates) are certified
    Riesz and biorthogonal before returning.
    """
    if tol_bio is None:
        tol_bio = default_bio_tol(X.space)
    for fam in (X, Xt, Y, Yt):
        riesz_bounds(fam, tol_rank)
    for name, A, At in (("X", X, Xt), ("Y", Y, Yt)):
        ok, res = is_biorthogonal(A, At, tol_bio)
        if not ok:
            raise HypothesisFailure(f"{name} and {name}t are not biorthogonal (residual {res:.3e})")
    _require_contained(X, Y, tol_rank, "X", "Y")
    _require_contained(Xt, Yt, tol_rank, "Xt", "Yt")
    r, s = len(X), len(Y)
    if r >= s:
        raise SizesEqual(f"need |X| < |Y|, got {r} >= {s}")
    Q0 = _projector_along_dual(X, Xt, tol_rank, NotDirectSum, "V0 and W0 fibers overlap")
    Q1 = _projector_along_dual(Y, Yt, tol_rank, SingularPairing, "fiber pairing singular")
    FZ = complement_fibers(X, Y, tol_rank)
    gamma = family_from_fibers(X.space, FZ - Q0 @ FZ)
    Bt = Q1.conj().swapaxes(-1, -2) @ FZ
    Bt = Bt - Q0.conj().swapaxes(-1, -2) @ Bt
    pairing = gram_normalization(X.space) * gamma.fibers.transpose(0, 2, 1) @ Bt.conj()
    gamma_t = family_from_fibers(X.space, Bt @ np.linalg.inv(pairing).conj())
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

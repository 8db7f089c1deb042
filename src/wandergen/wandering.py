"""Wandering-family certificates, the dimension audit, and the complement.

A family is wandering when its orbit is orthonormal, i.e. its Gram fibers
equal the identity at every dual point.  Given nested wandering families X
inside Y's orbit span, a complementary wandering family X' is constructed
fiber by fiber: at each dual point the orthogonal complement of X's fiber
span inside Y's is extracted with a deterministic pivoted factorization.

``complement_wandering`` and ``bessel_dimension_audit`` check their
hypotheses once, at entry; ``complement_fibers`` trusts its caller's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .defaults import TOL_RANK_REL
from .errors import ExactModeRequired, NotContained, NotWandering
from .fibers import (
    Family,
    SampledFamily,
    _require_contained,
    default_bio_tol,
    family_from_fibers,
    gram_fibers,
    gram_normalization,
)
from .groups import FiniteAbelian, IntegerShift, translate

__all__ = [
    "WanderingCertificate",
    "BesselAudit",
    "verify_wandering",
    "bessel_dimension_audit",
    "complement_wandering",
]


@dataclass(frozen=True)
class WanderingCertificate:
    """Orbit-orthonormality certificate for a family.

    ``complete`` records whether the fibers span all channels at every
    sampled point, in which case the orbit spans the whole space.
    """

    family: Family | SampledFamily
    max_gram_residual: float
    complete: bool
    tolerance: float

    @property
    def valid(self) -> bool:
        return _linalg.within(self.max_gram_residual, self.tolerance)


def verify_wandering(M, tol_bio: float | None = None, tol_rank: float = TOL_RANK_REL) -> WanderingCertificate:
    """Measure how far the orbit Gram fibers sit from the identity; ``complete``
    reads each fiber's rank, at ``tol_rank``, from the eigenvalues the bounds use."""
    if tol_bio is None:
        tol_bio = default_bio_tol(M.space)
    if len(M) == 0:
        return WanderingCertificate(M, 0.0, complete=False, tolerance=tol_bio)
    residual = gram_fibers(M).identity_deviation()
    ranks = _linalg._rank(M.gram_eigenvalues, tol_rank)
    return WanderingCertificate(M, residual, bool(np.all(ranks == M.space.channels)), tol_bio)


def _require_wandering(tol_bio: float | None, **families) -> None:
    """Raise NotWandering for the first named family whose orbit is not orthonormal."""
    for name, M in families.items():
        residual = gram_fibers(M).identity_deviation() if len(M) else 0.0
        if not _linalg.within(residual, default_bio_tol(M.space) if tol_bio is None else tol_bio):
            raise NotWandering(f"{name} is not wandering (residual {residual:.3e})")


@dataclass(frozen=True)
class BesselAudit:
    dim_m: int
    dim_k: int
    double_sum: float


def _audit_shifts(M: Family, x) -> list:
    group = M.space.group
    if isinstance(group, FiniteAbelian):
        return group.elements()
    # shift mode: only finitely many translations give overlapping supports
    windows = [v.support_window() for v in M.members]
    windows = [w for w in windows if w is not None]
    wx = x.support_window()
    if not windows or wx is None:
        return []
    lo = min(w[0] for w in windows) - wx[1]
    hi = max(w[1] for w in windows) - wx[0]
    return list(range(lo, hi + 1))


def bessel_dimension_audit(M: Family, K: Family) -> BesselAudit:
    """Direct triple sum of |<y_i, g x_j>|^2 over M's members, K's members,
    and all translations that can meet.

    For valid inputs (both families wandering, M's orbit span inside K's)
    the sum reproduces dim M exactly and can never exceed dim K.
    """
    if isinstance(M, SampledFamily) or isinstance(K, SampledFamily):
        raise ExactModeRequired("the dimension audit needs coefficient-domain families")
    _require_wandering(None, M=M, K=K)
    _require_contained(M, K, TOL_RANK_REL, "M", "K")
    total = 0.0
    for x in K.members:
        for g in _audit_shifts(M, x):
            gx = translate(g, x)
            for y in M.members:
                total += abs(y.inner(gx)) ** 2
    return BesselAudit(len(M), len(K), float(total))


def complement_wandering(
    X,
    Y,
    tol_bio: float | None = None,
    tol_rank: float = TOL_RANK_REL,
):
    """Wandering family X' whose orbit span complements X's inside Y's.

    At each dual point the orthogonal complement of X's fiber span inside
    Y's is extracted with a column-pivoted factorization.  Exact mode
    returns coefficient-domain members under a fixed phase convention
    (largest-magnitude entry real positive); shift mode returns a
    fiber-sampled family whose per-point bases are rotation-aligned with
    their neighbours for a continuous selection.

    |X| = |Y| is legal and yields the empty family.
    """
    _require_wandering(tol_bio, X=X, Y=Y)
    _require_contained(X, Y, tol_rank, "X", "Y")
    r, s = len(X), len(Y)
    if r > s:
        raise NotContained(f"|X| = {r} exceeds |Y| = {s}; no complement exists")
    align = isinstance(X.space.group, IntegerShift)
    return family_from_fibers(X.space, complement_fibers(X, Y, tol_rank, align))


def complement_fibers(X, Y, tol_rank: float, align: bool = False) -> np.ndarray:
    """Fibers of an orbit-orthonormal family spanning Y's fiber span minus X's.

    At each dual point a column-pivoted factorization picks the complement
    basis from the two holders' cached SVD factors.  Its columns are then
    phase-pinned (largest-magnitude entry real positive), or with ``align``
    rotated onto the previous point's basis for a continuous shift-mode
    selection, and scaled by the Gram normalization.
    """
    d = len(Y) - len(X)
    if d <= 0:
        return Y.fibers[:, :, :0]
    bases = _linalg.complement_in_span(X.svd, Y.svd, d, tol_rank)
    bases = _linalg.procrustes_align(bases) if align else _linalg.phase_normalize_columns(bases)
    return bases * (1.0 / math.sqrt(gram_normalization(Y.space)))

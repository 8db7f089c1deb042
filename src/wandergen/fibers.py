"""Fiberization of orbit families: Gram fibers, bounds, and certificates.

An orbit family is reduced, through the group Fourier transform, to one
small matrix per dual point.  Riesz and frame bounds,
biorthogonality, containment, and orthonormalization all become pointwise
matrix statements on those fibers.

The Gram normalization constant is pinned so that an orbit-orthonormal
family yields the identity fiber at every point (|G| in exact mode, 1 in
shift mode); "is this family wandering?" is then a single matrix
comparison.

Each fiber holder factors its fiber stack once (``svd``), for every rank
and basis decision on those fibers.  Decisions about two subspaces read
those factors too: X sits inside Y where X's fibers have no residual off
Y's cached basis, and principal angles come from the two cached bases.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _linalg
from .defaults import TOL_BIO_EXACT, TOL_BIO_SAMPLED, TOL_RANK_REL
from .errors import EmptyFamily, NotContained, NotRiesz, RankJump, SizeLimit, SizeMismatch
from .groups import GroupVector, SystemSpace, _transform, from_dense, idft, translate

__all__ = [
    "Family",
    "SampledFamily",
    "FiberField",
    "Bounds",
    "union_family",
    "gram_normalization",
    "gram_fibers",
    "mixed_gramian",
    "riesz_bounds",
    "frame_bounds",
    "is_biorthogonal",
    "is_contained",
    "orthonormalize",
    "synthesize",
    "default_bio_tol",
    "fiber_span_angle",
]


class _FiberHolder:
    """A system space and its fiber tensor values[point, channel, member],
    one row per dual point of the space (``space.points``).  Holders given their
    fibers check that shape when built; those that compute them override
    ``__post_init__``.  Three caches, each computed once, on first use, and
    read-only, serve every decision on these fibers: the Gram fibers ``gram``
    (points, members, members), their ascending eigenvalues
    ``gram_eigenvalues`` and the thin SVD factors ``svd`` = (U, s)."""

    def __len__(self) -> int:
        return int(self.fibers.shape[2])

    def __post_init__(self):
        points, channels = self.space.points, self.space.channels
        shape = np.shape(self.fibers)
        if len(shape) != 3 or shape[:2] != (points, channels):
            raise ValueError(f"expected ({points}, {channels}, k) fibers, got {shape}")

    @cached_property
    def gram(self) -> np.ndarray:
        G = _gram_tensor(self.fibers, self.fibers, gram_normalization(self.space))
        if not np.all(np.isfinite(G)):
            raise SizeLimit("Gram fibers overflow float64")
        G.flags.writeable = False
        return G

    @cached_property
    def gram_eigenvalues(self) -> np.ndarray:
        evs = np.linalg.eigvalsh(self.gram)
        if not np.all(np.isfinite(evs)):
            raise SizeLimit("Gram fiber eigenvalues overflow float64")
        evs.flags.writeable = False
        return evs

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray]:
        U, s = _linalg.thin_svd(self.fibers)
        U.flags.writeable = s.flags.writeable = False
        return U, s


@dataclass(frozen=True)
class Family(_FiberHolder):
    """Ordered finite list of generators sharing one system space.

    ``fibers`` holds the transformed members, values[point, channel,
    member]; it is computed once, on first use, and is read-only: one
    transform of the stacked members, in either mode (``groups._transform``).
    """

    space: SystemSpace
    members: tuple[GroupVector, ...]

    def __post_init__(self):
        members = tuple(self.members)
        for v in members:
            if v.space != self.space:
                raise SizeMismatch("family members must share the system space")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def fibers(self) -> np.ndarray:
        values = _transform(self.space, self.members)
        values.flags.writeable = False
        return values


@dataclass(frozen=True)
class SampledFamily(_FiberHolder):
    """Fiber-sampled stand-in for a family when no coefficient realization exists.

    Shift-mode constructions return these: the fibers are trustworthy at the
    sampled dual points, but recovering coefficient sequences would require
    interpolation, which is deliberately not offered.
    """

    space: SystemSpace
    fibers: np.ndarray  # (points, channels, members)
    note: str = "fiber-sampled; coefficient-domain realization requires interpolation"


@dataclass(frozen=True)
class FiberField:
    """One complex matrix per dual point of ``space``."""

    space: SystemSpace
    matrices: np.ndarray  # (points, rows, cols)

    def identity_deviation(self) -> float:
        """Max absolute entry of (matrix - I) over all points."""
        return _linalg.identity_deviation(self.matrices)


@dataclass(frozen=True)
class Bounds:
    """Two-sided bound pair 0 < lower <= upper.

    ``exact`` is False when the bounds are grid infima/suprema over a torus
    sampling rather than certified extrema over the whole dual group.
    """

    lower: float
    upper: float
    exact: bool = True

    def __post_init__(self):
        if not (self.lower > 0.0 and self.lower <= self.upper):
            raise ValueError(f"bounds must satisfy 0 < lower <= upper, got {self}")


def union_family(A, B) -> SampledFamily:
    """A's generators followed by B's, as their stacked fibers."""
    return SampledFamily(A.space, np.concatenate([A.fibers, B.fibers], axis=2))


def gram_normalization(space: SystemSpace) -> float:
    return float(space.group.order) if space.exact else 1.0


def default_bio_tol(space: SystemSpace) -> float:
    return TOL_BIO_EXACT if space.exact else TOL_BIO_SAMPLED


def _gram_tensor(F: np.ndarray, Ft: np.ndarray, normalization: float) -> np.ndarray:
    # G[p]_{ij} = N * sum_c F[p,c,i] * conj(Ft[p,c,j])
    return normalization * np.einsum("pci,pcj->pij", F, Ft.conj())


def gram_fibers(X) -> FiberField:
    """Pointwise Gram matrices of the orbit family.

    G(gamma)_{ij} = N sum_c xhat_{i,c}(gamma) conj(xhat_{j,c}(gamma)) with N
    chosen so orbit-orthonormal families give G = I everywhere.
    """
    if len(X) == 0:
        raise EmptyFamily("gram_fibers needs at least one generator")
    return FiberField(X.space, X.gram)


def mixed_gramian(X, Xt) -> FiberField:
    """Cross-Gram fibers of two same-sized families (rows index X)."""
    if X.space != Xt.space:
        raise SizeMismatch("mixed Gramian needs a shared system space")
    if len(X) != len(Xt):
        raise SizeMismatch(f"family sizes differ: {len(X)} vs {len(Xt)}")
    mats = _gram_tensor(X.fibers, Xt.fibers, gram_normalization(X.space))
    return FiberField(X.space, mats)


def riesz_bounds(X, tol_rank: float = TOL_RANK_REL) -> Bounds:
    """Extremal Gram-fiber eigenvalues over the dual points.

    Raises NotRiesz at the first dual point whose fiber is singular, its
    smallest eigenvalue at or below the rank cutoff: the two-sided synthesis
    inequality then has no positive lower constant.
    """
    exact, evs = gram_fibers(X).space.exact, X.gram_eigenvalues
    cut = _linalg.cutoff(evs, tol_rank)
    singular = _linalg.within(evs[:, 0], cut)
    message = "Gram fiber at dual point {} is singular (min eigenvalue at or below the cutoff {:.3e})"
    _linalg.raise_at_first_failure((singular, lambda p: NotRiesz(message.format(p, cut[p]))))
    return Bounds(float(evs[:, 0].min()), float(evs[:, -1].max()), exact)


def frame_bounds(X, tol_rank: float = TOL_RANK_REL) -> Bounds:
    """Extremal nonzero Gram-fiber eigenvalues, requiring constant fiber rank.

    A rank that varies across sampled points means the span is not
    well-defined on this sampling (RankJump).  The lower bound is the
    smallest eigenvalue exceeding the rank tolerance anywhere.
    """
    exact, evs = gram_fibers(X).space.exact, X.gram_eigenvalues
    ranks = _linalg._rank(evs, tol_rank)
    if int(ranks.min()) != int(ranks.max()):
        raise RankJump(f"fiber rank varies across sampling: {int(ranks.min())}..{int(ranks.max())}")
    if int(ranks[0]) == 0:
        raise EmptyFamily("family spans only the zero subspace")
    lower = float(evs[:, -int(ranks[0])].min())  # ascending rows: the nonzero ones are the last
    upper = float(evs[:, -1].max())
    return Bounds(lower, upper, exact)


class BiorthogonalityCheck(NamedTuple):
    ok: bool
    residual: float


def is_biorthogonal(X, Xt, tol_bio: float | None = None) -> BiorthogonalityCheck:
    """Whether the cross-Gram fibers equal the identity within tolerance."""
    if tol_bio is None:
        tol_bio = default_bio_tol(X.space)
    residual = mixed_gramian(X, Xt).identity_deviation()
    return BiorthogonalityCheck(_linalg.within(residual, tol_bio), residual)


def is_contained(X, Y, tol_rank: float = TOL_RANK_REL) -> bool:
    """Pointwise column-space containment of X's fibers in Y's, decided by
    X's residual off Y's cached basis."""
    if X.space != Y.space:
        raise SizeMismatch("containment needs a shared system space")
    return bool(np.all(_linalg.contained_in(X.fibers, Y.svd, tol_rank)))


def _require_contained(A, B, tol_rank: float, a: str, b: str) -> None:
    """The nested-span hypothesis of every construction: raise NotContained,
    naming A and B as ``a`` and ``b``, unless A's orbit span sits inside B's."""
    if not is_contained(A, B, tol_rank):
        raise NotContained(f"{a}'s orbit span must sit inside {b}'s")


def fiber_span_angle(X, Y, tol_rank: float = TOL_RANK_REL) -> float:
    """Max over dual points of the largest principal angle between fiber spans."""
    return _linalg.max_principal_angle(X.svd, Y.svd, tol_rank)


def family_from_fibers(space: SystemSpace, F: np.ndarray):
    """Materialize fibers as a Family (exact mode) or SampledFamily (shift mode)."""
    if space.exact:  # one inverse transform, then one view per member
        coeffs = idft(space.group, F)
        return Family(space, tuple(from_dense(space, coeffs[:, :, j]) for j in range(F.shape[2])))
    return SampledFamily(space, np.asarray(F, dtype=np.complex128))


def orthonormalize(X, tol_rank: float = TOL_RANK_REL):
    """Whiten the family so its orbit Gram is the identity at every point.

    Fibers are multiplied by the inverse square root of the (conjugated)
    Gram fiber; the output spans the same fiber column space everywhere and
    its orbit is orthonormal.
    """
    riesz_bounds(X, tol_rank)  # raises NotRiesz on singular fibers
    w, U = np.linalg.eigh(X.gram)
    inv_sqrt = (U * (w[:, None, :] ** -0.5)) @ U.conj().transpose(0, 2, 1)
    # with G_ij = N sum_c xhat_i conj(xhat_j), whitening uses conj(G)^{-1/2}
    return family_from_fibers(X.space, X.fibers @ inv_sqrt.conj())


def synthesize(X, a: Mapping) -> GroupVector:
    """sum over entries a[(g, j)] * translate(g, x_j)."""
    total = GroupVector(X.space)
    for (g, j), weight in a.items():
        j = int(j)
        if not 0 <= j < len(X):
            raise IndexError(f"family index {j} outside 0..{len(X) - 1}")
        total = total + complex(weight) * translate(g, X.members[j])
    return total


"""Discrete abelian groups, dual characters, and the unitary Fourier calculus.

Two group models are supported:

* ``FiniteAbelian`` -- a direct product of cyclic groups.  The dual group is
  enumerated completely (exact mode); the transform is the unitary DFT with
  1/sqrt(|G|) normalization, computed by ``np.fft.fftn(norm="ortho")`` over
  the cyclic axes, so Parseval holds to machine precision.
* ``IntegerShift`` -- the shift group Z.  The dual torus is sampled at the
  ``grid_size``-th roots of unity (sampled mode); transforms are exact
  trigonometric-polynomial evaluations at the grid points, with no
  quadrature error.

Group elements are canonical integer tuples (finite case) or plain integers
(shift case); there is no abstract element interface, which keeps
serialization bit-exact.

An exact-mode ``GroupVector`` stores a read-only dense (|G|, channels) array
and a boolean support mask: the stored coefficients are the masked cells, so
a parsed sparse member keeps its explicit zeros.  ``coeffs`` is a read-only
mapping built from the arrays: canonical (element, channel) keys in element
index, then channel order.  A shift-mode vector keeps a dict: its support is
unbounded.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Union

import numpy as np

from .errors import ExactModeRequired, SupportExceedsGrid

__all__ = [
    "FiniteAbelian",
    "IntegerShift",
    "GroupSpec",
    "SystemSpace",
    "GroupVector",
    "CoefficientArray",
    "DualPoint",
    "DualSampling",
    "FiberSamples",
    "character_table",
    "dft",
    "idft",
    "delta",
    "from_dense",
    "dual_sampling",
    "fourier",
    "inverse_fourier",
    "translate",
    "modulate",
    "convolve",
]


@dataclass(frozen=True)
class FiniteAbelian:
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_k}."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(n) for n in self.orders)
        if not orders:
            raise ValueError("need at least one cyclic factor")
        if any(n < 1 for n in orders):
            raise ValueError("cyclic factor orders must all be >= 1")
        object.__setattr__(self, "orders", orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def canonical(self, g) -> tuple[int, ...]:
        if isinstance(g, (int, np.integer)):
            g = (g,)
        g = tuple(int(x) for x in g)
        if len(g) != len(self.orders):
            raise ValueError(f"element rank {len(g)} != group rank {len(self.orders)}")
        return tuple(x % n for x, n in zip(g, self.orders))

    def compose(self, g, h) -> tuple[int, ...]:
        g, h = self.canonical(g), self.canonical(h)
        return tuple((a + b) % n for a, b, n in zip(g, h, self.orders))

    def inverse(self, g) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(self.canonical(g), self.orders))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic multi-index order."""
        return list(itertools.product(*(range(n) for n in self.orders)))

    def index_of(self, g) -> int:
        g = self.canonical(g)
        idx = 0
        for x, n in zip(g, self.orders):
            idx = idx * n + x
        return idx


@dataclass(frozen=True)
class IntegerShift:
    """The shift group Z, fiberized on a ``grid_size``-point torus grid.

    The grid must stay at least twice as wide as any vector support in play;
    fiber evaluation for wider supports is rejected as alias-prone.
    """

    grid_size: int

    def __post_init__(self):
        n = int(self.grid_size)
        if n < 2:
            raise ValueError("grid_size must be >= 2")
        object.__setattr__(self, "grid_size", n)

    # the identity element of Z
    identity = 0

    def canonical(self, g) -> int:
        return int(g)

    def compose(self, g, h) -> int:
        return int(g) + int(h)

    def inverse(self, g) -> int:
        return -int(g)


GroupSpec = Union[FiniteAbelian, IntegerShift]


@dataclass(frozen=True)
class SystemSpace:
    """Ambient model: sequences over the group with ``channels`` components."""

    group: GroupSpec
    channels: int

    def __post_init__(self):
        if int(self.channels) < 1:
            raise ValueError("channels must be >= 1")
        object.__setattr__(self, "channels", int(self.channels))

    @property
    def exact(self) -> bool:
        return isinstance(self.group, FiniteAbelian)


class GroupVector:
    """Finitely supported coefficients over (group element, channel).

    Channels are 0-based indices below ``space.channels``.  Instances are
    value objects; arithmetic returns new vectors.  ``coeffs`` is a
    read-only mapping of the stored coefficients (see the module docstring).
    """

    __slots__ = ("space", "_values", "_mask")  # _mask is None in shift mode

    def __init__(self, space: SystemSpace, coeffs: Mapping | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict = {}
        for (g, c), value in items:
            c = int(c)
            if not 0 <= c < space.channels:
                raise ValueError(f"channel {c} outside 0..{space.channels - 1}")
            key = (space.group.canonical(g), c)
            merged[key] = merged.get(key, 0j) + complex(value)
        self.space, self._values, self._mask = space, merged, None
        if space.exact:
            flat = [space.group.index_of(g) * space.channels + c for g, c in merged]
            self._values, self._mask = _scatter(space, flat, list(merged.values()))

    @classmethod
    def _exact(cls, space: SystemSpace, values: np.ndarray, mask: np.ndarray) -> "GroupVector":
        """Adopt (|G|, channels) arrays as is; zero outside ``mask``."""
        v = cls.__new__(cls)
        v.space, v._values, v._mask = space, values, mask
        values.flags.writeable = mask.flags.writeable = False
        return v

    @property
    def coeffs(self) -> Mapping:
        if self._mask is None:
            return MappingProxyType(self._values)
        # exact mode: built from the arrays on access, by element index, then channel
        keys = itertools.product(self.space.group.elements(), range(self.space.channels))
        items = zip(keys, self._values.reshape(-1).tolist())
        return MappingProxyType(dict(itertools.compress(items, self._mask.flat)))

    def norm(self) -> float:
        return math.sqrt(self.inner(self).real)

    def inner(self, other: "GroupVector") -> complex:
        """<self, other>, conjugate-linear in ``other``."""
        if self._mask is not None:
            return complex(np.vdot(other.dense(), self._values))
        a, b = self._values, other._values
        if len(a) <= len(b):
            return sum((v * b[k].conjugate() for k, v in a.items() if k in b), 0j)
        return sum((a[k] * v.conjugate() for k, v in b.items() if k in a), 0j)

    def support_window(self) -> tuple[int, int] | None:
        """(min, max) support indices for shift-mode vectors; None when empty."""
        if not isinstance(self.space.group, IntegerShift):
            raise ValueError("support_window is a shift-mode notion")
        if not self._values:
            return None
        positions = [g for g, _ in self._values]
        return min(positions), max(positions)

    def dense(self) -> np.ndarray:
        """The stored dense (|G|, channels) array, read-only; exact mode only."""
        if self._mask is None:
            raise ExactModeRequired("dense coefficients exist only for finite groups")
        return self._values

    def support_mask(self) -> np.ndarray:
        """Read-only (|G|, channels) mask of the stored cells; exact mode only."""
        self.dense()
        return self._mask

    def __add__(self, other: "GroupVector") -> "GroupVector":
        if other.space != self.space:
            raise ValueError("mismatched system spaces")
        if self._mask is not None:
            return GroupVector._exact(self.space, self._values + other._values, self._mask | other._mask)
        merged = dict(self._values)
        for k, v in other._values.items():
            merged[k] = merged.get(k, 0j) + v
        return GroupVector(self.space, merged)

    def __sub__(self, other: "GroupVector") -> "GroupVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "GroupVector":
        s = complex(scalar)
        if self._mask is not None:
            return GroupVector._exact(self.space, s * self._values, self._mask)
        return GroupVector(self.space, {k: s * v for k, v in self._values.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupVector) or other.space != self.space:
            return False
        if self._mask is None:
            return other._values == self._values
        return np.array_equal(other._mask, self._mask) and np.array_equal(other._values, self._values)

    def __repr__(self) -> str:
        return f"GroupVector({len(self.coeffs)} coeffs over {self.space.group})"


def _scatter(space: SystemSpace, flat, values) -> tuple[np.ndarray, np.ndarray]:
    """Exact-mode storage: ``values`` summed in input order at the flat
    positions element index * channels + channel, each position stored."""
    dense = np.zeros((space.group.order, space.channels), dtype=np.complex128)
    mask = np.zeros(dense.shape, dtype=bool)
    with np.errstate(all="ignore"):  # a sum may overflow, as Python floats do, without a warning
        np.add.at(dense.reshape(-1), flat, np.asarray(values, dtype=np.complex128))
    mask.reshape(-1)[flat] = True
    dense.flags.writeable = mask.flags.writeable = False
    return dense, mask


def delta(space: SystemSpace, element, channel: int = 0, value=1.0) -> GroupVector:
    """The coefficient delta at (element, channel)."""
    return GroupVector(space, {(element, channel): value})


def from_dense(space: SystemSpace, dense: np.ndarray) -> GroupVector:
    """Wrap a dense (|G|, channels) array, not copied if complex128 (the
    vector then shares it: leave it unchanged); exact mode only."""
    group = space.group
    if not isinstance(group, FiniteAbelian):
        raise ExactModeRequired("dense coefficients exist only for finite groups")
    dense = np.asarray(dense, dtype=np.complex128).view()
    if dense.shape != (group.order, space.channels):
        raise ValueError(f"expected shape {(group.order, space.channels)}, got {dense.shape}")
    return GroupVector._exact(space, dense, np.broadcast_to(np.True_, dense.shape))


@dataclass
class CoefficientArray:
    """Finitely supported synthesis coefficients over (group element, family index)."""

    entries: dict

    def norm_sq(self) -> float:
        return float(sum(abs(v) ** 2 for v in self.entries.values()))


@dataclass(frozen=True)
class DualPoint:
    """One sampled character of the group; ``evaluate`` gives its unit-modulus value."""

    group: GroupSpec
    index: tuple[int, ...] | int

    def evaluate(self, g) -> complex:
        # phases are reduced mod n in integers first, so they stay accurate for large n
        group = self.group
        if isinstance(group, FiniteAbelian):
            g = group.canonical(g)
            phase = sum((k * x) % n / n for k, x, n in zip(self.index, g, group.orders))
            return complex(np.exp(2j * np.pi * phase))
        n = group.grid_size
        return complex(np.exp(2j * np.pi * ((int(self.index) * int(g)) % n) / n))

    @property
    def angle(self) -> float:
        """Torus angle in [0, 2*pi); sampled mode only."""
        if not isinstance(self.group, IntegerShift):
            raise ValueError("angle is a shift-mode notion")
        return 2.0 * np.pi * int(self.index) / self.group.grid_size


@dataclass(frozen=True)
class DualSampling:
    """The ordered dual points computations are fibered over.

    ``exact`` is True iff the points enumerate the whole dual group (finite
    abelian case); shift-mode grids are honest samples, never exhaustive.
    """

    points: tuple[DualPoint, ...]
    exact: bool

    def __len__(self) -> int:
        return len(self.points)


def dual_sampling(space: SystemSpace) -> DualSampling:
    """Enumerate characters (exact mode) or grid the torus (shift mode)."""
    return _group_sampling(space.group)


@lru_cache(maxsize=16)
def _group_sampling(group: GroupSpec) -> DualSampling:
    if isinstance(group, FiniteAbelian):
        points = tuple(DualPoint(group, idx) for idx in group.elements())
        return DualSampling(points=points, exact=True)
    points = tuple(DualPoint(group, t) for t in range(group.grid_size))
    return DualSampling(points=points, exact=False)


def character_table(group: FiniteAbelian) -> np.ndarray:
    """chars[p, e] = value of the p-th character at the e-th element.

    Both axes use the lexicographic element enumeration, so the table is
    symmetric and chars[p, e] = exp(2*pi*i * sum_j ((p_j e_j) mod n_j) / n_j).
    Each product is reduced in integers before scaling, which keeps the
    phases accurate as |G| grows.  The transforms do not use it: it builds
    the dense oracle's O(|G|^2) matrices only, and is not cached.
    """
    els = np.array(group.elements(), dtype=np.int64)
    phase = sum(np.outer(els[:, j], els[:, j]) % n / n for j, n in enumerate(group.orders))
    return np.exp(2j * np.pi * phase)


def _over_cyclic_axes(transform, group: FiniteAbelian, a: np.ndarray) -> np.ndarray:
    # the lexicographic element order is the C order of an (n_1, ..., n_k) array
    a = np.asarray(a)
    cyclic = a.reshape(group.orders + a.shape[1:])
    axes = tuple(range(len(group.orders)))
    return transform(cyclic, axes=axes, norm="ortho").reshape(a.shape)


def dft(group: FiniteAbelian, a: np.ndarray) -> np.ndarray:
    """Unitary transform along the first axis of a (|G|, ...) array:
    out[p] = |G|^{-1/2} sum_e conj(chars[p, e]) a[e]."""
    return _over_cyclic_axes(np.fft.fftn, group, a)


def idft(group: FiniteAbelian, a: np.ndarray) -> np.ndarray:
    """Inverse of ``dft`` along the first axis of a (|G|, ...) array."""
    return _over_cyclic_axes(np.fft.ifftn, group, a)


@dataclass
class FiberSamples:
    """Per-dual-point value rows of a transformed vector, shape (points, channels)."""

    sampling: DualSampling
    values: np.ndarray


def _check_grid_support(v: GroupVector) -> None:
    group = v.space.group
    window = v.support_window()
    if window is None:
        return
    width = window[1] - window[0] + 1
    if 2 * width > group.grid_size:
        raise SupportExceedsGrid(
            f"support width {width} needs a grid of at least {2 * width} points, "
            f"got {group.grid_size}"
        )


def fourier(v: GroupVector) -> FiberSamples:
    """Transform a vector to the dual sampling.

    Exact mode: vhat(gamma) = |G|^{-1/2} sum_g v(g) conj(gamma(g)) per
    channel (unitary).  Shift mode: vhat(omega) = sum_n v(n) omega^{-n},
    evaluated exactly at the grid points (no normalization).
    """
    space = v.space
    sampling = dual_sampling(space)
    group = space.group
    if isinstance(group, FiniteAbelian):
        return FiberSamples(sampling, dft(group, v.dense()))
    _check_grid_support(v)
    values = np.zeros((group.grid_size, space.channels), dtype=np.complex128)
    if v.coeffs:
        supports = sorted({g for g, _ in v.coeffs})
        coeff = np.zeros((len(supports), space.channels), dtype=np.complex128)
        pos = {g: i for i, g in enumerate(supports)}
        for (g, c), val in v.coeffs.items():
            coeff[pos[g], c] = val
        n = group.grid_size
        # reduce t * g mod n in integers, so far-out supports keep accurate phases
        exponents = np.outer(np.arange(n), [g % n for g in supports]) % n
        phases = np.exp(-2j * np.pi * exponents / n)
        values = phases @ coeff
    return FiberSamples(sampling, values)


def inverse_fourier(f: FiberSamples, space: SystemSpace) -> GroupVector:
    """Invert the unitary transform; exact mode only."""
    group = space.group
    if not isinstance(group, FiniteAbelian):
        raise ExactModeRequired("sampled fibers have no exact inverse transform")
    return from_dense(space, idft(group, f.values))


def translate(g, v: GroupVector) -> GroupVector:
    """Left translation: the coefficient at h moves to g*h (unitary)."""
    group = v.space.group
    if isinstance(group, FiniteAbelian):  # a roll over the cyclic axes
        shift, axes = group.canonical(g), tuple(range(len(group.orders)))
        moved = (np.roll(a.reshape(group.orders + (-1,)), shift, axes).reshape(a.shape)
                 for a in (v.dense(), v.support_mask()))
        return GroupVector._exact(v.space, *moved)
    return GroupVector(
        v.space,
        {(group.compose(g, e), c): val for (e, c), val in v.coeffs.items()},
    )


def modulate(g, f: FiberSamples) -> FiberSamples:
    """Transform-side action of translation: multiply each fiber by gamma(g^-1).

    With the forward transform summing v(h) conj(gamma(h)), translating by g
    multiplies the fiber at gamma by conj(gamma(g)), i.e. by the character
    value at the inverse element.
    """
    weights = np.array([p.evaluate(g) for p in f.sampling.points]).conj()
    return FiberSamples(f.sampling, np.asarray(f.values) * weights[:, None])


def convolve(group: GroupSpec, a: Mapping, b: Mapping) -> dict:
    """(a * b)(g) = sum_m a(m) b(g m^{-1}) for finitely supported sequences."""
    out: dict = {}
    for ga, va in a.items():
        for gb, vb in b.items():
            key = group.compose(ga, gb)
            out[key] = out.get(key, 0j) + complex(va) * complex(vb)
    return out

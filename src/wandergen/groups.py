"""Discrete abelian groups, dual characters, and the unitary Fourier calculus.

Two group models are supported:

* ``FiniteAbelian`` -- a direct product of cyclic groups.  The dual group is
  enumerated completely (exact mode); the transform is the unitary DFT with
  1/sqrt(|G|) normalization, computed by ``np.fft.fftn(norm="ortho")`` over
  the cyclic axes, so Parseval holds to machine precision.
* ``IntegerShift`` -- the shift group Z.  The dual torus is sampled at the
  ``grid_size``-th roots of unity (sampled mode).  By Poisson summation the
  grid values are the unnormalized length-N DFT of the periodization mod N,
  computed by ``np.fft.fft``: no quadrature error.

Group elements are canonical integer tuples (finite case) or plain integers
(shift case); there is no abstract element interface, which keeps
serialization bit-exact.  A coordinate must be an integer (a Python or
numpy integer, not a bool); anything else raises ``ValueError``.

The dual group is indexed by the space itself: point p is the p-th element
multi-index (exact mode) or the grid angle 2*pi*p/N (shift mode), and
``SystemSpace.points`` counts them.

A ``GroupVector`` stores a start, a read-only (window, channels) complex
array and a boolean support mask: the stored coefficients are the masked
cells, so a parsed sparse member keeps its explicit zeros.  An exact-mode
window is the whole group, by element index, from start 0.  A shift-mode
window runs from the smallest to the largest stored position; its start is
a Python int, so positions beyond int64 work.  A window wider than the grid
could never be transformed, so it raises ``SupportExceedsGrid`` before it
is allocated.  ``coeffs`` is a read-only mapping built from the arrays, in
window, then channel order.  Each family is transformed once, its members
stacked (``_transform``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
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
    "dft",
    "idft",
    "delta",
    "from_dense",
    "fourier",
    "inverse_fourier",
    "translate",
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
        g = tuple(_coordinate(x) for x in (g if isinstance(g, Iterable) else (g,)))
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
    fiber evaluation for wider supports is rejected as alias-prone, and a
    vector wider than the grid is not stored at all.
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
        return _coordinate(g)

    def compose(self, g, h) -> int:
        return _coordinate(g) + _coordinate(h)

    def inverse(self, g) -> int:
        return -_coordinate(g)


def _coordinate(x) -> int:
    """A group coordinate as a Python int: a Python or numpy integer, never a bool."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"group coordinates must be integers, got {x!r}")


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

    @property
    def points(self) -> int:
        """The number of dual points: |G| (exact mode) or the grid size."""
        return self.group.order if self.exact else self.group.grid_size


class GroupVector:
    """Finitely supported coefficients over (group element, channel).

    Channels are 0-based indices below ``space.channels``.  Instances are
    value objects; arithmetic returns new vectors.  ``coeffs`` is a
    read-only mapping of the stored coefficients (see the module docstring).
    """

    __slots__ = ("space", "_start", "_values", "_mask")

    def __init__(self, space: SystemSpace, coeffs: Mapping | Iterable = ()):
        items = list(coeffs.items() if isinstance(coeffs, Mapping) else coeffs)
        channels = [int(c) for (_, c), _ in items]
        for c in channels:
            if not 0 <= c < space.channels:
                raise ValueError(f"channel {c} outside 0..{space.channels - 1}")
        elements = (space.group.canonical(g) for (g, _), _ in items)
        coords = list(itertools.chain.from_iterable(elements)) if space.exact else list(elements)
        self.space = space
        self._values, self._mask, self._start = _storage(space, coords, channels, [complex(x) for _, x in items])

    @classmethod
    def _adopt(cls, space: SystemSpace, values: np.ndarray, mask: np.ndarray, start: int = 0) -> "GroupVector":
        """Adopt (window, channels) arrays as is, the window starting at
        ``start`` (0 in exact mode); zero outside ``mask``."""
        v = cls.__new__(cls)
        v.space, v._start, v._values, v._mask = space, start, values, mask
        values.flags.writeable = mask.flags.writeable = False
        return v

    @property
    def _stop(self) -> int:
        return self._start + len(self._values)

    @property
    def coeffs(self) -> Mapping:
        # built from the arrays on access, by element index (exact) or position, then channel
        space = self.space
        rows = space.group.elements() if space.exact else range(self._start, self._stop)
        items = zip(itertools.product(rows, range(space.channels)), self._values.reshape(-1).tolist())
        return MappingProxyType(dict(itertools.compress(items, self._mask.flat)))

    def norm(self) -> float:
        return math.sqrt(self.inner(self).real)

    def inner(self, other: "GroupVector") -> complex:
        """<self, other>, conjugate-linear in ``other``: a sum over the
        cells stored in both vectors."""
        lo = max(self._start, other._start)
        hi = max(lo, min(self._stop, other._stop))  # hi = lo: no overlap
        mine, theirs = slice(lo - self._start, hi - self._start), slice(lo - other._start, hi - other._start)
        both = self._mask[mine] & other._mask[theirs]  # a cell stored in one only is no term, even as 0 * inf
        return complex(np.vdot(other._values[theirs], np.where(both, self._values[mine], 0)))

    def support_window(self) -> tuple[int, int] | None:
        """(min, max) support indices for shift-mode vectors; None when empty."""
        if not isinstance(self.space.group, IntegerShift):
            raise ValueError("support_window is a shift-mode notion")
        return (self._start, self._stop - 1) if len(self._values) else None

    def dense(self) -> np.ndarray:
        """The stored dense (|G|, channels) array, read-only; exact mode only."""
        if not self.space.exact:
            raise ExactModeRequired("dense coefficients exist only for finite groups")
        return self._values

    def support_mask(self) -> np.ndarray:
        """Read-only (|G|, channels) mask of the stored cells; exact mode only."""
        self.dense()
        return self._mask

    def _padded(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and mask on the window [start, stop), which holds this one's."""
        if (start, stop) == (self._start, self._stop):
            return self._values, self._mask
        values = np.zeros((stop - start, self.space.channels), dtype=np.complex128)
        mask = np.zeros(values.shape, dtype=bool)
        at = slice(self._start - start, self._stop - start)
        values[at], mask[at] = self._values, self._mask
        return values, mask

    def __add__(self, other: "GroupVector") -> "GroupVector":
        if other.space != self.space:
            raise ValueError("mismatched system spaces")
        # the union window of the nonempty ones; exact-mode windows are all the whole group
        windows = [(v._start, v._stop) for v in (self, other) if len(v._values)] or [(0, 0)]
        start, stop = min(lo for lo, _ in windows), max(hi for _, hi in windows)
        if isinstance(self.space.group, IntegerShift):
            _check_width(self.space.group, stop - start, self.space.group.grid_size)
        (a, a_mask), (b, b_mask) = self._padded(start, stop), other._padded(start, stop)
        return GroupVector._adopt(self.space, a + b, a_mask | b_mask, start)

    def __sub__(self, other: "GroupVector") -> "GroupVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "GroupVector":
        # only stored cells are scaled: 0 * inf would put nan in the others
        values = np.multiply(complex(scalar), self._values, where=self._mask, out=np.zeros_like(self._values))
        return GroupVector._adopt(self.space, values, self._mask, self._start)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupVector) or other.space != self.space:
            return False
        return (
            other._start == self._start
            and np.array_equal(other._mask, self._mask)
            and np.array_equal(other._values, self._values)
        )

    def __repr__(self) -> str:
        return f"GroupVector({np.count_nonzero(self._mask)} coeffs over {self.space.group})"


def _check_width(group: IntegerShift, width: int, limit: int) -> None:
    """Raise SupportExceedsGrid when a support ``width`` wide exceeds ``limit``:
    the grid size to be stored, half of it to be transformed."""
    if width > limit:
        raise SupportExceedsGrid(
            f"support width {width} needs a grid of at least {2 * width} points, "
            f"got {group.grid_size}"
        )


def _storage(space: SystemSpace, coords: list, channels: list, values) -> tuple[np.ndarray, np.ndarray, int]:
    """(values, mask, start) of a vector from its columns, duplicates summed in input order.
    ``coords`` holds each element's integer coordinates in turn: reduced here (exact mode), or
    a position (shift mode, where a window wider than the grid raises before it is allocated)."""
    group = space.group
    if space.exact:  # the window is the whole group, rows in element index order
        start, width, orders = 0, group.order, group.orders
        try:
            coords = np.array(coords, dtype=np.int64)
        except OverflowError:  # a coordinate beyond int64: reduce it in Python first
            coords = np.array([x % orders[i % len(orders)] for i, x in enumerate(coords)], dtype=np.int64)
        rows = np.ravel_multi_index(tuple(coords.reshape(-1, len(orders)).T), orders, mode="wrap")
    else:  # the window runs from the smallest to the largest stored position
        start = min(coords, default=0)
        width = max(coords, default=start - 1) + 1 - start
        _check_width(group, width, group.grid_size)
        rows = np.array([g - start for g in coords], dtype=np.int64)
    flat = rows * space.channels + np.array(channels, dtype=np.int64)
    dense = np.zeros((width, space.channels), dtype=np.complex128)
    with np.errstate(all="ignore"):  # a sum may overflow, as Python floats do, without a warning
        np.add.at(dense.reshape(-1), flat, np.asarray(values, dtype=np.complex128))
    mask = (np.bincount(flat, minlength=dense.size) > 0).reshape(dense.shape)  # a cell some entry lands in
    dense.flags.writeable = mask.flags.writeable = False
    return dense, mask, start


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
    return GroupVector._adopt(space, dense, np.broadcast_to(np.True_, dense.shape))


def _over_cyclic_axes(transform, group: FiniteAbelian, a: np.ndarray) -> np.ndarray:
    # the lexicographic element order is the C order of an (n_1, ..., n_k) array
    a = np.asarray(a)
    cyclic = a.reshape(group.orders + a.shape[1:])
    axes = tuple(range(len(group.orders)))
    return transform(cyclic, axes=axes, norm="ortho").reshape(a.shape)


def dft(group: FiniteAbelian, a: np.ndarray) -> np.ndarray:
    """Unitary transform along the first axis of a (|G|, ...) array:
    out[p] = |G|^{-1/2} sum_e conj(gamma_p(e)) a[e]."""
    return _over_cyclic_axes(np.fft.fftn, group, a)


def idft(group: FiniteAbelian, a: np.ndarray) -> np.ndarray:
    """Inverse of ``dft`` along the first axis of a (|G|, ...) array."""
    return _over_cyclic_axes(np.fft.ifftn, group, a)


def _transform(space: SystemSpace, members) -> np.ndarray:
    """The members' fibers, stacked (points, channels, members).

    Each member's window is scattered to rows (start + i) mod n of one
    (n, channels, members) array, which is transformed once along its first
    axis.  Exact mode: n = |G|, each window is the whole group and the
    transform is ``dft``.  Shift mode: n is the grid size, the rows hold each
    member's periodization mod n, and by Poisson summation its unnormalized
    length-n DFT is the fiber at the grid points.  A shift-mode support wider
    than half the grid is rejected as alias-prone.
    """
    group, n = space.group, space.points
    stack = np.zeros((n, space.channels, len(members)), dtype=np.complex128)
    for j, v in enumerate(members):
        width = len(v._values)
        if not space.exact:
            _check_width(group, width, n // 2)
        # the start is reduced mod n in integers; a window (width <= n) wraps at most once
        at = v._start % n
        head = min(width, n - at)
        stack[at:at + head, :, j], stack[:width - head, :, j] = v._values[:head], v._values[head:]
    return dft(group, stack) if space.exact else np.fft.fft(stack, axis=0)


def fourier(v: GroupVector) -> np.ndarray:
    """The (points, channels) transform of a vector at the space's dual points.

    Exact mode: vhat(gamma) = |G|^{-1/2} sum_g v(g) conj(gamma(g)) per
    channel (unitary).  Shift mode: vhat(omega) = sum_n v(n) omega^{-n}
    at the grid points (no normalization).
    """
    return _transform(v.space, (v,))[:, :, 0]


def inverse_fourier(f: np.ndarray, space: SystemSpace) -> GroupVector:
    """Invert the unitary transform of a (|G|, channels) array; exact mode only."""
    group = space.group
    if not isinstance(group, FiniteAbelian):
        raise ExactModeRequired("sampled fibers have no exact inverse transform")
    return from_dense(space, idft(group, f))


def translate(g, v: GroupVector) -> GroupVector:
    """Left translation: the coefficient at h moves to g*h (unitary)."""
    group = v.space.group
    if isinstance(group, FiniteAbelian):  # a roll over the cyclic axes
        shift, axes = group.canonical(g), tuple(range(len(group.orders)))
        moved = (np.roll(a.reshape(group.orders + (-1,)), shift, axes).reshape(a.shape)
                 for a in (v.dense(), v.support_mask()))
        return GroupVector._adopt(v.space, *moved)
    # shift mode: the window moves; an empty vector keeps start 0
    shift = group.canonical(g)
    return GroupVector._adopt(v.space, v._values, v._mask, v._start + shift if len(v._values) else 0)

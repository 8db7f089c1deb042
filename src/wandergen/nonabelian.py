"""Finite (possibly non-abelian) groups: regular representations,
intertwiners, cancellation, and the dense wandering complement.

Groups are ingested as Cayley tables over indices 0..n-1, with built-in
constructors for cyclic groups, direct products, the symmetric group on
three letters (every permutation of three points), the dihedral group of
the square (the permutations of its corners that keep its edges), and the
quaternion group.  Equivalence of representations is detected through
characters (valid for finite groups).  ``are_equivalent`` witnesses it by
an explicit unitary intertwiner: a generic element of the intertwiner
space is drawn by group-averaging a seeded Gaussian matrix, and its
unitary polar factor is returned.  ``cancel`` decides its hypotheses by
dimensions and character sums alone (the character of sigma1 + sigma2 is
chi1 + chi2, so no direct sum is built) and builds a witness only for its
conclusion.

``wandering_complement_general`` orthonormalizes an orbit (Loewdin's
symmetric step in the group algebra). W, the orthocomplement of the span of
X's orbit O_X, is lambda-invariant and equivalent to the (|Y| - |X|)-multiple
regular representation (cancellation), so the orbit O_Z of seeded columns
Z = R - O_X O_X^H R generically spans W. Its Gram H reads (g, h) only through
g^-1 h, so H^(-1/2) commutes with the block permutations (g, i) -> (kg, i),
and O_Z H^(-1/2), an orthonormal basis of W, is the orbit of its identity
block X'. Seeds with cond(O_Z) > ``_COND_LIMIT`` are skipped; none passing,
or an orbit of [X | X'] not orthonormal to ``tol``, is a ``GenericityFailure``.

A ``FiniteGroup`` is proven a group once, when it is built, at every order
(associativity by Light's test on its generators), and everything downstream
trusts that proof. A ``Representation`` is validated once, when it is built
from outside matrices (identity, unitarity and the homomorphism property, to
``defaults.TOL_REPRESENTATION`` = 1e-10), and holds a read-only copy of them
afterwards. ``direct_sum`` and ``regular_representation`` carry the proof
instead of re-checking: a block-diagonal sum of representations is one, and
the left-translation matrices of an associative Cayley table form one.

Validation is proven from the generators' rows. Write E = rho(e) - I,
W_g = rho(g)^H rho(g) - I, Delta(s, x) = rho(s) rho(x) - rho(sx) for a
generator s, and D for the word depth of ``generators()`` (the longest
left-nested word its elements need). tau = 4 (d + 2) machine-eps bounds the
rounding of one entry of a computed d x d complex product of matrices of
norm about 1, with room for the subtraction and abs that follow: eight
times gamma_(d+2) of Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, section 3.5. The generator rows are computed as
the full check computes them, and delta, their largest Frobenius norm plus
d tau, bounds every ||Delta(s, x)||_2.

* Unitarity. y = s x gives rho(y) = P - Delta with P = rho(s) rho(x), so
  W_y = W_x + rho(x)^H W_s rho(x) - P^H Delta - Delta^H P + Delta^H Delta
  and, for w_s >= every ||W_s||_2,
  ||W_y||_2 <= ||W_x||_2 + w_s (1 + ||W_x||_2)
               + 2 sqrt((1 + w_s)(1 + ||W_x||_2)) delta + delta^2.
  w_s is the largest Frobenius norm of a computed W_s plus d tau (g
  products of size d x d). The words of length <= 1 start the induction at
  w = max(w_s, 2 ||E||_F + ||E||_F^2), D - 1 steps of it bound every
  ||W_g||_2 by w, and u = w + tau bounds every entry of the all-element
  check |rho(g)^H rho(g) - I|.
* Identity row. Each entry of rho(e) rho(x) - rho(x) = E rho(x) is at most
  ||E||_F sqrt(1 + u + tau) + tau as computed, since the columns of rho(x)
  have squared norms 1 + (W_x)_jj.
* Homomorphism. With e(a, b) = rho(a) rho(b) - rho(ab), a = s a' gives
  e(a, b) = rho(s) e(a', b) - Delta(s, a') rho(b) + Delta(s, a'b), so for
  a != e, ||e(a, b)||_2 <= (2 + delta') D (1 + delta')^(D-1) delta, where
  (1 + delta')^2 = 1 + d (u + tau) bounds ||rho(g)||_2^2. The word bound
  is that plus tau.

Each bound is a proof while the bounds stay at most 1, which acceptance at
1e-10 implies, and each grows with u. When u, the identity-row bound and
the word bound are each at most 1e-10 (every generator row passing), no
entry the three checks compute can exceed 1e-10 and none of them runs. A
step that falls short, NaN included, runs its check as computed: the
all-element unitarity product, the identity row, then the full |G|^2 check,
in that order, so verdicts and messages are those of the checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg
from .defaults import TOL_BIO_EXACT, TOL_REPRESENTATION
from .errors import GenericityFailure, HypothesisFailure
from .groups import FiniteAbelian

__all__ = [
    "FiniteGroup",
    "Representation",
    "Intertwiner",
    "ClassFunction",
    "cyclic_group",
    "direct_product",
    "symmetric_3",
    "dihedral_4",
    "quaternion_8",
    "from_abelian",
    "regular_representation",
    "direct_sum",
    "character",
    "character_inner",
    "intertwiner_basis",
    "are_equivalent",
    "cancel",
    "wandering_complement_general",
]

class FiniteGroup:
    """A finite group presented by its Cayley table (element indices 0..n-1).

    The constructor proves the table is a group, at every order: Latin-square
    rows and columns, a two-sided identity, inverses, and associativity by
    Light's test on ``generators()``. The set of s with (ab)s = a(bs) for
    every a and b holds the identity and is closed under products, since
    (ab)(st) = ((ab)s)t = (a(bs))t = a((bs)t) = a(b(st)) when s and t are in
    it; every element is a left-nested word in the generators, so checking
    the generators checks every s, in n^2 * |generators| comparisons.
    """

    __slots__ = ("table", "order", "identity", "inverse_table", "name", "_classes", "_gens", "_depth")

    def __init__(self, table, name: str = "G"):
        table = tuple(map(tuple, table))
        if not all(isinstance(x, int) and not isinstance(x, bool) for row in table for x in row):
            raise ValueError("Cayley table entries must be integers")
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValueError("Cayley table must be square and nonempty")
        cells = np.array([[x if 0 <= x < n else -1 for x in row] for row in table])  # -1: outside 0..n-1
        elements = np.arange(n)
        if not (np.sort(cells, axis=1) == elements).all():
            raise ValueError("Cayley table rows must permute 0..n-1")
        if not (np.sort(cells, axis=0) == elements[:, None]).all():
            raise ValueError("Cayley table columns must permute 0..n-1")
        identities = np.flatnonzero((cells == elements).all(axis=1) & (cells.T == elements).all(axis=1))
        if identities.size == 0:
            raise ValueError("Cayley table has no two-sided identity")
        identity = int(identities[0])
        # rows are permutations, so a has one right inverse; it must be a left one too
        inverse = np.argmax(cells == identity, axis=1)
        missing = np.flatnonzero(cells[inverse, elements] != identity)
        if missing.size:
            raise ValueError(f"element {missing[0]} has no inverse")
        self.table, self.order, self.identity, self.name = table, n, identity, name
        self.inverse_table = tuple(inverse.tolist())
        # element orders by one power walk p -> p x: a -> a x permutes the
        # elements, so every walk returns to the identity within n steps
        orders, power, k = np.zeros(n, dtype=np.intp), elements, 1
        while not orders.all():
            orders[(power == identity) & (orders == 0)] = k
            power, k = cells[power, elements], k + 1
        # greedy generators by descending order, then element index; the last
        # search gives the word depth
        gens, closure, depth = [], {identity}, 0
        for g in np.lexsort((elements, -orders)).tolist():
            if g not in closure:
                gens.append(g)
                closure, depth = self._search(gens)
        s = np.array(gens, dtype=np.intp)
        # Light's test: [a, b, s] -> (ab)s against a(bs)
        if not (cells[cells[:, :, None], s] == cells[elements[:, None, None], cells[:, s]]).all():
            raise ValueError("Cayley table is not associative at ({}, {}, {})".format(*_first_nonassociative(cells)))
        self._gens, self._depth = tuple(gens), depth
        # [h, g] -> h g h^-1; each class is named by its smallest element
        name_of = cells[cells, inverse[:, None]].min(axis=0)
        by_class = np.argsort(name_of, kind="stable")
        bounds = np.flatnonzero(np.diff(name_of[by_class])) + 1
        self._classes = tuple(tuple(c.tolist()) for c in np.split(by_class, bounds))

    def compose(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inverse_table[a]

    def elements(self) -> range:
        return range(self.order)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted tuples, ordered by their smallest element."""
        return self._classes

    def generators(self) -> tuple[int, ...]:
        """Greedy generating set: elements by descending order, then element
        index, each kept when outside the subgroup the ones kept before it
        generate. It need not be irredundant (in S3 x S3 one of the three lies
        in the subgroup of the other two), but each kept element at least
        doubles that subgroup (Lagrange), so it has at most log2 |G| elements."""
        return self._gens

    def _word_depth(self) -> int:
        """Longest word needed in ``generators()``."""
        return self._depth

    def _search(self, gens) -> tuple[set, int]:
        """Breadth-first search from the identity along a -> table[a][s]:
        the subgroup ``gens`` generate, and the number of levels past the identity."""
        seen, level, depth = {self.identity}, {self.identity}, 0
        while level := {self.table[a][s] for a in level for s in gens} - seen:
            seen |= level
            depth += 1
        return seen, depth

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _first_nonassociative(table: np.ndarray) -> tuple[int, int, int] | None:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or None.

    ``table`` is an (n, n) integer Cayley table; the test holds n^2 entries,
    one a at a time.
    """
    n = table.shape[0]
    for a in range(n):
        bad = np.flatnonzero(table[table[a]] != table[a][table])  # [b, c] -> (ab)c, a(bc)
        if bad.size:
            return (a, *divmod(int(bad[0]), n))
    return None


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Pairs (x, y) at index x * |b| + y, multiplied componentwise."""
    ta, tb = np.array(a.table), np.array(b.table)
    table = ta[:, None, :, None] * b.order + tb[None, :, None, :]
    return FiniteGroup(table.reshape(a.order * b.order, -1).tolist(), name=f"{a.name}x{b.name}")


def from_abelian(spec: FiniteAbelian) -> FiniteGroup:
    """Cayley-table form of a finite abelian group, indices matching the
    lexicographic element enumeration."""
    els = spec.elements()
    table = [[spec.index_of(spec.compose(g, h)) for h in els] for g in els]
    return FiniteGroup(table, name="x".join(f"Z{n}" for n in spec.orders))


def _permutation_group(perms, name: str) -> FiniteGroup:
    """A group of permutations (tuples of images), elements sorted
    lexicographically, with (pq)(i) = p(q(i))."""
    ordered = sorted(perms)
    index = {p: i for i, p in enumerate(ordered)}
    return FiniteGroup([[index[tuple(p[i] for i in q)] for q in ordered] for p in ordered], name=name)


def symmetric_3() -> FiniteGroup:
    return _permutation_group(itertools.permutations(range(3)), name="S3")


def dihedral_4() -> FiniteGroup:
    """The permutations of the square's corners 0-1-2-3 that map each edge to an edge."""
    square = [p for p in itertools.permutations(range(4))
              if all((p[i] - p[i - 1]) % 4 in (1, 3) for i in range(4))]
    return _permutation_group(square, name="D4")


def quaternion_8() -> FiniteGroup:
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k."""
    # the unit quaternions as 2x2 complex matrices; their products are exact
    one, i, j = np.eye(2), np.array([[1j, 0], [0, -1j]]), np.array([[0, 1], [-1, 0]])
    units = np.array([sign * u for u in (one, i, j, i @ j) for sign in (1, -1)])
    products = units[:, None] @ units[None]
    table = (products[:, :, None] == units).all(axis=(-2, -1)).argmax(axis=-1)
    return FiniteGroup(table.tolist(), name="Q8")


@dataclass(frozen=True)
class Representation:
    """Unitary matrices indexed by group element.

    The constructor checks the matrices and keeps a read-only copy of them.
    """

    group: FiniteGroup
    matrices: np.ndarray  # (|G|, d, d), read-only

    def __post_init__(self):
        mats = np.array(self.matrices, dtype=np.complex128)
        if mats.shape[0] != self.group.order or mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected ({self.group.order}, d, d) matrices, got {mats.shape}")
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        d = mats.shape[1]
        if d == 0:
            return
        group, passes = self.group, lambda value: _linalg.within(value, TOL_REPRESENTATION)
        if not passes(_linalg.identity_deviation(mats[group.identity])):
            raise ValueError("matrix at the identity is not the identity")
        E = np.abs(mats[group.identity] - np.eye(d))
        e = np.sqrt(np.sum(E * E))  # ||rho(e) - I||_F
        norm = _generator_row_norm(group, mats)
        unitarity = _unitarity_bound(group, mats, e, norm)
        if not passes(unitarity):
            unitarity = _unitarity_residual(mats)
            if not passes(unitarity):
                raise ValueError("representation matrices are not unitary")
        identity_row = _identity_row_bound(e, unitarity, d)
        if not passes(identity_row):
            identity_row = np.max(np.abs(_homomorphism_residual(group, mats, group.identity)))
        if not (passes(identity_row) and passes(_word_bound(group, mats, unitarity, norm))):
            _check_homomorphism(group, mats)

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])

    @cached_property
    def _character(self) -> ClassFunction:
        """``character(self)``, computed once: the trace at each class's
        smallest element, after one constancy test over every element."""
        classes = self.group.conjugacy_classes()
        names = [cls[0] for cls in classes]
        traces = np.trace(self.matrices, axis1=1, axis2=2)
        labels = np.repeat(names, [len(cls) for cls in classes])
        spread = np.abs(traces[np.concatenate(classes)] - traces[labels])
        if not _linalg.within(spread, TOL_REPRESENTATION).all():
            raise HypothesisFailure("trace is not constant on a conjugacy class")
        return ClassFunction(self.group, tuple(traces[names].tolist()))


def _tau(d: int) -> float:
    """Entrywise rounding bound of a computed d x d complex product (module docstring)."""
    return 4 * (d + 2) * np.finfo(np.float64).eps


def _homomorphism_residual(group: FiniteGroup, mats: np.ndarray, a: int) -> np.ndarray:
    """rho(a) rho(b) - rho(ab) for every b, as the full check computes it."""
    return mats[a] @ mats - mats[list(group.table[a])]


def _check_homomorphism(group: FiniteGroup, mats: np.ndarray) -> None:
    """The full check: every row a, raising for the first that fails."""
    for a in group.elements():
        if not _linalg.within(np.max(np.abs(_homomorphism_residual(group, mats, a))), TOL_REPRESENTATION):
            raise ValueError(f"homomorphism property fails at element {a}")


def _unitarity_residual(mats: np.ndarray) -> float:
    """The all-element check: the largest entry of |rho(g)^H rho(g) - I|."""
    return _linalg.identity_deviation(mats.conj().transpose(0, 2, 1) @ mats)


def _generator_row_norm(group: FiniteGroup, mats: np.ndarray) -> float:
    """Largest Frobenius norm of rho(s) rho(b) - rho(sb) over the generators s
    and every b, each row computed as the full check computes it; inf when a
    row fails that check (an entry above 1e-10, or NaN)."""
    norm2 = 0.0
    for s in group.generators():
        row = np.abs(_homomorphism_residual(group, mats, s))
        if not _linalg.within(np.max(row), TOL_REPRESENTATION):
            return np.inf
        norm2 = max(norm2, np.max(np.sum(row * row, axis=(1, 2))))
    return np.sqrt(norm2)


def _unitarity_bound(group: FiniteGroup, mats: np.ndarray, e: float, norm: float) -> float:
    """Bound on every entry the all-element unitarity check computes, from
    e = ||rho(e) - I||_F, the generators and their rows' largest Frobenius
    ``norm`` (module docstring); NaN or inf when unproven."""
    d = mats.shape[1]
    tau = _tau(d)
    gens = mats[list(group.generators())]
    W = np.abs(gens.conj().transpose(0, 2, 1) @ gens - np.eye(d))
    w_s = np.sqrt(np.max(np.sum(W * W, axis=(1, 2)), initial=0.0)) + d * tau
    delta = norm + d * tau
    w = np.maximum(w_s, 2 * e + e * e)  # the words of length <= 1
    for _ in range(group._word_depth() - 1):
        w += w_s * (1 + w) + 2 * np.sqrt((1 + w_s) * (1 + w)) * delta + delta * delta
    return w + tau


def _identity_row_bound(e: float, unitarity: float, d: int) -> float:
    """Bound on every entry of the identity's row rho(e) rho(x) - rho(x) as
    the full check computes it, from e = ||rho(e) - I||_F and a bound
    ``unitarity`` on the unitarity check's entries (module docstring)."""
    tau = _tau(d)
    return e * np.sqrt(1 + unitarity + tau) + tau


def _word_bound(group: FiniteGroup, mats: np.ndarray, unitarity: float, norm: float) -> float:
    """Bound on every entry the full check computes in the rows a != e, from
    a bound ``unitarity`` on the unitarity check's entries and the generator
    rows' largest Frobenius ``norm``; inf when a generator row fails (module
    docstring)."""
    d = mats.shape[1]
    tau = _tau(d)
    depth, grow = group._word_depth(), np.sqrt(1 + d * (unitarity + tau))
    return (1 + grow) * depth * grow ** (depth - 1) * (norm + d * tau) + tau


def _proven(group: FiniteGroup, mats: np.ndarray) -> Representation:
    """Wrap (|G|, d, d) complex matrices already known to form a unitary
    representation of ``group``, read-only, without the constructor's checks."""
    mats.flags.writeable = False
    rep = object.__new__(Representation)
    object.__setattr__(rep, "group", group)
    object.__setattr__(rep, "matrices", mats)
    return rep


def _require_one_group(group: FiniteGroup, *reps: Representation) -> None:
    """Raise ValueError unless every representation acts on ``group``'s table."""
    if any(r.group is not group and r.group.table != group.table for r in reps):
        raise ValueError("summands must share one group")


def direct_sum(*reps: Representation) -> Representation:
    """Block-diagonal sum; zero-dimensional summands are legal and vanish."""
    if not reps:
        raise ValueError("need at least one summand")
    group = reps[0].group
    _require_one_group(group, *reps[1:])
    d = sum(r.dim for r in reps)
    mats = np.zeros((group.order, d, d), dtype=np.complex128)
    offset = 0
    for r in reps:
        mats[:, offset:offset + r.dim, offset:offset + r.dim] = r.matrices
        offset += r.dim
    return _proven(group, mats)


def regular_representation(group: FiniteGroup, multiplicity: int = 1) -> Representation:
    """N block copies of the left-translation permutation matrices.

    The realization index is (element * N + block), matching the dense
    layout of exact-mode coefficient vectors with N channels. The matrices
    are exact permutations, and L_a L_b = L_ab exactly because the table is
    associative, which ``FiniteGroup`` proved; nothing is re-checked.
    """
    if multiplicity < 0:
        raise ValueError("multiplicity must be >= 0")
    n, N = group.order, multiplicity
    table = np.array(group.table, dtype=np.intp)
    # row (gh, b) of L_g reads column (h, b)
    g, h, b = np.arange(n)[:, None, None], np.arange(n)[None, :, None], np.arange(N)
    mats = np.zeros((n, n, N, n, N), dtype=np.complex128)
    mats[g, table[:, :, None], b, h, b] = 1.0
    return _proven(group, mats.reshape(n, n * N, n * N))


@dataclass(frozen=True)
class ClassFunction:
    """Values of a class function, one per conjugacy class (canonical order)."""

    group: FiniteGroup
    values: tuple[complex, ...]

    def agrees(self, other: "ClassFunction", tol: float = TOL_BIO_EXACT) -> bool:
        if len(self.values) != len(other.values):
            return False
        return all(_linalg.within(abs(a - b), tol) for a, b in zip(self.values, other.values))


def character(rho: Representation) -> ClassFunction:
    """Traces of the representation, constant on conjugacy classes; computed
    once per representation."""
    return rho._character


def character_inner(chi1: ClassFunction, chi2: ClassFunction) -> complex:
    """(1/|G|) sum_g chi1(g) conj(chi2(g)), via class sums."""
    group = chi1.group
    total = 0j
    for cls, a, b in zip(group.conjugacy_classes(), chi1.values, chi2.values):
        total += len(cls) * a * np.conj(b)
    return total / group.order


@dataclass(frozen=True)
class Intertwiner:
    """T with T rho(g) = sigma(g) T for all g."""

    matrix: np.ndarray
    residual: float
    seed: int | None = None
    unitary: bool = False


def _intertwining_residual(T: np.ndarray, rho: Representation, sigma: Representation) -> float:
    if T.size == 0:
        return 0.0
    return float(np.max(np.abs(T @ rho.matrices - sigma.matrices @ T)))


def intertwiner_basis(
    rho: Representation, sigma: Representation, tol: float = TOL_BIO_EXACT
) -> list[Intertwiner]:
    """Orthonormal (Frobenius) basis of {T : T rho(g) = sigma(g) T}.

    Equations are assembled for a generating set only; the solution space is
    the SVD null space, with its dimension cross-checked against the
    character inner product <chi_rho, chi_sigma>.
    """
    group = rho.group
    dr, ds = rho.dim, sigma.dim
    if dr * ds == 0:
        return []
    gens = group.generators()
    if gens:
        blocks = [
            np.kron(np.eye(ds), rho.matrices[g].T) - np.kron(sigma.matrices[g], np.eye(dr))
            for g in gens
        ]
        A = np.vstack(blocks)
        V, rank = _linalg.null_space_columns(A, tol)
        kernel = V[:, rank:].T
    else:
        kernel = np.eye(ds * dr, dtype=np.complex128)
    expected = round(float(np.real(character_inner(character(rho), character(sigma)))))
    if kernel.shape[0] != expected:
        raise ValueError(
            f"intertwiner space dimension {kernel.shape[0]} != character prediction {expected}"
        )
    basis = []
    for row in kernel:
        T = row.reshape(ds, dr)
        basis.append(Intertwiner(T, _intertwining_residual(T, rho, sigma)))
    return basis


# the seeded draws of are_equivalent and wandering_complement_general, and
# the largest condition number either accepts
_SEEDS = range(8)
_COND_LIMIT = 1e6


def are_equivalent(
    rho: Representation, sigma: Representation, tol: float = TOL_BIO_EXACT
) -> Intertwiner | None:
    """Unitary equivalence witness, or None when the characters rule it out.

    A generic intertwiner is drawn by group-averaging a seeded Gaussian
    matrix (the orthogonal projection of that matrix onto the intertwiner
    space, distributed like a random combination of an orthonormal basis of
    it); the witness is its unitary polar factor, which still intertwines.
    Seeds are retried while the draw is ill-conditioned.
    """
    if not (rho.dim == sigma.dim and character(rho).agrees(character(sigma), tol)):
        return None
    d = rho.dim
    if d == 0:
        return Intertwiner(np.zeros((0, 0), dtype=np.complex128), 0.0, None, unitary=True)
    if np.array_equal(rho.matrices, sigma.matrices):
        return Intertwiner(np.eye(d, dtype=np.complex128), 0.0, None, unitary=True)
    group = rho.group
    inv = [group.inverse(g) for g in group.elements()]
    for seed in _SEEDS:
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        T = np.mean(sigma.matrices @ R @ rho.matrices[inv], axis=0)
        W, s, Vh = np.linalg.svd(T)
        if s[-1] <= 0 or not _linalg.within(s[0] / s[-1], _COND_LIMIT):
            continue
        U = W @ Vh
        residual = _intertwining_residual(U, rho, sigma)
        if _linalg.within(residual, tol):
            return Intertwiner(U, residual, seed=int(seed), unitary=True)
    raise GenericityFailure(
        f"no well-conditioned intertwiner found in {len(_SEEDS)} seeded attempts"
    )


def cancel(
    rho: Representation,
    sigma1: Representation,
    sigma2: Representation,
    sigma3: Representation,
    tol: float = TOL_BIO_EXACT,
) -> Intertwiner:
    """Cancellation witness: sigma2 ~ sigma3 given rho ~ sigma1 + sigma2 and
    rho ~ sigma1 + sigma3, for rho a finite multiple of the regular
    representation (which makes its commutant finite and cancellation valid).
    The hypotheses are decided by dimensions and characters, each sum's
    character as chi1 + chi2; only sigma2 ~ sigma3 is witnessed.
    """
    group = rho.group
    _require_one_group(group, sigma1)
    # (dim rho / |G|) chi_lambda: dim rho at the identity, 0 elsewhere
    regular = tuple(rho.dim if group.identity in c else 0 for c in group.conjugacy_classes())
    if rho.dim % group.order or not character(rho).agrees(ClassFunction(group, regular), tol):
        raise HypothesisFailure("rho is not a finite multiple of the regular representation")
    for sigma, label in ((sigma2, "sigma2"), (sigma3, "sigma3")):
        _require_one_group(group, sigma)
        if rho.dim != sigma1.dim + sigma.dim or not character(rho).agrees(ClassFunction(sigma1.group, tuple(
                a + b for a, b in zip(character(sigma1).values, character(sigma).values))), tol):
            raise HypothesisFailure(f"rho is not equivalent to sigma1 + {label}")
    witness = are_equivalent(sigma2, sigma3, tol=tol)
    if witness is None:
        raise HypothesisFailure("complement characters disagree; inputs are inconsistent")
    return witness


def _orbit_matrix(group: FiniteGroup, multiplicity: int, columns: np.ndarray) -> np.ndarray:
    """Stack lambda(g) @ columns over all g, lexicographic in (g, column), for
    lambda the multiplicity-N regular representation: row (x, b) of block g
    is row (g^-1 x, b) of the columns, gathered without lambda's matrices."""
    n, N = group.order, multiplicity
    source = np.array(group.table, dtype=np.intp)[group.inverse_table, :].T  # [x, g] -> g^-1 x
    rows = source[:, None, :] * N + np.arange(N)[:, None]  # [x, b, g]
    return columns[rows].reshape(n * N, n * columns.shape[1])


def _orthonormal(M: np.ndarray, tol: float) -> bool:
    """max |M^H M - I| <= tol; NaN fails."""
    return _linalg.within(_linalg.identity_deviation(M.conj().T @ M), tol)


def wandering_complement_general(
    X: np.ndarray,
    Y: np.ndarray,
    group: FiniteGroup,
    multiplicity: int,
    tol: float = TOL_BIO_EXACT,
) -> np.ndarray:
    """Dense complement columns X' in the multiplicity-N regular realization.

    Y must be a complete wandering family (its orbit an orthonormal basis of
    the whole space) and X a wandering family. X' is built as the module
    docstring says; with X empty it is the standard wandering columns.
    """
    dim = group.order * multiplicity
    X = np.asarray(X, dtype=np.complex128).reshape(dim, -1)
    Y = np.asarray(Y, dtype=np.complex128).reshape(dim, -1)
    r, s = X.shape[1], Y.shape[1]
    if s != multiplicity:
        raise HypothesisFailure(
            f"a complete wandering family here has exactly {multiplicity} members, got {s}"
        )
    if not _orthonormal(_orbit_matrix(group, multiplicity, Y), tol):
        raise HypothesisFailure("Y's orbit is not an orthonormal basis")
    if r > s:
        raise HypothesisFailure(f"|X| = {r} exceeds |Y| = {s}")
    if r:
        orbit_x = _orbit_matrix(group, multiplicity, X)
        if not _orthonormal(orbit_x, tol):
            raise HypothesisFailure("X's orbit is not orthonormal")
    m = s - r
    if r == s or not r:  # no columns, or the standard ones: rows (e, b) of column b
        return np.eye(dim, m, -group.identity * m, dtype=np.complex128)
    block = slice(group.identity * m, (group.identity + 1) * m)
    for seed in _SEEDS:
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
        orbit_z = _orbit_matrix(group, multiplicity, R - orbit_x @ (orbit_x.conj().T @ R))
        w, V = np.linalg.eigh(orbit_z.conj().T @ orbit_z)
        if not (w[0] > 0 and _linalg.within(w[-1], _COND_LIMIT**2 * w[0])):
            continue
        Xp = orbit_z @ (V @ (V[block].conj().T / np.sqrt(w)[:, None]))  # O_Z H^(-1/2)[:, block]
        if not _orthonormal(_orbit_matrix(group, multiplicity, np.hstack([X, Xp])), tol):
            raise GenericityFailure("the orbit of X and its complement is not orthonormal")
        return Xp
    raise GenericityFailure(f"no well-conditioned complement found in {len(_SEEDS)} seeded attempts")

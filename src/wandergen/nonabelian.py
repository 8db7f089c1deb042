"""Finite (possibly non-abelian) groups: regular representations,
intertwiners, cancellation, and the dense wandering complement.

Groups are ingested as Cayley tables over indices 0..n-1, with built-in
constructors for cyclic groups, direct products, the symmetric group on
three letters, the dihedral group of the square, and the quaternion group.
Equivalence of representations is detected through characters (valid for
finite groups).  ``are_equivalent`` witnesses it by an explicit unitary
intertwiner: a generic element of the intertwiner space is drawn by
group-averaging a seeded Gaussian matrix, and its unitary polar factor is
returned.  ``cancel`` decides its two hypotheses by characters alone and
builds a witness only for its conclusion.

A ``Representation`` is validated once, when it is built from outside
matrices (identity, unitarity and the homomorphism property, to 1e-10), and
holds a read-only copy of them afterwards. ``direct_sum`` and
``regular_representation`` carry the proof instead of re-checking: a
block-diagonal sum of representations is one, and the left-translation
matrices of a Cayley table form one exactly when the table is associative,
which ``regular_representation`` checks in integers.

The homomorphism property is first proven on generators when the
constructor proved the table associative (order <= 24). With
e(a, b) = rho(a) rho(b) - rho(ab) and Delta(s, x) = rho(s) rho(x) - rho(sx),
a = s a' gives e(a, b) = rho(s) e(a', b) - Delta(s, a') rho(b) + Delta(s, a'b),
so over words of length <= D in ``generators()``
||e(a, b)||_2 <= (2 + delta) D (1 + delta)^(D-1) eps, where
(1 + delta)^2 = 1 + d (u + tau) bounds ||rho(g)||_2^2 by the unitarity
residual u, eps is the largest Frobenius norm of a generator's residual
plus d tau, and tau = 4 (d + 2) machine-eps bounds the entrywise rounding
of a d x d complex product. The identity and generator rows must pass the
full check as it computes them; then word bound + tau <= 1e-10 proves every
entry the full |G|^2 check would compute. Otherwise that check runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
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

# exhaustive associativity validation stays cheap up to this order
_ASSOC_CHECK_LIMIT = 24


class FiniteGroup:
    """A finite group presented by its Cayley table (element indices 0..n-1).

    The table is validated on construction: Latin-square rows and columns,
    a two-sided identity, inverses, and (for order <= 24) exhaustive
    associativity.
    """

    __slots__ = ("table", "order", "identity", "inverse_table", "name", "_classes", "_gens", "_depth")

    def __init__(self, table, name: str = "G"):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValueError("Cayley table must be square and nonempty")
        idx = set(range(n))
        for row in table:
            if set(row) != idx:
                raise ValueError("Cayley table rows must permute 0..n-1")
        for j in range(n):
            if {row[j] for row in table} != idx:
                raise ValueError("Cayley table columns must permute 0..n-1")
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("Cayley table has no two-sided identity")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == identity and table[b][a] == identity:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise ValueError(f"element {a} has no inverse")
        if n <= _ASSOC_CHECK_LIMIT:
            bad = _first_nonassociative(np.array(table, dtype=np.intp))
            if bad is not None:
                raise ValueError("Cayley table is not associative at ({}, {}, {})".format(*bad))
        self.table = table
        self.order = n
        self.identity = identity
        self.inverse_table = tuple(inverse)
        self.name = name
        self._classes = self._gens = self._depth = None

    def compose(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inverse_table[a]

    def elements(self) -> range:
        return range(self.order)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted tuples, ordered by smallest representative.

        The identity class always comes first.
        """
        if self._classes is None:
            seen = set()
            classes = []
            for g in range(self.order):
                if g in seen:
                    continue
                cls = sorted(
                    {self.table[self.table[h][g]][self.inverse_table[h]] for h in range(self.order)}
                )
                classes.append(tuple(cls))
                seen.update(cls)
            self._classes = tuple(classes)
        return self._classes

    def generators(self) -> tuple[int, ...]:
        """Greedy minimal generating set, deterministic by element index."""
        if self._gens is None:
            gens: list[int] = []
            closure = {self.identity}
            for g in range(self.order):
                if g in closure:
                    continue
                gens.append(g)
                closure = self._closure(gens)
                if len(closure) == self.order:
                    break
            self._gens = tuple(gens)
        return self._gens

    def _word_depth(self) -> int:
        """Longest word needed in ``generators()``: levels of a -> table[s][a] past the identity."""
        if self._depth is None:
            seen, level, self._depth = {self.identity}, {self.identity}, 0
            while level := {self.table[s][a] for a in level for s in self.generators()} - seen:
                seen |= level
                self._depth += 1
        return self._depth

    def _closure(self, gens) -> set:
        closure = {self.identity}
        frontier = list(closure)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.table[a][g]
                    if b not in closure:
                        closure.add(b)
                        nxt.append(b)
            frontier = nxt
        return closure

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _first_nonassociative(table: np.ndarray) -> tuple[int, int, int] | None:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or None.

    ``table`` is an (n, n) integer Cayley table; the test holds n^3 entries.
    """
    n = table.shape[0]
    left = table[table]  # [a, b, c] -> (ab)c
    right = table[np.arange(n)[:, None, None], table[None]]  # [a, b, c] -> a(bc)
    bad = np.flatnonzero(left != right)
    if bad.size == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(bad[0], left.shape))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], name=f"Z{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    table = [
        [(a.table[i // nb][j // nb]) * nb + b.table[i % nb][j % nb] for j in range(na * nb)]
        for i in range(na * nb)
    ]
    return FiniteGroup(table, name=f"{a.name}x{b.name}")


def from_abelian(spec: FiniteAbelian) -> FiniteGroup:
    """Cayley-table form of a finite abelian group, indices matching the
    lexicographic element enumeration."""
    els = spec.elements()
    table = [[spec.index_of(spec.compose(g, h)) for h in els] for g in els]
    return FiniteGroup(table, name="x".join(f"Z{n}" for n in spec.orders))


def _group_from_permutations(gens: list[tuple[int, ...]], name: str) -> FiniteGroup:
    """Closure of permutation generators; elements sorted lexicographically."""
    points = len(gens[0])
    identity = tuple(range(points))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                composed = tuple(q[p[i]] for i in range(points))
                if composed not in elements:
                    elements.add(composed)
                    nxt.append(composed)
        frontier = nxt
    ordered = sorted(elements)
    index = {p: i for i, p in enumerate(ordered)}
    table = [
        [index[tuple(p[q[i]] for i in range(points))] for q in ordered]
        for p in ordered
    ]
    return FiniteGroup(table, name=name)


def symmetric_3() -> FiniteGroup:
    return _group_from_permutations([(1, 0, 2), (0, 2, 1)], name="S3")


def dihedral_4() -> FiniteGroup:
    rotation = (1, 2, 3, 0)
    reflection = (0, 3, 2, 1)
    return _group_from_permutations([rotation, reflection], name="D4")


def quaternion_8() -> FiniteGroup:
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k."""
    # unit products: units[a][b] = (sign, unit) for a*b with 0=1, 1=i, 2=j, 3=k
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def encode(sign: int, unit: int) -> int:
        return unit * 2 + (0 if sign > 0 else 1)

    def decode(x: int) -> tuple[int, int]:
        return (1 if x % 2 == 0 else -1, x // 2)

    table = []
    for a in range(8):
        row = []
        sa, ua = decode(a)
        for b in range(8):
            sb, ub = decode(b)
            sp, up = unit_mul[(ua, ub)]
            row.append(encode(sa * sb * sp, up))
        table.append(row)
    return FiniteGroup(table, name="Q8")


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
        eye = np.eye(d)
        if not np.max(np.abs(mats[self.group.identity] - eye)) <= 1e-10:
            raise ValueError("matrix at the identity is not the identity")
        adj = mats.conj().transpose(0, 2, 1)
        unitarity = np.max(np.abs(adj @ mats - eye))
        if not unitarity <= 1e-10:
            raise ValueError("representation matrices are not unitary")
        if not _word_bound(self.group, mats, unitarity) <= 1e-10:
            _check_homomorphism(self.group, mats)

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])


def _homomorphism_residual(group: FiniteGroup, mats: np.ndarray, a: int) -> np.ndarray:
    """rho(a) rho(b) - rho(ab) for every b, as the full check computes it."""
    return mats[a] @ mats - mats[list(group.table[a])]


def _check_homomorphism(group: FiniteGroup, mats: np.ndarray) -> None:
    """The full check: every row a, raising for the first that fails."""
    for a in group.elements():
        if not np.max(np.abs(_homomorphism_residual(group, mats, a))) <= 1e-10:
            raise ValueError(f"homomorphism property fails at element {a}")


def _word_bound(group: FiniteGroup, mats: np.ndarray, unitarity: float) -> float:
    """Bound on every entry the full check computes, or inf (module docstring)."""
    if group.order > _ASSOC_CHECK_LIMIT:
        return np.inf
    frob2 = 0.0  # largest squared Frobenius norm of a generator residual
    for a in (group.identity, *group.generators()):
        row = np.abs(_homomorphism_residual(group, mats, a))
        if not np.max(row) <= 1e-10:
            return np.inf
        if a != group.identity:
            frob2 = max(frob2, np.max(np.sum(row * row, axis=(1, 2))))
    d = mats.shape[1]
    tau = 4 * (d + 2) * np.finfo(np.float64).eps
    depth, grow = group._word_depth(), np.sqrt(1 + d * (unitarity + tau))
    return (1 + grow) * depth * grow ** (depth - 1) * (np.sqrt(frob2) + d * tau) + tau


def _proven(group: FiniteGroup, mats: np.ndarray) -> Representation:
    """Wrap (|G|, d, d) complex matrices already known to form a unitary
    representation of ``group``, read-only, without the constructor's checks."""
    mats.flags.writeable = False
    rep = object.__new__(Representation)
    object.__setattr__(rep, "group", group)
    object.__setattr__(rep, "matrices", mats)
    return rep


def direct_sum(*reps: Representation) -> Representation:
    """Block-diagonal sum; zero-dimensional summands are legal and vanish."""
    if not reps:
        raise ValueError("need at least one summand")
    group = reps[0].group
    for r in reps[1:]:
        if r.group is not group and r.group.table != group.table:
            raise ValueError("summands must share one group")
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
    are exact permutations, and L_a L_b = L_ab for every b exactly when
    (ab)c = a(bc) for every b and c, so the homomorphism property is checked
    on the Cayley table, at any order; it raises for the first failing a.
    """
    if multiplicity < 0:
        raise ValueError("multiplicity must be >= 0")
    n, N = group.order, multiplicity
    table = np.array(group.table, dtype=np.intp)
    if N:
        bad = _first_nonassociative(table)
        if bad is not None:
            raise ValueError(f"homomorphism property fails at element {bad[0]}")
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

    def agrees(self, other: "ClassFunction", tol: float = 1e-9) -> bool:
        if len(self.values) != len(other.values):
            return False
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))


def character(rho: Representation) -> ClassFunction:
    """Traces of the representation, constant on conjugacy classes."""
    traces = np.trace(rho.matrices, axis1=1, axis2=2)
    values = []
    for cls in rho.group.conjugacy_classes():
        vals = traces[list(cls)]
        if np.max(np.abs(vals - vals[0])) > 1e-10:
            raise HypothesisFailure("trace is not constant on a conjugacy class")
        values.append(complex(vals[0]))
    return ClassFunction(rho.group, tuple(values))


def character_inner(chi1: ClassFunction, chi2: ClassFunction) -> complex:
    """(1/|G|) sum_g chi1(g) conj(chi2(g)), via class sums."""
    group = chi1.group
    total = 0j
    for cls, a, b in zip(group.conjugacy_classes(), chi1.values, chi2.values):
        total += len(cls) * a * np.conj(b)
    return total / group.order


def _regular_character(group: FiniteGroup) -> ClassFunction:
    values = [complex(group.order if group.identity in cls else 0.0)
              for cls in group.conjugacy_classes()]
    return ClassFunction(group, tuple(values))


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
    rho: Representation, sigma: Representation, tol: float = 1e-9
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


def _characters_agree(rho: Representation, sigma: Representation, tol: float) -> bool:
    """Equal dimensions and characters: for finite groups, equivalence itself."""
    return rho.dim == sigma.dim and character(rho).agrees(character(sigma), tol)


def are_equivalent(
    rho: Representation,
    sigma: Representation,
    seeds=range(8),
    cond_limit: float = 1e6,
    tol: float = 1e-9,
) -> Intertwiner | None:
    """Unitary equivalence witness, or None when the characters rule it out.

    A generic intertwiner is drawn by group-averaging a seeded Gaussian
    matrix (the orthogonal projection of that matrix onto the intertwiner
    space, distributed like a random combination of an orthonormal basis of
    it); the witness is its unitary polar factor, which still intertwines.
    Seeds are retried while the draw is ill-conditioned.
    """
    if not _characters_agree(rho, sigma, tol):
        return None
    d = rho.dim
    if d == 0:
        return Intertwiner(np.zeros((0, 0), dtype=np.complex128), 0.0, None, unitary=True)
    if np.array_equal(rho.matrices, sigma.matrices):
        return Intertwiner(np.eye(d, dtype=np.complex128), 0.0, None, unitary=True)
    group = rho.group
    inv = [group.inverse(g) for g in group.elements()]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        T = np.mean(sigma.matrices @ R @ rho.matrices[inv], axis=0)
        W, s, Vh = np.linalg.svd(T)
        if s[-1] <= 0 or s[0] / s[-1] > cond_limit:
            continue
        U = W @ Vh
        residual = _intertwining_residual(U, rho, sigma)
        if residual <= tol:
            return Intertwiner(U, residual, seed=int(seed), unitary=True)
    raise GenericityFailure(
        f"no well-conditioned intertwiner found in {len(list(seeds))} seeded attempts"
    )


def _is_regular_multiple(rho: Representation, tol: float = 1e-9) -> int | None:
    """The N with chi_rho = N * chi_lambda, or None."""
    group = rho.group
    if rho.dim % group.order != 0:
        return None
    n = rho.dim // group.order
    reg = _regular_character(group)
    chi = character(rho)
    if all(abs(a - n * b) <= tol for a, b in zip(chi.values, reg.values)):
        return n
    return None


def cancel(
    rho: Representation,
    sigma1: Representation,
    sigma2: Representation,
    sigma3: Representation,
    tol: float = 1e-9,
) -> Intertwiner:
    """Cancellation witness: sigma2 ~ sigma3 given rho ~ sigma1 + sigma2 and
    rho ~ sigma1 + sigma3, for rho a finite multiple of the regular
    representation (which makes its commutant finite and cancellation valid).
    The hypotheses are decided by characters; only sigma2 ~ sigma3 is witnessed.
    """
    if _is_regular_multiple(rho, tol) is None:
        raise HypothesisFailure(
            "rho is not a finite multiple of the regular representation"
        )
    if not _characters_agree(rho, direct_sum(sigma1, sigma2), tol):
        raise HypothesisFailure("rho is not equivalent to sigma1 + sigma2")
    if not _characters_agree(rho, direct_sum(sigma1, sigma3), tol):
        raise HypothesisFailure("rho is not equivalent to sigma1 + sigma3")
    witness = are_equivalent(sigma2, sigma3, tol=tol)
    if witness is None:
        raise HypothesisFailure("complement characters disagree; inputs are inconsistent")
    return witness


def _orbit_matrix(rep: Representation, columns: np.ndarray) -> np.ndarray:
    """Stack rep(g) @ columns over all g, lexicographic in (g, column)."""
    n, k = rep.group.order, columns.shape[1]
    return (rep.matrices @ columns).transpose(1, 0, 2).reshape(columns.shape[0], n * k)


def wandering_complement_general(
    X: np.ndarray,
    Y: np.ndarray,
    group: FiniteGroup,
    multiplicity: int,
    tol: float = 1e-9,
) -> np.ndarray:
    """Dense complement columns X' in the multiplicity-N regular realization.

    Y must be a complete wandering family (its orbit an orthonormal basis of
    the whole space) and X a wandering family; the action restricted to the
    orthocomplement of X's orbit span is witnessed equivalent to the
    (|Y|-|X|)-multiple regular representation, and the standard wandering
    columns are pulled back through the witness.
    """
    lam = regular_representation(group, multiplicity)
    dim = group.order * multiplicity
    X = np.asarray(X, dtype=np.complex128).reshape(dim, -1)
    Y = np.asarray(Y, dtype=np.complex128).reshape(dim, -1)
    r, s = X.shape[1], Y.shape[1]
    if s != multiplicity:
        raise HypothesisFailure(
            f"a complete wandering family here has exactly {multiplicity} members, got {s}"
        )
    orbit_y = _orbit_matrix(lam, Y)
    if np.max(np.abs(orbit_y.conj().T @ orbit_y - np.eye(orbit_y.shape[1]))) > tol:
        raise HypothesisFailure("Y's orbit is not an orthonormal basis")
    if r > s:
        raise HypothesisFailure(f"|X| = {r} exceeds |Y| = {s}")
    if r == 0 and s == 0:
        return np.zeros((dim, 0), dtype=np.complex128)
    if r:
        orbit_x = _orbit_matrix(lam, X)
        if np.max(np.abs(orbit_x.conj().T @ orbit_x - np.eye(orbit_x.shape[1]))) > tol:
            raise HypothesisFailure("X's orbit is not orthonormal")
    if r == s:
        return np.zeros((dim, 0), dtype=np.complex128)
    if r:
        U = np.linalg.svd(orbit_x, full_matrices=True)[0]
        B = U[:, group.order * r:]
        sigma2 = Representation(group, B.conj().T @ lam.matrices @ B)
    else:  # B^H lam B is lam itself
        B = np.eye(dim, dtype=np.complex128)
        sigma2 = lam
    target = regular_representation(group, s - r)
    witness = are_equivalent(target, sigma2, tol=tol)
    if witness is None:
        raise HypothesisFailure(
            "the restricted action is not a multiple of the regular representation; "
            "the wandering hypotheses fail"
        )
    columns = np.zeros((group.order * (s - r), s - r), dtype=np.complex128)
    for b in range(s - r):
        columns[group.identity * (s - r) + b, b] = 1.0
    return B @ (witness.matrix @ columns)

"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports wandergen: the inputs must stay byte-identical across
commits even when the library's transform changes in the last digit.

Every abelian family is ``B @ C``: a basis field ``B`` with orthonormal
fibers times a constant coefficient matrix ``C``.  The choice of ``C``
makes each job's hypotheses hold, or fail in one planned way, by
construction:

* exact mode -- ``B`` is a random unitary per dual point, scaled by
  ``|G|**-0.5`` so that orbit-orthonormal families have identity Gram
  fibers under the library's normalization |G|.  Coefficients come from
  ``np.fft.ifftn(..., norm="ortho")`` over the cyclic axes, the inverse of
  the library's unitary transform.
* shift mode -- ``B`` is a short paraunitary filter bank, a product of
  ``I - v v* + z v v*`` factors, whose columns have orthonormal fibers at
  every point of the torus.

Non-abelian jobs use permutation-matrix regular representations, conjugated
by random unitaries or moved by unitaries from their commutant.

Job files carry floats at 17 significant digits.  ``pool`` lists one round
of a workload's schedule; the benchmark repeats rounds.
"""

from __future__ import annotations

import math

import numpy as np

TOL_RANK = 1e-9
TOL_BIO = {"exact": 1e-9, "shift": 1e-6}


# ---------------------------------------------------------------------------
# deterministic JSON text


class Raw(str):
    """JSON text that ``dumps`` emits verbatim."""


def _num(x: float) -> str:
    return format(x + 0.0, ".17g")  # + 0.0 folds -0.0 into 0.0


def dumps(value) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    parts: list[str] = []
    _dump(value, parts.append)
    return "".join(parts)


def _dump(value, emit) -> None:
    if isinstance(value, Raw):
        emit(value)
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, str):
        emit('"' + value + '"')
    elif isinstance(value, int):
        emit(str(value))
    elif isinstance(value, float):
        emit(_num(value))
    elif isinstance(value, dict):
        emit("{")
        for i, key in enumerate(sorted(value)):
            if i:
                emit(",")
            emit('"' + key + '":')
            _dump(value[key], emit)
        emit("}")
    elif isinstance(value, (list, tuple)):
        if value and all(type(x) is float for x in value):
            emit("[" + ",".join(map(_num, value)) + "]")
            return
        emit("[")
        for i, item in enumerate(value):
            if i:
                emit(",")
            _dump(item, emit)
        emit("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _members(coeffs: np.ndarray, elements: list) -> list:
    """(elements, channels, members) coefficients -> rendered member entry lists."""
    labels = [dumps(e) for e in elements]
    re, im = coeffs.real.tolist(), coeffs.imag.tolist()
    channels = coeffs.shape[1]
    members = []
    for j in range(coeffs.shape[2]):
        entries = [
            f'{{"channel":{c},"element":{labels[e]},"im":{_num(im[e][c][j])},"re":{_num(re[e][c][j])}}}'
            for e in range(len(elements))
            for c in range(channels)
        ]
        members.append(Raw("[" + ",".join(entries) + "]"))
    return members


# ---------------------------------------------------------------------------
# random building blocks


def unitary(rng, n: int, batch: tuple = ()) -> np.ndarray:
    """Random unitaries: QR of a complex Gaussian with the phases fixed."""
    Z = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def conditioned(rng, rows: int, cols: int, lo: float = 0.6, hi: float = 1.6) -> np.ndarray:
    """rows x cols matrix with singular values spread over [lo, hi]."""
    k = min(rows, cols)
    s = np.linspace(lo, hi, k) if k > 1 else np.array([hi])
    return unitary(rng, rows)[:, :k] @ np.diag(s) @ unitary(rng, cols)[:k, :]


class ExactField:
    """Random unitary fibers over Z_{n1} x ... x Z_{nk}, scaled by |G|**-0.5."""

    mode = "exact"

    def __init__(self, rng, orders: tuple[int, ...], channels: int = 4):
        self.orders = tuple(orders)
        self.m = channels
        self.n = math.prod(self.orders)
        self.U = unitary(rng, channels, (self.n,)) / math.sqrt(self.n)  # (points, m, m)
        self.elements = [list(e) for e in np.ndindex(*self.orders)]

    def system(self) -> dict:
        return {"group": {"kind": "finite_abelian", "orders": list(self.orders)}, "channels": self.m}

    def fibers(self, C: np.ndarray) -> np.ndarray:
        return self.U[:, :, : C.shape[0]] @ C

    def family(self, C: np.ndarray, fibers: np.ndarray | None = None) -> list:
        F = self.fibers(C) if fibers is None else fibers
        k = F.shape[2]
        axes = tuple(range(len(self.orders)))
        coeffs = np.fft.ifftn(F.reshape(self.orders + (self.m, k)), axes=axes, norm="ortho")
        return _members(coeffs.reshape(self.n, self.m, k), self.elements)

    def singular(self, rng, C: np.ndarray) -> list:
        """The family C with two members made equal at one random dual point."""
        F = self.fibers(C)
        p = int(rng.integers(self.n))
        F[p, :, 1] = F[p, :, 0]
        return self.family(C, F)


class ShiftField:
    """Paraunitary filter bank prod_j (I - v_j v_j* + z v_j v_j*) on Z."""

    mode = "shift"

    def __init__(self, rng, grid: int, degree: int, channels: int = 4):
        self.grid = grid
        self.m = channels
        eye = np.eye(channels)
        H = np.zeros((degree + 1, channels, channels), dtype=np.complex128)
        H[0] = eye
        for _ in range(degree):
            v = rng.standard_normal(channels) + 1j * rng.standard_normal(channels)
            v /= np.linalg.norm(v)
            P = np.outer(v, v.conj())
            nxt = H @ (eye - P)
            nxt[1:] += H[:-1] @ P
            H = nxt
        self.H = H @ unitary(rng, channels)  # taps (degree + 1, m, m)
        self.offset = int(rng.integers(-3, 4))

    def system(self) -> dict:
        return {"group": {"kind": "integer_shift", "grid": self.grid}, "channels": self.m}

    def taps(self, C: np.ndarray) -> np.ndarray:
        return self.H[:, :, : C.shape[0]] @ C

    def family(self, C: np.ndarray, taps: np.ndarray | None = None) -> list:
        T = self.taps(C) if taps is None else taps
        return _members(T, list(range(self.offset, self.offset + T.shape[0])))

    def singular(self, rng, C: np.ndarray) -> list:
        """Multiply member 0's symbol by (1 - w0/w) so its fiber vanishes at
        one random grid point w0; the support grows by one tap."""
        taps = self.taps(C)
        w0 = np.exp(2j * np.pi * int(rng.integers(self.grid)) / self.grid)
        out = np.zeros((taps.shape[0] + 1,) + taps.shape[1:], dtype=np.complex128)
        out[:-1] = taps
        out[1:, :, 0] -= w0 * taps[:, :, 0]
        return self.family(C, out)


# ---------------------------------------------------------------------------
# abelian jobs: each returns (job, expectation)


def _job(field, command: str, families: dict) -> dict:
    return {
        "version": "wandergen/1",
        "command": command,
        "system": field.system(),
        "families": families,
        "options": {"seed": 0, "tol_rank": TOL_RANK, "tol_bio": TOL_BIO[field.mode]},
    }


def _ok(kind: str, sizes: dict, **extra) -> dict:
    return {"class": kind, "exit": 0, "code": None, "sizes": sizes, **extra}


def _error(code: str) -> dict:
    return {"class": "certify", "exit": 2, "code": code, "sizes": {}}


def analyze(rng, field, k: int, wandering: bool):
    m = field.m
    C = unitary(rng, m)[:, :k] if wandering else conditioned(rng, m, k)
    return _job(field, "analyze", {"X": field.family(C)}), _ok("certify", {"X": k}, wandering=wandering)


def bound_curve(rng, field, k: int):
    job = _job(field, "bound-curve", {"X": field.family(conditioned(rng, field.m, k))})
    return job, _ok("certify", {}, rows=field.grid)


def complement(rng, field, r: int, s: int, wandering: bool = True):
    V = unitary(rng, field.m)[:, :s]
    X = V @ unitary(rng, s)[:, :r]
    if not wandering:
        X = 1.3 * X
    job = _job(field, "complement", {"X": field.family(X), "Y": field.family(V)})
    if not wandering:
        return job, _error("NotWandering")
    return job, _ok("construct", {"X": r, "Y": s, "Xprime": s - r})


def oblique(rng, field, r: int, s: int, singular_x: bool = False):
    V = unitary(rng, field.m)[:, :s]
    T = conditioned(rng, s, s)
    X, W0, Y = V @ T[:, :r], V @ T[:, r:], V @ conditioned(rng, s, s)
    fam_x = field.singular(rng, X) if singular_x else field.family(X)
    job = _job(field, "oblique", {"X": fam_x, "Y": field.family(Y), "W0": field.family(W0)})
    if singular_x:
        return job, _error("NotRiesz")
    return job, _ok("construct", {"X": r, "Y": s, "Gamma": s - r})


def frame_oblique(rng, field, r: int, s: int):
    V = unitary(rng, field.m)[:, :s]
    T = conditioned(rng, s, s)
    X, W0 = V @ T[:, :r], V @ T[:, r:]
    Y = V @ conditioned(rng, s, s)
    Y = np.hstack([Y, (Y[:, :1] + Y[:, 1:2]) / math.sqrt(2.0)])  # one redundant member
    job = _job(field, "frame-oblique", {"X": field.family(X), "Y": field.family(Y), "W0": field.family(W0)})
    return job, _ok("construct", {"X": r, "Y": s + 1, "Gamma": s + 1})


def dual(rng, field, k: int, mismatched: bool = False):
    """Gamma Riesz; W0t pairs nonsingularly with it, or has one member too many."""
    m = field.m
    V = unitary(rng, m)
    gamma = V[:, :k] @ conditioned(rng, k, k)
    kt = k + 1 if mismatched else k
    tilt = 0.4 * (rng.standard_normal((m - k, kt)) + 1j * rng.standard_normal((m - k, kt))) / math.sqrt(2 * kt)
    base = conditioned(rng, k, kt) if mismatched else np.eye(k, dtype=np.complex128)
    w0t = V[:, :k] @ base + V[:, k:] @ tilt
    job = _job(field, "dual", {"Gamma": field.family(gamma), "W0t": field.family(w0t)})
    if mismatched:
        return job, _error("NotDirectSum")
    return job, _ok("construct", {"Gamma": k, "Gammatilde": k})


def biortho(rng, field, r: int, s: int):
    """Y, Yt and X, Xt biorthogonal pairs with X inside Y and Xt inside Yt."""
    V = unitary(rng, field.m)[:, :s]
    A = conditioned(rng, s, s)
    T = conditioned(rng, s, s)
    A_t = np.linalg.inv(A.T).conj()
    T_t = np.linalg.inv(T.T).conj()
    families = {
        "Y": field.family(V @ A),
        "Yt": field.family(V @ A_t),
        "X": field.family(V @ A @ T[:, :r]),
        "Xt": field.family(V @ A_t @ T_t[:, :r]),
    }
    return _job(field, "biortho", families), _ok("construct", {"X": r, "Y": s, "Gamma": s - r})


def oracle_check(rng, field, k: int):
    job = _job(field, "oracle-check", {"X": field.family(conditioned(rng, field.m, k))})
    return job, _ok("certify", {"X": k})


# ---------------------------------------------------------------------------
# non-abelian groups and jobs; element 0 is the identity in every table


def _perm_group(gens: list[tuple[int, ...]]) -> list[list[int]]:
    points = len(gens[0])
    identity = tuple(range(points))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                pq = tuple(q[p[i]] for i in range(points))
                if pq not in seen:
                    seen.add(pq)
                    nxt.append(pq)
        frontier = nxt
    ordered = sorted(seen)
    index = {p: i for i, p in enumerate(ordered)}
    return [[index[tuple(p[q[i]] for i in range(points))] for q in ordered] for p in ordered]


def _quaternion_table() -> list[list[int]]:
    units = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
    mats = [sign * u for u in units for sign in (1, -1)]
    return [[next(i for i, c in enumerate(mats) if np.allclose(a @ b, c)) for b in mats] for a in mats]


def _product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a), len(b)
    return [[a[i // nb][j // nb] * nb + b[i % nb][j % nb] for j in range(na * nb)] for i in range(na * nb)]


_S3 = _perm_group([(1, 0, 2), (0, 2, 1)])
GROUPS = {
    "S3": _S3,
    "D4": _perm_group([(1, 2, 3, 0), (0, 3, 2, 1)]),
    "Q8": _quaternion_table(),
    "S3xZ4": _product_table(_S3, [[(i + j) % 4 for j in range(4)] for i in range(4)]),
}


def regular(table: list[list[int]], mult: int) -> np.ndarray:
    """Left-regular permutation matrices kron I_mult; index element * mult + block."""
    n = len(table)
    L = np.zeros((n, n, n))
    for g in range(n):
        for h in range(n):
            L[g, table[g][h], h] = 1.0
    return np.stack([np.kron(L[g], np.eye(mult)) for g in range(n)]).astype(np.complex128)


def array_json(a: np.ndarray) -> dict:
    """A complex array as its shape plus flat real and imaginary parts."""
    a = np.asarray(a, dtype=np.complex128)
    return {"shape": list(a.shape), "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}


def array_from_json(block: dict) -> np.ndarray:
    re = np.array(block["re"], dtype=np.float64)
    im = np.array(block["im"], dtype=np.float64)
    return (re + 1j * im).reshape(tuple(block["shape"]))


def cancel(rng, group: str, mult: int):
    """rho ~ sigma1 + sigma2 ~ sigma1 + sigma3, rho a regular multiple."""
    table = GROUPS[group]
    n = len(table)
    a = int(rng.integers(1, mult)) if mult > 1 else 0

    def conj(rep, d):
        Q = unitary(rng, d)
        return Q @ rep @ Q.conj().T

    rest = regular(table, mult - a)
    reps = {
        "rho": conj(regular(table, mult), n * mult),
        "sigma1": conj(regular(table, a), n * a) if a else np.zeros((n, 0, 0), dtype=np.complex128),
        "sigma2": conj(rest, n * (mult - a)),
        "sigma3": conj(rest, n * (mult - a)),
    }
    job = {"kind": "cancel", "table": table, "reps": {k: array_json(v) for k, v in reps.items()}}
    return job, _ok("construct", {"witness": n * (mult - a)})


def wandering_complement(rng, group: str, mult: int, r: int):
    """Wandering X (r columns) inside a complete wandering Y (mult columns).

    Both are images of the standard wandering columns under a unitary from
    the commutant of lambda kron I: exp(iH) with H = sum_h R(h) kron A_h
    Hermitian (R the right translations), times I kron U.
    """
    table = GROUPS[group]
    n = len(table)
    inv = [row.index(0) for row in table]
    H = np.zeros((n * mult, n * mult), dtype=np.complex128)
    for h in range(n):
        R = np.zeros((n, n))
        for g in range(n):
            R[table[g][inv[h]], g] = 1.0
        A = 0.3 * (rng.standard_normal((mult, mult)) + 1j * rng.standard_normal((mult, mult)))
        H += np.kron(R, A)
    H = (H + H.conj().T) / 2
    w, E = np.linalg.eigh(H)
    C = (E * np.exp(1j * w)) @ E.conj().T @ np.kron(np.eye(n), unitary(rng, mult))
    standard = np.eye(n * mult, mult, dtype=np.complex128)
    Y = C @ standard
    X = Y @ unitary(rng, mult)[:, :r]
    job = {"kind": "wandering_complement_general", "table": table, "mult": mult,
           "X": array_json(X), "Y": array_json(Y)}
    return job, _ok("construct", {"Xprime": mult - r})


# ---------------------------------------------------------------------------
# workload rounds


# Each round mixes sizes so that, per job class, the median and the 90th
# percentile fall among jobs of similar cost rather than in a gap between
# sizes: a percentile sitting in such a gap would swing with machine noise.


def _exact_fiber(rng, small: bool) -> list:
    if small:
        f = ExactField(rng, (8,))
        return [
            analyze(rng, f, 2, True), complement(rng, f, 1, 3), complement(rng, f, 1, 3, False),
            oblique(rng, f, 1, 3), oblique(rng, f, 2, 3, True), frame_oblique(rng, f, 1, 2),
            dual(rng, f, 2), dual(rng, f, 2, True), biortho(rng, f, 1, 3),
        ]
    z256, z1024, z32x32 = ExactField(rng, (256,)), ExactField(rng, (1024,)), ExactField(rng, (32, 32))
    return [
        analyze(rng, z1024, 2, True), complement(rng, z256, 1, 3),
        complement(rng, z256, 1, 3, False), complement(rng, z1024, 1, 3),
        analyze(rng, z32x32, 3, False), oblique(rng, z256, 1, 3),
        dual(rng, z1024, 2, True), oblique(rng, z1024, 1, 3),
        analyze(rng, z256, 2, True), dual(rng, z256, 2),
        oblique(rng, z32x32, 2, 3, True), frame_oblique(rng, z32x32, 1, 2),
        analyze(rng, z1024, 3, False), biortho(rng, z256, 1, 3),
        dual(rng, z256, 2, True), dual(rng, z1024, 2),
        oblique(rng, z1024, 2, 3, True), oblique(rng, z32x32, 1, 3),
        complement(rng, z32x32, 1, 3, False),
    ]


def _shift_fiber(rng, small: bool) -> list:
    if small:
        f = ShiftField(rng, 32, 3)
        return [
            analyze(rng, f, 2, True), bound_curve(rng, f, 2), complement(rng, f, 1, 3),
            complement(rng, f, 1, 3, False), oblique(rng, f, 1, 3), oblique(rng, f, 2, 3, True),
            dual(rng, f, 2), dual(rng, f, 2, True),
        ]
    g256, g4096 = ShiftField(rng, 256, 6), ShiftField(rng, 4096, 6)
    return [
        analyze(rng, g4096, 2, True), complement(rng, g256, 1, 3),
        bound_curve(rng, g4096, 3), complement(rng, g4096, 1, 3),
        analyze(rng, g256, 3, False), dual(rng, g4096, 2),
        dual(rng, g4096, 2, True), oblique(rng, g256, 1, 3),
        analyze(rng, g4096, 3, False), oblique(rng, g4096, 1, 3),
        oblique(rng, g4096, 2, 3, True), dual(rng, g256, 2),
        bound_curve(rng, g4096, 2), dual(rng, g4096, 1),
        complement(rng, g4096, 1, 3, False), analyze(rng, g4096, 4, False),
    ]


def _dense_paths(rng, small: bool) -> list:
    if small:
        return [oracle_check(rng, ExactField(rng, (8,)), 1), cancel(rng, "S3", 2),
                wandering_complement(rng, "S3", 2, 1)]
    z16, z32, z64 = ExactField(rng, (16,)), ExactField(rng, (32,)), ExactField(rng, (64,))
    return [
        oracle_check(rng, z64, 2), cancel(rng, "S3", 1), wandering_complement(rng, "S3", 2, 1),
        cancel(rng, "S3xZ4", 2), oracle_check(rng, z16, 2), cancel(rng, "S3", 3),
        wandering_complement(rng, "D4", 3, 1), oracle_check(rng, z32, 4), cancel(rng, "D4", 2),
        wandering_complement(rng, "S3xZ4", 3, 2), oracle_check(rng, z64, 1), cancel(rng, "Q8", 3),
        wandering_complement(rng, "Q8", 2, 0), oracle_check(rng, z32, 2), cancel(rng, "D4", 1),
        wandering_complement(rng, "S3xZ4", 2, 0), oracle_check(rng, z64, 2), cancel(rng, "Q8", 2),
        wandering_complement(rng, "S3", 3, 2), oracle_check(rng, z32, 4), cancel(rng, "S3xZ4", 2),
        wandering_complement(rng, "D4", 2, 1), oracle_check(rng, z64, 1), cancel(rng, "S3", 2),
    ]


def _cli_cold(rng, small: bool) -> list:
    fields = [ExactField(rng, (n,), m) for n, m in ((2, 2), (3, 3), (5, 2), (6, 4), (8, 3), (12, 4))]
    if small:
        return [analyze(rng, fields[0], 1, True)]
    return [
        analyze(rng, fields[0], 1, True),
        frame_oblique(rng, fields[3], 1, 2),
        oracle_check(rng, fields[1], 2),
        dual(rng, fields[2], 1),
        bound_curve(rng, ShiftField(rng, 64, 4, 3), 2),
        biortho(rng, fields[4], 1, 2),
        analyze(rng, fields[5], 3, False),
        frame_oblique(rng, fields[4], 1, 2),
        oracle_check(rng, fields[5], 1),
        complement(rng, fields[1], 1, 2, False),
    ]


WORKLOADS = {
    "cli-cold": _cli_cold,
    "exact-fiber": _exact_fiber,
    "shift-fiber": _shift_fiber,
    "dense-paths": _dense_paths,
}


def pool(workload: str, seed: int, small: bool = False) -> list[tuple[str, str, dict]]:
    """One round of the workload as (name, job JSON text, expectation) triples.

    ``small`` gives one tiny job per command instead: the warm-up set, and
    the whole schedule of the self-test.
    """
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload), int(small)])
    out = []
    for i, (job, expect) in enumerate(WORKLOADS[workload](rng, small)):
        label = job.get("command") or job["kind"]
        out.append((f"{'small' if small else 'round'}-{i:02d}-{label}", dumps(job), expect))
    return out

"""File-driven front door: load a job, run one analysis or construction,
emit a machine-readable report.

Job files are JSON with version tag "wandergen/1"::

    {
      "version": "wandergen/1",
      "command": "analyze",
      "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 2},
      "families": {"X": [[{"element": [0], "channel": 0, "re": 1.0, "im": 0.0}]]},
      "options": {"seed": 0}
    }

Group kinds: ``finite_abelian`` (orders), ``integer_shift`` (grid),
``builtin`` (name in Z<n>, S3, D4, Q8) and ``cayley`` (table) for the
cancellation command.  Families are named member lists (X, Xt, Y, Yt, W0,
W0t, Gamma); each member is a list of {element, channel, re, im} entries
with 0-based channels.  The ``cancel`` command takes explicit
representations instead: {"dim": d, "matrices": [per element [[{re, im}]]]}.

Commands: analyze, complement, oblique, frame-oblique, dual, biortho,
cancel, oracle-check (JSON reports) and bound-curve (tab-separated rows of
dual angle, min eigenvalue, max eigenvalue; shift-mode systems only).

Reports serialize deterministically: sorted keys, floats at 17 significant
digits, complex numbers as {re, im} objects.  Exit codes: 0 success, 1 I/O
or schema errors, 2 domain errors (the report carries the error code).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np

from . import nonabelian, oblique, oracle, wandering
from .defaults import DEFAULT_GRID, GROUP_ORDER_LIMIT, TOL_BIO_EXACT, TOL_RANK_REL
from .errors import ExactModeRequired, SizeLimit, WandergenError, WrongMode
from .fibers import (
    Bounds,
    Family,
    SampledFamily,
    default_bio_tol,
    fiber_span_angle,
    frame_bounds,
    gram_fibers,
    is_biorthogonal,
    is_contained,
    riesz_bounds,
    union_family,
)
from .groups import FiniteAbelian, GroupVector, IntegerShift, SystemSpace, _storage
from .wandering import verify_wandering

FORMAT_VERSION = "wandergen/1"

REPORT_COMMANDS = (
    "analyze",
    "complement",
    "oblique",
    "frame-oblique",
    "dual",
    "biortho",
    "cancel",
    "oracle-check",
)
ALL_COMMANDS = REPORT_COMMANDS + ("bound-curve",)

_BUILTIN_GROUPS = {
    "S3": nonabelian.symmetric_3,
    "D4": nonabelian.dihedral_4,
    "Q8": nonabelian.quaternion_8,
}


class SchemaError(Exception):
    """Malformed job file; maps to exit status 1."""


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering (round-trips float64)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report")
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".17g")


class _Raw(str):
    """Report text that ``_render`` emits verbatim."""


def render_json(value) -> str:
    parts: list[str] = []
    _render(value, parts.append)
    parts.append("\n")
    return "".join(parts)


@functools.lru_cache(maxsize=512)
def _key_json(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be strings, got {type(key).__name__}")
    return json.dumps(key, ensure_ascii=True) + ":"


def _render(value, emit) -> None:
    # exact types first, most frequent first; subclasses (bool, numpy
    # scalars, tuples) fall through to the isinstance chain below
    kind = type(value)
    if kind is float:
        emit(format_float(value))
    elif kind is dict:
        emit("{")
        for i, key in enumerate(sorted(value)):
            if i:
                emit(",")
            emit(_key_json(key))
            _render(value[key], emit)
        emit("}")
    elif kind is list:
        emit("[")
        for i, item in enumerate(value):
            if i:
                emit(",")
            _render(item, emit)
        emit("]")
    elif kind is int:
        emit(str(value))
    elif kind is _Raw:
        emit(value)
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, str):
        emit(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, (int, np.integer)):
        emit(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        emit(format_float(value))
    elif isinstance(value, dict):
        _render(dict(value), emit)
    elif isinstance(value, (list, tuple)):
        _render(list(value), emit)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _finite(values) -> np.ndarray:
    """``values`` as an array with -0.0 folded to 0.0; raises on a non-finite value."""
    values = np.asarray(values) + 0.0
    if not np.isfinite(values).all():
        raise ValueError("non-finite value in report")
    return values


def _complex_array_json(values) -> _Raw:
    """A complex array of any shape as nested lists of {"im", "re"} cells."""
    values = _finite(np.asarray(values, dtype=np.complex128))
    parts = zip(values.imag.ravel().tolist(), values.real.ravel().tolist())
    text = ['{"im":%.17g,"re":%.17g}' % z for z in parts]  # %.17g is format_float's format
    for axis in reversed(range(values.ndim)):  # join the innermost axis first
        n = values.shape[axis]
        text = ["[" + ",".join(text[i * n:(i + 1) * n]) + "]" for i in range(math.prod(values.shape[:axis]))]
    return _Raw(text[0])


def _bounds_json(b: Bounds) -> dict:
    return {"lower": float(b.lower), "upper": float(b.upper), "exact": bool(b.exact)}


# ---------------------------------------------------------------------------
# job parsing


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _get(obj: dict, key: str, kind, message: str):
    _expect(isinstance(obj, dict) and key in obj, f"missing field '{key}' ({message})")
    value = obj[key]
    _expect(isinstance(value, kind), f"field '{key}' has wrong type ({message})")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _float(number) -> float:
    """A JSON number as a float; an integer beyond the float range is infinite."""
    try:
        return float(number)
    except OverflowError:
        return math.inf


def _tolerance(value, label: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), f"{label} must be a number")
    value = _float(value)
    _expect(math.isfinite(value), f"{label} must be finite")
    _expect(value > 0.0, f"{label} must be positive")
    return value


def _grid(value) -> int:
    _expect(_is_int(value) and value >= 2, "grid must be an integer >= 2")
    return value


def _parse_system(job: dict, grid_override: int | None) -> SystemSpace:
    system = _get(job, "system", dict, "system block")
    group = _get(system, "group", dict, "group spec")
    kind = _get(group, "kind", str, "group kind")
    if kind == "finite_abelian":
        orders = _get(group, "orders", list, "cyclic orders")
        _expect(
            len(orders) > 0 and all(_is_int(n) and n >= 1 for n in orders),
            "orders must be integers >= 1",
        )
        spec = FiniteAbelian(tuple(orders))
    elif kind == "integer_shift":
        grid = _grid(group.get("grid", DEFAULT_GRID))
        if grid_override is not None:  # the --grid flag passes the same check
            grid = _grid(grid_override)
        spec = IntegerShift(grid)
    else:
        raise SchemaError(f"group kind '{kind}' needs a system space (finite_abelian or integer_shift)")
    channels = _get(system, "channels", int, "channel count")
    _expect(not isinstance(channels, bool) and channels >= 1, "channels must be an integer >= 1")
    return SystemSpace(spec, channels)


def _parse_finite_group(job: dict) -> nonabelian.FiniteGroup:
    system = _get(job, "system", dict, "system block")
    group = _get(system, "group", dict, "group spec")
    kind = _get(group, "kind", str, "group kind")
    if kind == "builtin":
        name = _get(group, "name", str, "builtin group name")
        if name in _BUILTIN_GROUPS:
            return _BUILTIN_GROUPS[name]()
        match = re.fullmatch(r"Z0*(\d+)", name)
        _expect(match is not None and match.group(1) != "0", f"unknown builtin group '{name}'")
        digits = match.group(1)  # no leading zeros: compared by length before int() reads it
        if len(digits) > len(str(GROUP_ORDER_LIMIT)) or int(digits) > GROUP_ORDER_LIMIT:
            raise SizeLimit(f"builtin cyclic group order exceeds the cap {GROUP_ORDER_LIMIT}")
        return nonabelian.cyclic_group(int(digits))
    if kind == "cayley":
        table = _get(group, "table", list, "Cayley table")
        if len(table) > GROUP_ORDER_LIMIT:
            raise SizeLimit(f"Cayley table order exceeds the cap {GROUP_ORDER_LIMIT}")
        try:
            return nonabelian.FiniteGroup(table)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"bad Cayley table: {exc}") from exc
    raise SchemaError(f"group kind '{kind}' is not a finite group presentation")


class _FirstFault:
    """The first fault in a job list.  Checks run in a fixed order, each over
    a column of the items before the first fault found so far, so a fault it
    finds comes first.  ``message`` names a fault just after the items."""

    def __init__(self, items: list, message: str | None = None):
        self.items, self.n, self.message = items, len(items), message

    def head(self, column):  # the items before the first fault, not copied if all
        return column[:self.n] if self.n < len(column) else column

    def column(self, key: str, default=None) -> list:
        return list(map(dict.get, self.head(self.items), itertools.repeat(key), itertools.repeat(default)))

    def check(self, column: list, clean: bool, bad, message) -> list:
        """Unless ``clean``, the first item for which ``bad`` holds is a fault,
        named by ``message(index)``.  Returns the items before the first fault."""
        i = len(column) if clean else next((i for i, x in enumerate(column) if bad(x)), len(column))
        if i < len(column):
            self.n, self.message = i, message(i)
        return self.head(column)

    def typed(self, column: list, types: tuple, message) -> list:
        """``check`` that each item's type is one of ``types``; a bool is no int."""
        clean = set(map(type, column)) <= set(types)
        return self.check(column, clean, lambda x: isinstance(x, bool) or not isinstance(x, types), message)

    def numbers(self, label) -> np.ndarray:
        """The re, then im checks of {re, im} items: their complex values; ``label(i, key)`` names a part."""
        parts = []
        for key in ("re", "im"):
            numbers = self.typed(self.column(key, 0.0), (int, float), lambda i: f"{label(i, key)} must be a number")
            try:
                floats = np.array(numbers, dtype=np.float64)
            except OverflowError:  # an integer beyond the float range
                floats = np.array(list(map(_float, numbers)), dtype=np.float64)
            parts.append(self.check(floats, np.isfinite(floats).all(), lambda x: not math.isfinite(x),
                                    lambda i: f"{label(i, key)} must be finite"))
        return np.column_stack(list(map(self.head, parts))).view(np.complex128)[:, 0]


def _parse_member(space: SystemSpace, entries, label: str) -> GroupVector:
    """One pass per check over all entries, in the order object, channel type, channel
    range, re, im, element type, rank, to the first faulty entry; duplicates sum in input order."""
    _expect(isinstance(entries, list), f"family member {label} must be a list of entries")
    faults, count = _FirstFault(entries), space.channels
    faults.typed(entries, (dict,), lambda i: f"{label}[{i}] must be an object")
    channels = faults.typed(faults.column("channel"), (int,), lambda i: f"{label}[{i}].channel must be an integer")
    channels = faults.check(channels, all(0 <= c < count for c in set(channels)), lambda c: not 0 <= c < count,
                            lambda i: f"{label}[{i}].channel outside 0..{count - 1}")
    values = faults.numbers(lambda i, key: f"{label}[{i}].{key}")
    if space.exact:  # a list, then its coordinates: one check with one message
        rank, message = len(space.group.orders), lambda i: f"{label}[{i}].element must be a list of integers"
        elements = faults.typed(faults.column("element"), (list,), message)
        coords = list(itertools.chain.from_iterable(elements))  # of all elements, in order
        elements = faults.check(elements, set(map(type, coords)) <= {int}, lambda e: not all(map(_is_int, e)), message)
        faults.check(elements, set(map(len, elements)) <= {rank}, lambda e: len(e) != rank,
                     lambda i: f"{label}[{i}]: element rank {len(elements[i])} != group rank {rank}")
    else:
        coords = faults.typed(faults.column("element"), (int,), lambda i: f"{label}[{i}].element must be an integer")
    _expect(faults.message is None, faults.message)
    return GroupVector._adopt(space, *_storage(space, coords, channels, values))


def _parse_family(space: SystemSpace, families: dict, name: str) -> Family:
    _expect(name in families, f"missing family '{name}'")
    members = families[name]
    _expect(isinstance(members, list), f"family '{name}' must be a list of members")
    parsed = tuple(
        _parse_member(space, member, f"{name}[{j}]") for j, member in enumerate(members)
    )
    return Family(space, parsed)


def _cells(matrices: list, dim: int, name: str) -> tuple[list, str | None]:
    """The cells of ``matrices`` in order, up to the first shape fault, and its message."""
    cells = []
    for g, mat in enumerate(matrices):
        if not (isinstance(mat, list) and len(mat) == dim):
            return cells, f"{name}.matrices[{g}] must be {dim} rows"
        for a, row in enumerate(mat):
            if not (isinstance(row, list) and len(row) == dim):
                return cells, f"{name}.matrices[{g}][{a}] must be {dim} entries"
            cells += row
    return cells, None


def _parse_representation(group: nonabelian.FiniteGroup, reps: dict, name: str) -> nonabelian.Representation:
    _expect(name in reps, f"missing representation '{name}'")
    block = reps[name]
    dim = _get(block, "dim", int, f"{name}.dim")
    _expect(not isinstance(dim, bool) and dim >= 0, f"{name}.dim must be an integer >= 0")
    matrices = _get(block, "matrices", list, f"{name}.matrices")
    _expect(len(matrices) == group.order, f"{name} needs one matrix per group element")
    faults = _FirstFault(*_cells(matrices, dim, name))  # a faulty cell comes before the shape fault
    faults.typed(faults.items, (dict,),
                 lambda k: f"{name}.matrices[{k // dim**2}][{k // dim % dim}][{k % dim}] must be {{re, im}}")
    values = faults.numbers(lambda k, key: f"{name} entry {key}")
    _expect(faults.message is None, faults.message)
    try:
        return nonabelian.Representation(group, values.reshape(group.order, dim, dim))
    except ValueError as exc:
        raise SchemaError(f"representation '{name}' invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization of outputs


def _family_json(fam) -> list | dict:
    if isinstance(fam, SampledFamily):
        fibers = _complex_array_json(np.transpose(fam.fibers, (2, 0, 1)))  # (member, point, channel)
        return {"fiber_sampled": True, "note": fam.note, "fibers": fibers}
    # coefficient Families are exact mode (shift constructions return
    # SampledFamily); each member renders straight from its arrays, stored
    # cells by element index, then channel; %.17g is format_float's format;
    # each member is one % over its flattened (channel, label, im, re) values
    labels = ["[" + ",".join(map(str, e)) + "]" for e in fam.space.group.elements()]
    template = '{"channel":%d,"element":%s,"im":%.17g,"re":%.17g}'
    members = []
    for v in fam.members:
        element, channel = np.divmod(np.flatnonzero(v.support_mask()), fam.space.channels)
        values = _finite(v.dense()[element, channel])
        flat = [None] * (4 * len(element))
        flat[0::4], flat[2::4], flat[3::4] = channel.tolist(), values.imag.tolist(), values.real.tolist()
        flat[1::4] = [labels[e] for e in element.tolist()]
        members.append(_Raw(("[" + ",".join([template] * len(element)) + "]") % tuple(flat)))
    return members


# ---------------------------------------------------------------------------
# command handlers


def _bounds_with_errors(X, tol_rank: float, riesz, frame, frame_errors=WandergenError) -> dict:
    """Riesz and frame bounds from the given bound functions, each failure recorded
    by its error code; a frame failure outside ``frame_errors`` propagates."""
    out: dict = {"riesz": None, "riesz_error": None, "frame": None, "frame_error": None}
    try:
        out["riesz"] = _bounds_json(riesz(X, tol_rank))
    except WandergenError as exc:
        out["riesz_error"] = exc.code
    try:
        out["frame"] = _bounds_json(frame(X, tol_rank))
    except frame_errors as exc:
        out["frame_error"] = exc.code
    return out


def _run_analyze(job, space, families, opts) -> dict:
    X = _parse_family(space, families, "X")
    # frame failure means nothing about this family is certifiable: propagate
    bounds = _bounds_with_errors(X, opts["tol_rank"], riesz_bounds, frame_bounds, frame_errors=())
    cert = verify_wandering(X, opts["tol_bio"], opts["tol_rank"])
    return {
        "bounds": bounds,
        "sizes": {"X": len(X)},
        "residuals": {"wandering": float(cert.max_gram_residual)},
        "checks": {"wandering": cert.valid, "complete": cert.complete},
    }


def _run_complement(job, space, families, opts) -> dict:
    X = _parse_family(space, families, "X")
    Y = _parse_family(space, families, "Y")
    Xp = wandering.complement_wandering(X, Y, opts["tol_bio"], opts["tol_rank"])
    residuals: dict = {}
    bounds: dict = {"riesz": None, "riesz_error": None}
    if len(Xp):
        union = union_family(X, Xp) if len(X) else Xp
        residuals["union_gram"] = gram_fibers(union).identity_deviation()
        residuals["xprime_gram"] = gram_fibers(Xp).identity_deviation()
        residuals["span_angle"] = fiber_span_angle(union, Y, opts["tol_rank"])
        bounds["riesz"] = _bounds_json(riesz_bounds(Xp, opts["tol_rank"]))
    return {
        "families": {"Xprime": _family_json(Xp)},
        "sizes": {"X": len(X), "Y": len(Y), "Xprime": len(Xp)},
        "residuals": residuals,
        "bounds": bounds,
    }


def _resolve_w0(space, families, opts):
    w0 = _parse_family(space, families, "W0")
    if opts["w0_dense"]:  # one column per member, so no members give (|G| * channels, 0)
        if not space.exact:  # before any member is read, so an empty W0 says the same
            raise ExactModeRequired("dense bases exist only in exact mode")
        columns = np.empty((space.points * space.channels, len(w0)), dtype=np.complex128)
        for j, v in enumerate(w0.members):
            columns[:, j] = v.dense().reshape(-1)
        return oblique.DenseBasis(space, columns)
    return w0


def _run_oblique(job, space, families, opts) -> dict:
    X = _parse_family(space, families, "X")
    Y = _parse_family(space, families, "Y")
    w0 = _resolve_w0(space, families, opts)
    gamma = oblique.oblique_riesz_wavelets(X, Y, w0, opts["tol_rank"])
    # a dense W0 was resolved and tested once inside; containment reads its cached factors
    checks = {"gamma_in_w0": is_contained(gamma, w0, opts["tol_rank"])}
    return {
        "families": {"Gamma": _family_json(gamma)},
        "sizes": {"X": len(X), "Y": len(Y), "Gamma": len(gamma)},
        "bounds": {"riesz": _bounds_json(riesz_bounds(gamma, opts["tol_rank"]))},
        "checks": checks,
    }


def _run_frame_oblique(job, space, families, opts) -> dict:
    X = _parse_family(space, families, "X")
    Y = _parse_family(space, families, "Y")
    w0 = _resolve_w0(space, families, opts)
    gamma = oblique.oblique_frame_wavelets(X, Y, w0, opts["tol_rank"])
    return {
        "families": {"Gamma": _family_json(gamma)},
        "sizes": {"X": len(X), "Y": len(Y), "Gamma": len(gamma)},
        "bounds": {"frame": _bounds_json(frame_bounds(gamma, opts["tol_rank"]))},
    }


def _run_dual(job, space, families, opts) -> dict:
    gamma = _parse_family(space, families, "Gamma")
    w0t = _parse_family(space, families, "W0t")
    gamma_t = oblique.dual_family(gamma, w0t, opts["tol_rank"])
    ok, residual = is_biorthogonal(gamma, gamma_t, opts["tol_bio"])
    return {
        "families": {"Gammatilde": _family_json(gamma_t)},
        "sizes": {"Gamma": len(gamma), "Gammatilde": len(gamma_t)},
        "residuals": {"biorthogonality": float(residual)},
        "checks": {"biorthogonal": bool(ok)},
    }


def _run_biortho(job, space, families, opts) -> dict:
    X = _parse_family(space, families, "X")
    Xt = _parse_family(space, families, "Xt")
    Y = _parse_family(space, families, "Y")
    Yt = _parse_family(space, families, "Yt")
    pair = oblique.biorthogonal_wavelets(X, Xt, Y, Yt, opts["tol_rank"], opts["tol_bio"])
    return {
        "families": {
            "Gamma": _family_json(pair.gamma),
            "Gammatilde": _family_json(pair.gamma_tilde),
        },
        "sizes": {"X": len(X), "Y": len(Y), "Gamma": len(pair.gamma)},
        "residuals": {"pair": pair.pair_residual, "union": pair.union_residual},
        "bounds": {"riesz_gamma": _bounds_json(riesz_bounds(pair.gamma, opts["tol_rank"]))},
    }


def _run_cancel(job, opts) -> dict:
    group = _parse_finite_group(job)
    reps = _get(job, "representations", dict, "representations block")
    rho = _parse_representation(group, reps, "rho")
    sigma1 = _parse_representation(group, reps, "sigma1")
    sigma2 = _parse_representation(group, reps, "sigma2")
    sigma3 = _parse_representation(group, reps, "sigma3")
    witness = nonabelian.cancel(rho, sigma1, sigma2, sigma3, tol=opts["tol_bio"])
    chi2 = nonabelian.character(sigma2)
    chi3 = nonabelian.character(sigma3)
    U = witness.matrix
    unitarity = float(np.max(np.abs(U.conj().T @ U - np.eye(len(U))), initial=0.0))
    return {
        "witness": {
            "matrix": _complex_array_json(U),
            "residual": float(witness.residual),
            "unitarity_residual": unitarity,
            "seed": witness.seed,
        },
        "characters": {
            "class_sizes": [len(c) for c in group.conjugacy_classes()],
            "sigma2": _complex_array_json(chi2.values),
            "sigma3": _complex_array_json(chi3.values),
        },
        "sizes": {"rho": rho.dim, "sigma1": sigma1.dim, "sigma2": sigma2.dim, "sigma3": sigma3.dim},
        "exact": True,
    }


def _run_oracle_check(job, space, families, opts) -> dict:
    X = _parse_family(space, families, "X")
    fiber = _bounds_with_errors(X, opts["tol_rank"], riesz_bounds, frame_bounds)
    try:  # one orbit matrix and one SVD serve both dense bounds
        spectrum = oracle.dense_gram_spectrum(X)
    except WandergenError as exc:
        dense = {"riesz": None, "riesz_error": exc.code, "frame": None, "frame_error": exc.code}
    else:
        dense = _bounds_with_errors(
            spectrum, opts["tol_rank"], oracle._riesz_from_spectrum, oracle._frame_from_spectrum
        )
    diffs = []
    for key in ("riesz", "frame"):
        if fiber[key] is not None and dense[key] is not None:
            diffs.append(abs(fiber[key]["lower"] - dense[key]["lower"]))
            diffs.append(abs(fiber[key]["upper"] - dense[key]["upper"]))
    return {
        "oracle": {
            "fiber": fiber,
            "dense": dense,
            "max_bound_diff": max(diffs) if diffs else None,
        },
        "sizes": {"X": len(X)},
    }


def emit_bound_curve(X) -> str:
    """Tab-separated rows of (dual angle, min eigenvalue, max eigenvalue).

    Shift-mode systems only; angles ascend over [0, 2*pi).
    """
    if X.space.exact:
        raise WrongMode("bound curves are for integer_shift systems; use analyze instead")
    N = gram_fibers(X).space.points
    angles = 2.0 * np.pi * np.arange(N) / N
    rows = _finite(np.column_stack([angles, X.gram_eigenvalues[:, [0, -1]]])).tolist()
    return "".join(["%.17g\t%.17g\t%.17g\n" % tuple(row) for row in rows])


# ---------------------------------------------------------------------------
# report assembly and entry point


def _base_report(command: str | None, opts: dict | None) -> dict:
    return {
        "version": FORMAT_VERSION,
        "command": command,
        "status": "ok",
        "error": None,
        "exact": None,
        "seed": opts.get("seed") if opts else None,
        "options": {
            "tol_rank": opts["tol_rank"] if opts else None,
            "tol_bio": opts["tol_bio"] if opts else None,
        },
        "bounds": None,
        "residuals": {},
        "checks": {},
        "sizes": {},
        "families": {},
        "witness": None,
        "characters": None,
        "oracle": None,
        "timing_ms": None,
    }


def _parse_options(job: dict, args) -> dict:
    options = job.get("options", {})
    _expect(isinstance(options, dict), "options must be an object")
    seed = options.get("seed")
    if seed is not None:
        _expect(_is_int(seed), "seed must be an integer")
    if args.seed is not None:
        seed = args.seed
    tol_rank = _tolerance(options.get("tol_rank", TOL_RANK_REL), "tol_rank")
    if args.tol_rank is not None:
        tol_rank = _tolerance(args.tol_rank, "tol_rank")
    tol_bio = options.get("tol_bio")
    if tol_bio is not None:
        tol_bio = _tolerance(tol_bio, "tol_bio")
    if args.tol_bio is not None:
        tol_bio = _tolerance(args.tol_bio, "tol_bio")
    w0_dense = options.get("w0_dense", False)
    _expect(isinstance(w0_dense, bool), "w0_dense must be a boolean")
    return {"seed": seed, "tol_rank": tol_rank, "tol_bio": tol_bio, "w0_dense": w0_dense}


def run_job(job: dict, args) -> tuple[str, int]:
    """Execute a parsed job; returns (output text, exit code)."""
    version = _get(job, "version", str, "format version")
    _expect(version == FORMAT_VERSION, f"unsupported version '{version}'")
    command = _get(job, "command", str, "command")
    _expect(command in ALL_COMMANDS, f"unknown command '{command}'")
    opts = _parse_options(job, args)

    started = time.perf_counter()
    report = _base_report(command, opts)
    try:
        space = None if command == "cancel" else _parse_system(job, args.grid)
        if opts["tol_bio"] is None:  # cancel's finite groups are exact
            opts["tol_bio"] = TOL_BIO_EXACT if space is None else default_bio_tol(space)
        report["options"]["tol_bio"] = opts["tol_bio"]
        if command == "cancel":
            update = _run_cancel(job, opts)
        else:
            families = job.get("families", {})
            _expect(isinstance(families, dict), "families must be an object")
            if command == "bound-curve":
                X = _parse_family(space, families, "X")
                return emit_bound_curve(X), 0
            handler = {
                "analyze": _run_analyze,
                "complement": _run_complement,
                "oblique": _run_oblique,
                "frame-oblique": _run_frame_oblique,
                "dual": _run_dual,
                "biortho": _run_biortho,
                "oracle-check": _run_oracle_check,
            }[command]
            update = {**handler(job, space, families, opts), "exact": space.exact}
    except WandergenError as exc:
        report["status"] = "error"
        report["error"] = {"code": exc.code, "message": str(exc)}
        if args.timing:
            report["timing_ms"] = (time.perf_counter() - started) * 1000.0
        return render_json(report), 2
    report.update(update)
    if args.timing:
        report["timing_ms"] = (time.perf_counter() - started) * 1000.0
    return render_json(report), 0


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wandergen-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _error_report(code: str, message: str, command: str | None = None) -> str:
    report = _base_report(command, None)
    report["status"] = "error"
    report["error"] = {"code": code, "message": message}
    return render_json(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wandergen",
        description="Run a wandergen job file and emit a deterministic report.",
    )
    parser.add_argument("--job", required=True, help="path to the JSON job file")
    parser.add_argument("--seed", type=int, default=None, help="override options.seed")
    parser.add_argument("--grid", type=int, default=None, help="override the shift-mode grid size")
    parser.add_argument("--tol-rank", type=float, default=None, dest="tol_rank")
    parser.add_argument("--tol-bio", type=float, default=None, dest="tol_bio")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--timing", action="store_true", help="include wall time in the report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.job, "r", encoding="utf-8") as handle:
            job = json.load(handle)
        if not isinstance(job, dict):
            raise SchemaError("job file must contain a JSON object")
    except OSError as exc:
        _write_output(_error_report("IOError", str(exc)), args.out)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _write_output(_error_report("SchemaError", f"invalid JSON: {exc}"), args.out)
        return 1
    except SchemaError as exc:
        _write_output(_error_report("SchemaError", str(exc)), args.out)
        return 1

    try:
        text, code = run_job(job, args)
    except SchemaError as exc:
        _write_output(_error_report("SchemaError", str(exc), job.get("command") if isinstance(job.get("command"), str) else None), args.out)
        return 1
    except Exception as exc:  # never panic on malformed input
        _write_output(_error_report("InternalError", f"{type(exc).__name__}: {exc}"), args.out)
        return 1
    _write_output(text, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

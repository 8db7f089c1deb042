"""Untimed output checks.  Each check returns a list of failure messages;
an empty list means the job's output is correct."""

from __future__ import annotations

import json
import math

import numpy as np

from gen import array_from_json, regular

RESIDUAL_TOL = 1e-9  # intertwining, unitarity and orthonormality of dense outputs


def report(expect: dict, job: dict, code: int, text: str) -> list[str]:
    """Check a wandergen report (or bound-curve text) against the expectation."""
    if code != expect["exit"]:
        return [f"exit code {code}, expected {expect['exit']}"]
    if "rows" in expect:
        return _bound_curve(expect["rows"], text)
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if expect["code"] is not None:
        got = (rep.get("error") or {}).get("code")
        return [] if got == expect["code"] else [f"error code {got}, expected {expect['code']}"]
    if rep.get("status") != "ok":
        return [f"status {rep.get('status')}: {rep.get('error')}"]
    fails = [
        f"sizes.{k} = {rep['sizes'].get(k)}, expected {v}"
        for k, v in expect["sizes"].items()
        if rep["sizes"].get(k) != v
    ]
    for name, fam in rep["families"].items():
        size_key = {"Xprime": "Xprime", "Gamma": "Gamma", "Gammatilde": "Gamma"}.get(name)
        if size_key in expect["sizes"] and _family_len(fam) != expect["sizes"][size_key]:
            fails.append(f"family {name} has {_family_len(fam)} members")
    tol_bio = rep["options"]["tol_bio"]
    fails += _CERTIFICATES[job["command"]](rep, expect, tol_bio)
    if job["system"]["group"]["kind"] == "finite_abelian" and job["command"] in _FIBER_CHECKS:
        fails += _FIBER_CHECKS[job["command"]](rep, job, tol_bio)
    return fails


def _family_len(fam) -> int:
    return len(fam["fibers"]) if isinstance(fam, dict) else len(fam)


def _at_most(label: str, value, tol: float) -> list[str]:
    if value is None or not value <= tol:
        return [f"{label} = {value} exceeds {tol:g}"]
    return []


def _positive_lower(label: str, bounds) -> list[str]:
    if not bounds or not bounds["lower"] > 0.0:
        return [f"{label} lower bound missing or not above 0: {bounds}"]
    return []


def _analyze(rep, expect, tol_bio):
    fails = _positive_lower("riesz", rep["bounds"]["riesz"]) + _positive_lower("frame", rep["bounds"]["frame"])
    if expect["wandering"]:
        fails += _at_most("wandering residual", rep["residuals"]["wandering"], tol_bio)
        if rep["checks"]["wandering"] is not True:
            fails.append("wandering input not certified wandering")
    return fails


def _complement(rep, expect, tol_bio):
    res = rep["residuals"]
    return (
        _at_most("union_gram", res.get("union_gram"), tol_bio)
        + _at_most("xprime_gram", res.get("xprime_gram"), tol_bio)
        + _at_most("span_angle", res.get("span_angle"), tol_bio)
        + _positive_lower("riesz", rep["bounds"]["riesz"])
    )


def _oblique(rep, expect, tol_bio):
    fails = _positive_lower("riesz", rep["bounds"]["riesz"])
    if rep["checks"].get("gamma_in_w0") is not True:
        fails.append("gamma_in_w0 is not true")
    return fails


def _frame_oblique(rep, expect, tol_bio):
    return _positive_lower("frame", rep["bounds"]["frame"])


def _dual(rep, expect, tol_bio):
    fails = _at_most("biorthogonality", rep["residuals"]["biorthogonality"], tol_bio)
    if rep["checks"].get("biorthogonal") is not True:
        fails.append("biorthogonal is not true")
    return fails


def _biortho(rep, expect, tol_bio):
    res = rep["residuals"]
    return (
        _at_most("pair residual", res.get("pair"), tol_bio)
        + _at_most("union residual", res.get("union"), tol_bio)
        + _positive_lower("riesz_gamma", rep["bounds"]["riesz_gamma"])
    )


def _oracle_check(rep, expect, tol_bio):
    oracle = rep["oracle"]
    fails = []
    for key in ("riesz", "frame"):
        if oracle["fiber"][key] is None or oracle["dense"][key] is None:
            fails.append(f"{key} bounds missing: fiber {oracle['fiber'][key]}, dense {oracle['dense'][key]}")
    if not fails:
        scale = max(1.0, oracle["dense"]["frame"]["upper"])
        fails += _at_most("fiber vs dense bound gap", oracle["max_bound_diff"], 1e-9 * scale)
    return fails


_CERTIFICATES = {
    "analyze": _analyze,
    "complement": _complement,
    "oblique": _oblique,
    "frame-oblique": _frame_oblique,
    "dual": _dual,
    "biortho": _biortho,
    "oracle-check": _oracle_check,
}


def _bound_curve(rows: int, text: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) != rows:
        return [f"bound curve has {len(lines)} rows, expected {rows}"]
    values = np.array([[float(x) for x in line.split("\t")] for line in lines])
    if values.shape[1] != 3 or not np.all(values[:, 1] > 0) or not np.all(values[:, 1] <= values[:, 2]):
        return ["bound curve rows are not (angle, min > 0, max >= min)"]
    return []


# ---------------------------------------------------------------------------
# independent exact-mode checks: transform the output with numpy's FFT


def _fibers(members: list, job: dict) -> np.ndarray:
    """Member entry lists -> fibers (points, channels, members) via np.fft."""
    orders = tuple(job["system"]["group"]["orders"])
    m = job["system"]["channels"]
    dense = np.zeros(orders + (m, len(members)), dtype=np.complex128)
    for j, entries in enumerate(members):
        for e in entries:
            dense[tuple(e["element"]) + (e["channel"], j)] += complex(e["re"], e["im"])
    axes = tuple(range(len(orders)))
    return np.fft.fftn(dense, axes=axes, norm="ortho").reshape(math.prod(orders), m, len(members))


def _gram(F: np.ndarray, Ft: np.ndarray) -> np.ndarray:
    return F.shape[0] * np.einsum("pci,pcj->pij", F, Ft.conj())


def _complement_fibers(rep, job, tol_bio):
    Xp = _fibers(rep["families"]["Xprime"], job)
    X = _fibers(job["families"]["X"], job)
    eye = np.eye(Xp.shape[2])
    return (
        _at_most("fft check: X' Gram deviation", float(np.abs(_gram(Xp, Xp) - eye).max()), tol_bio)
        + _at_most("fft check: X' vs X cross Gram", float(np.abs(_gram(Xp, X)).max()), tol_bio)
    )


def _dual_fibers(rep, job, tol_bio):
    G = _fibers(job["families"]["Gamma"], job)
    Gt = _fibers(rep["families"]["Gammatilde"], job)
    dev = float(np.abs(_gram(G, Gt) - np.eye(G.shape[2])).max())
    return _at_most("fft check: Gamma vs Gammatilde cross Gram deviation", dev, tol_bio)


_FIBER_CHECKS = {"complement": _complement_fibers, "dual": _dual_fibers}


# ---------------------------------------------------------------------------
# non-abelian outputs


def witness(U: np.ndarray, job: dict, expect: dict) -> list[str]:
    """U must be unitary and intertwine sigma2 with sigma3."""
    s2 = array_from_json(job["reps"]["sigma2"])
    s3 = array_from_json(job["reps"]["sigma3"])
    d = expect["sizes"]["witness"]
    if U.shape != (d, d):
        return [f"witness shape {U.shape}, expected {(d, d)}"]
    return (
        _at_most("intertwining residual", float(np.abs(U @ s2 - s3 @ U).max()), RESIDUAL_TOL)
        + _at_most("unitarity residual", float(np.abs(U.conj().T @ U - np.eye(d)).max()), RESIDUAL_TOL)
    )


def wandering_complement(Xp: np.ndarray, job: dict, expect: dict) -> list[str]:
    """The orbit of X' must be orthonormal and orthogonal to the orbit of X."""
    k = expect["sizes"]["Xprime"]
    lam = regular(job["table"], job["mult"])
    if Xp.shape != (lam.shape[1], k):
        return [f"complement shape {Xp.shape}, expected {(lam.shape[1], k)}"]
    orbit = np.concatenate(list(lam @ Xp), axis=1)
    X = array_from_json(job["X"])
    orbit_x = np.concatenate(list(lam @ X), axis=1)
    return (
        _at_most("orbit orthonormality", float(np.abs(orbit.conj().T @ orbit - np.eye(orbit.shape[1])).max(initial=0.0)), RESIDUAL_TOL)
        + _at_most("orbit orthogonality to X", float(np.abs(orbit_x.conj().T @ orbit).max(initial=0.0)), RESIDUAL_TOL)
    )

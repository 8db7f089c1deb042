"""Regenerate the committed golden job files and reports under tests/golden/.

Run from the repository root:  python tools/make_golden.py

Reports are byte-exact for a fixed seed on a fixed BLAS/LAPACK build; after
a numerics-stack upgrade, regenerate and review the diff.  Each written
report is listed as "unchanged", "changed" or "new" against the bytes it
replaced.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wandergen import nonabelian as na
from wandergen.cli import main, render_json

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")


def entry(element, channel, value):
    return {
        "element": element,
        "channel": channel,
        "re": float(np.real(value)),
        "im": float(np.imag(value)),
    }


def z2_system():
    return {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 2}


def complement_job() -> dict:
    inv = 1.0 / math.sqrt(2.0)
    return {
        "version": "wandergen/1",
        "command": "complement",
        "system": z2_system(),
        "families": {
            "X": [[entry([0], 0, inv), entry([0], 1, inv)]],
            "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
        },
        "options": {"seed": 0},
    }


def oblique_job() -> dict:
    inv = 1.0 / math.sqrt(2.0)
    return {
        "version": "wandergen/1",
        "command": "oblique",
        "system": z2_system(),
        "families": {
            "X": [[entry([0], 0, inv), entry([0], 1, inv)]],
            "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
            "W0": [[entry([0], 1, 1.0)]],
        },
        "options": {"seed": 0},
    }


def matrix_json(M):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M]


def rep_json(rep: na.Representation) -> dict:
    return {"dim": rep.dim, "matrices": [matrix_json(m) for m in rep.matrices]}


def cancel_job() -> dict:
    group = na.symmetric_3()
    lam = na.regular_representation(group, 1)
    rng = np.random.default_rng(0)
    inv = [group.inverse(g) for g in group.elements()]
    R = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    C = np.mean(lam.matrices @ R @ lam.matrices[inv], axis=0)
    H = C + C.conj().T
    w, U = np.linalg.eigh(H)
    # group equal eigenvalues; pick the first 2-dimensional eigenspace (a copy
    # of the standard representation inside the regular one)
    clusters = []
    for i, val in enumerate(w):
        if clusters and abs(val - w[clusters[-1][-1]]) < 1e-8 * max(1.0, abs(val)):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    sel = next(c for c in clusters if len(c) == 2)
    rest = [i for i in range(6) if i not in sel]
    BS, BP = U[:, sel], U[:, rest]

    def haar(n):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, Rm = np.linalg.qr(A)
        return Q * (np.diag(Rm) / np.abs(np.diag(Rm)))

    sigma1 = na.Representation(group, BS.conj().T @ lam.matrices @ BS)
    B2 = BP @ haar(4)
    B3 = BP @ haar(4)
    sigma2 = na.Representation(group, B2.conj().T @ lam.matrices @ B2)
    sigma3 = na.Representation(group, B3.conj().T @ lam.matrices @ B3)
    return {
        "version": "wandergen/1",
        "command": "cancel",
        "system": {"group": {"kind": "builtin", "name": "S3"}},
        "representations": {
            "rho": rep_json(lam),
            "sigma1": rep_json(sigma1),
            "sigma2": rep_json(sigma2),
            "sigma3": rep_json(sigma3),
        },
        "options": {"seed": 0},
    }


def write(name: str, job: dict) -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    job_path = os.path.join(GOLDEN, f"{name}.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        handle.write(render_json(job))
    report_path = os.path.join(GOLDEN, f"{name}.report.json")
    old = open(report_path, "rb").read() if os.path.exists(report_path) else None
    code = main(["--job", job_path, "--seed", "0", "--out", report_path])
    if code != 0:
        raise SystemExit(f"golden job {name} exited {code}")
    with open(report_path, "rb") as handle:
        status = "new" if old is None else "unchanged" if handle.read() == old else "changed"
    print(f"wrote {job_path} and {report_path}: report {status}")


if __name__ == "__main__":
    write("complement_z2", complement_job())
    write("oblique_z2", oblique_job())
    write("cancel_s3", cancel_job())

"""Print one line per job of the benchmark schedule: name, exit code and
the SHA-256 of the job's output.

Run from the repository root:  python tools/report_digest.py [--seeds 1 2]

Every job of ``benchmarks/gen.pool`` (all workloads, the round and the
small set, for each seed) runs in this process.  A CLI job runs through
``cli.run_job`` and its report text is digested.  A non-abelian job calls
the library as ``benchmarks/worker.py`` does: ``cancel`` builds its four
representations and prints the digest of the witness matrix bytes, then
the witness seed and residual; ``wandering_complement_general`` prints the
digest of the returned array's bytes.  A library error prints exit code 2
and its error code instead.  Diff the output of two checkouts to list the
outputs that differ:

    diff <(python A/tools/report_digest.py) <(python B/tools/report_digest.py)

BLAS runs on one thread, as in the benchmark: the dense oracle's last
digits depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import gen  # noqa: E402  (numpy only; reads nothing from the library)
import numpy as np  # noqa: E402
from wandergen import cli, nonabelian  # noqa: E402
from wandergen.errors import WandergenError  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nonabelian_digest(job: dict) -> tuple[int, str]:
    """(exit code, digest) of a non-abelian job, run as the benchmark runs it."""
    group = nonabelian.FiniteGroup(job["table"])
    try:
        if job["kind"] == "cancel":
            reps = {k: nonabelian.Representation(group, gen.array_from_json(v)) for k, v in job["reps"].items()}
            witness = nonabelian.cancel(reps["rho"], reps["sigma1"], reps["sigma2"], reps["sigma3"])
            matrix = np.ascontiguousarray(witness.matrix).tobytes()
            return 0, f"{_sha(matrix)} seed={witness.seed} residual={witness.residual!r}"
        X, Y = (gen.array_from_json(job[k]) for k in ("X", "Y"))
        columns = nonabelian.wandering_complement_general(X, Y, group, job["mult"])
        return 0, _sha(np.ascontiguousarray(columns).tobytes())
    except WandergenError as exc:
        return 2, exc.code


def digests(seeds: list[int]):
    """(name, exit code, digest) of every job, in schedule order."""
    args = cli.build_parser().parse_args(["--job", "-"])
    for seed in seeds:
        for workload in gen.WORKLOADS:
            for small in (False, True):
                for name, text, _ in gen.pool(workload, seed, small):
                    job = json.loads(text)
                    try:
                        if "kind" in job:
                            code, digest = nonabelian_digest(job)
                        else:
                            report, code = cli.run_job(job, args)
                            digest = _sha(report.encode())
                    except Exception as exc:  # report the failure instead of a digest
                        code, digest = "raised", _sha(f"{type(exc).__name__}: {exc}".encode())
                    yield f"{workload}/{seed}/{name}", code, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    for name, code, digest in digests(parser.parse_args(argv).seeds):
        print(name, code, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Print one line per CLI job of the benchmark schedule: name, exit code and
the SHA-256 of the report text.

Run from the repository root:  python tools/report_digest.py [--seeds 1 2]

Every CLI job of ``benchmarks/gen.pool`` (all workloads, the round and the
small set, for each seed) runs through ``cli.run_job`` in this process; the
non-abelian jobs that call the library directly are not CLI jobs and are
skipped.  Diff the output of two checkouts to list the reports that differ:

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
from wandergen import cli  # noqa: E402


def digests(seeds: list[int]):
    """(name, exit code, hex digest) of every CLI job, in schedule order."""
    args = cli.build_parser().parse_args(["--job", "-"])
    for seed in seeds:
        for workload in gen.WORKLOADS:
            for small in (False, True):
                for name, text, _ in gen.pool(workload, seed, small):
                    job = json.loads(text)
                    if "kind" in job:
                        continue
                    try:
                        report, code = cli.run_job(job, args)
                    except Exception as exc:  # report the failure instead of a digest
                        report, code = f"{type(exc).__name__}: {exc}", "raised"
                    yield f"{workload}/{seed}/{name}", code, hashlib.sha256(report.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    for name, code, digest in digests(parser.parse_args(argv).seeds):
        print(name, code, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Traced stand-in for ``python -m wandergen``: install the benchmark's span
wrappers, run ``wandergen.cli.main`` on the remaining arguments, write the
spans once at exit.

    python benchmarks/launcher.py --spans OUT.json --job-id ID -- --job JOB.json
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--job-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    from wandergen import cli

    tracer.start()
    tracer.begin_job(args.job_id)
    try:
        return cli.main(cli_args)
    finally:
        tracer.enabled = False
        tracer.write(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())

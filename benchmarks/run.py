"""wandergen job-stream benchmark.

    python3 benchmarks/run.py --workload exact-fiber --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1            # all four workloads, one after another
    python3 benchmarks/run.py --smoke             # self-test on a few small jobs

Each workload runs in fresh processes of its own (``worker.py``): the inputs
come from ``gen.py`` (numpy only, seeded), the schedule is one round of jobs
repeated as a closed loop with one client, and every output is checked
untimed (``check.py``).  A run times at least one whole round and goes on
until the timed span reaches ``--seconds``; each job's wall time is the mean
of its repeats.  ``--trace 1`` splits the time into an untraced and a traced
half; the traced half wraps the library's public functions from the
benchmark's own code (``tracing.py``) and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ["cli-cold", "exact-fiber", "shift-fiber", "dense-paths"]
SETUPS = 3  # set-ups per untraced run; setup_s is their median
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "certify_s.p50": "s",
    "certify_s.p90": "s",
    "construct_s.p50": "s",
    "construct_s.p90": "s",
    "peak_rss_mb": "MiB",
    "failed_ratio": "1",
}
# failed_ratio is 0 on a correct run; the result line carries it as "failed"
RESULT_METRICS = [name for name in END_TO_END if name != "failed_ratio"]


def per_layer_units() -> dict:
    from tracing import LAYER_NAMES, LAYERS, PER_CALL, span_name

    units = {}
    for layer, fns in LAYERS.items():
        if layer != "_linalg":
            for fn in fns:
                key = span_name(layer, fn)
                if key in PER_CALL:
                    units[f"{key}.calls"] = "count/job"
                units[f"{key}.s"] = "s/job"
    units.update({"linalg.calls": "count/job", "linalg.s": "s/job"})
    units.update({f"{layer}.self_s": "s/job" for layer in LAYER_NAMES})
    units.update({
        "groups.character_table.hit_ratio": "1",
        "groups.character_table.entries": "count",
        "fibers.fiber_tensor.repeat_ratio": "1",
        "nonabelian.intertwiner_attempts": "count",
        "cli.report_bytes": "B",
        "cli.startup_s": "s",
        "cli.import_s": "s",
        "import.numpy_s": "s",
        "import.scipy_s": "s",
        "trace.overhead_ratio": "1",
    })
    return units


# ---------------------------------------------------------------------------
# environment


def environment() -> list[str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_VARS)
    return [
        f"python {sys.version.split()[0]}, numpy {np.__version__}, scipy {scipy.__version__}",
        f"blas {blas.get('name')} {blas.get('version', '')}, nproc {os.cpu_count()}, {threads}",
    ]


def import_times() -> dict:
    """Cumulative import seconds from `python -X importtime -c "import wandergen.cli"`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wandergen.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    rows = []  # (depth, module, cumulative seconds), children listed before parents
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cumulative) / 1e6))
    totals = {"wandergen": 0.0, "numpy": 0.0, "scipy": 0.0}
    ancestors: list[str] = []  # module names at depths 0..d of the row being read
    for depth, name, cum in reversed(rows):
        del ancestors[depth:]
        root = name.split(".")[0]
        if root in totals and all(a.split(".")[0] != root for a in ancestors):
            totals[root] += cum
        ancestors.append(name)
    return {"cli.import_s": totals["wandergen"], "import.numpy_s": totals["numpy"], "import.scipy_s": totals["scipy"]}


# ---------------------------------------------------------------------------
# one workload


def _spawn_worker(workload: str, work: str, seconds: float, trace: int, probe: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--root", ROOT,
           "--dir", work, "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it moves smoothly when
    a gap between job sizes sits next to the quantile."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def job_means(loop: dict) -> list[float]:
    """Mean wall time of each job of the schedule over its repeats."""
    samples, per_round = loop["samples"], loop["per_round"]
    return [statistics.fmean(dt for _, dt, _ in samples[j::per_round]) for j in range(per_round)]


def jobs_per_s(loop: dict) -> float:
    """Correct jobs per second over one round at each job's mean wall time."""
    samples = loop["samples"]
    correct = sum(1 for _, _, ok in samples if ok) / len(samples)
    return correct * loop["per_round"] / sum(job_means(loop))


def end_to_end(setups: list[float], loop: dict, peak_rss_mb: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one timed loop.

    Sample i is job i % per_round of one fixed schedule, and the last round
    may be cut short.  Each job's wall time is the mean of its repeats; the
    percentiles are taken over the schedule's jobs and the throughput over
    one round at those means, so every job counts once however far the last
    round got, and single slow repeats average out.
    """
    samples, per_round = loop["samples"], loop["per_round"]
    attempted = len(samples)
    failed = sum(1 for _, _, ok in samples if not ok)
    mean_s = job_means(loop)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs_per_s(loop),
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": failed / attempted,
    }
    rounds = f"{attempted / per_round:.2f} rounds of {per_round} jobs"
    notes = {"setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
             "jobs_per_s": f"{attempted - failed} correct jobs in {loop['busy_s']:.2f} s timed, {rounds}",
             "failed_ratio": f"{failed} of {attempted}"}
    for kind in ("certify", "construct"):
        jobs = [mean_s[j] for j in range(per_round) if samples[j][0] == kind]
        p50, p90 = quantile(jobs, 0.5), quantile(jobs, 0.9)
        beyond = sum(1 for t in jobs if t > p90)
        values[f"{kind}_s.p50"] = p50
        values[f"{kind}_s.p90"] = p90
        count = f"n={sum(1 for k, _, _ in samples if k == kind)} over {len(jobs)} jobs"
        notes[f"{kind}_s.p50"] = count
        notes[f"{kind}_s.p90"] = f"{count}, {beyond} jobs beyond; fewer than the 10 samples the percentile rule asks for"
    lines = [f"  {name:18s} {values[name]:.6g} {unit}  ({notes[name]})" if name in notes
             else f"  {name:18s} {values[name]:.6g} {unit}" for name, unit in END_TO_END.items()]
    return values, lines


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    import gen

    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        manifest = {"round": gen.pool(workload, seed, small=smoke), "warm": gen.pool(workload, seed, small=True)}
        for part, jobs in manifest.items():
            for i, (name, text, expect) in enumerate(jobs):
                with open(os.path.join(work, f"{part}-{name}.json"), "w", encoding="utf-8") as handle:
                    handle.write(text)
                jobs[i] = {"name": name, "file": f"{part}-{name}.json", "expect": expect}
        with open(os.path.join(work, "manifest.json"), "w") as handle:
            json.dump(manifest, handle)
        setups = []
        if not trace:
            setups = [_spawn_worker(workload, work, seconds, 0, True)["setup_s"] for _ in range(SETUPS - 1)]
        result = _spawn_worker(workload, work, seconds, trace, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])
    loop = result["untraced"]
    values, lines = end_to_end(setups, loop, result["peak_rss_mb"])
    failures = list(loop["failures"])
    out = {"workload": workload, "end_to_end": values, "lines": lines}
    if trace:
        import tracing

        traced = result["traced"]
        failures += traced["failures"]
        layer = tracing.layer_metrics(result["trace_state"], len(traced["samples"]))
        startup = result.get("startup_s") or []
        layer["cli.startup_s"] = statistics.mean(startup) if startup else 0.0
        layer.update(import_times())
        layer["trace.overhead_ratio"] = values["jobs_per_s"] / jobs_per_s(traced)
        out["per_layer"] = layer
        spans_path = os.path.join(WORK, f"spans-{workload}-seed{seed}.json")
        with open(spans_path, "w") as handle:
            json.dump(result["trace_state"]["spans"], handle)
        out["spans_path"] = spans_path
        samples = loop["samples"] + traced["samples"]
    else:
        samples = loop["samples"]
    out["attempted"] = len(samples)
    out["failed"] = sum(1 for _, _, ok in samples if not ok)
    out["failures"] = failures
    return out


def print_workload(out: dict, trace: int) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    print(f"workload {out['workload']}")
    for line in out["lines"]:
        print(line)
    for failure in out["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        units = per_layer_units()
        print(f"  per-layer metrics, per traced job (spans in {os.path.relpath(out['spans_path'], ROOT)}):")
        metrics = {name: {"value": out["per_layer"][name], "unit": unit} for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"    {name:46s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": out["end_to_end"][name], "unit": END_TO_END[name]} for name in RESULT_METRICS}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------


def smoke() -> int:
    """Self-test: determinism of the inputs, then a few small jobs of every
    workload untraced and traced, checking every metric name and unit."""
    import gen

    for workload in WORKLOADS:
        a, b, c = gen.pool(workload, 7), gen.pool(workload, 7), gen.pool(workload, 8)
        if a != b:
            raise SystemExit(f"{workload}: the same seed gave different inputs")
        if [t for _, t, _ in a] == [t for _, t, _ in c]:
            raise SystemExit(f"{workload}: different seeds gave identical inputs")
    print("inputs: byte-identical for one seed, different across seeds")
    units = per_layer_units()
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_workload(workload, 7, 0.0, trace, smoke=True)
            result = print_workload(out, trace)
            expected = units if trace else {n: END_TO_END[n] for n in RESULT_METRICS}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise SystemExit(f"{workload}: metric names or units differ: {set(got) ^ set(expected)}")
            printed = "\n".join(out["lines"])
            missing = [n for n, u in END_TO_END.items() if f"{n} " not in printed or f" {u}" not in printed]
            if missing:
                raise SystemExit(f"{workload}: end-to-end metrics not printed: {missing}")
            if out["end_to_end"]["failed_ratio"] != 0 or result["failed"]:
                raise SystemExit(f"{workload}: failures: {out['failures']}")
    print("smoke: ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test on a few small jobs")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wandergen", "cli.py")) or not os.path.isdir(
            os.path.join(ROOT, "tests", "golden")):
        sys.stderr.write(f"no wandergen checkout at {ROOT} (need src/wandergen and tests/golden)\n")
        return 2
    for var in BLAS_VARS:  # the same BLAS threading on every run and in every child
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, HERE)
    for line in environment():
        print(line)
    if args.smoke:
        return smoke()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = print_workload(run_workload(workload, args.seed, args.seconds, args.trace), args.trace)
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

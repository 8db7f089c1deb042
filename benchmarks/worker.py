"""One workload in one fresh process: set up, run rounds of the job schedule
as a closed loop (one client, one job at a time), check every output
untimed, and print one JSON result line.

Run by ``run.py``; not meant to be called by hand.
"""

import time

_T_IMPORT = time.time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--probe", action="store_true", help="stop after set-up")
    p.add_argument("--t0", type=float, default=_T_IMPORT, help="wall time the process was spawned")
    return p.parse_args()


class Job:
    __slots__ = ("name", "expect", "payload", "path", "golden")

    def __init__(self, name, expect, payload=None, path=None, golden=None):
        self.name, self.expect, self.payload, self.path, self.golden = name, expect, payload, path, golden

    @property
    def kind(self) -> str:
        return self.expect["class"]


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess:
    def __init__(self, root: str, manifest: dict, work: str):
        import gen
        from wandergen import cli, nonabelian

        self.cli, self.nonabelian, self.gen = cli, nonabelian, gen
        self.args = cli.build_parser().parse_args(["--job", "-"])
        self.jobs = [self._load(work, entry) for entry in manifest["round"]]
        self.warm = [self._load(work, entry) for entry in manifest["warm"]]

    def _load(self, work: str, entry: dict) -> Job:
        with open(os.path.join(work, entry["file"]), encoding="utf-8") as handle:
            payload = json.load(handle)
        if "kind" in payload:  # non-abelian: decode arrays and build the group now
            payload["group"] = self.nonabelian.FiniteGroup(payload["table"])
            if payload["kind"] == "cancel":
                payload["arrays"] = {k: self.gen.array_from_json(v) for k, v in payload["reps"].items()}
            else:
                payload["arrays"] = {k: self.gen.array_from_json(payload[k]) for k in ("X", "Y")}
        return Job(entry["name"], entry["expect"], payload)

    def run(self, job: Job):
        """Timed part of one job; returns its raw output."""
        p = job.payload
        kind = p.get("kind")
        if kind == "cancel":
            na = self.nonabelian
            reps = {k: na.Representation(p["group"], v) for k, v in p["arrays"].items()}
            return na.cancel(reps["rho"], reps["sigma1"], reps["sigma2"], reps["sigma3"])
        if kind == "wandering_complement_general":
            a = p["arrays"]
            return self.nonabelian.wandering_complement_general(a["X"], a["Y"], p["group"], p["mult"])
        return self.cli.run_job(p, self.args)

    def check(self, job: Job, out) -> list:
        import check

        p = job.payload
        kind = p.get("kind")
        if kind == "cancel":
            return check.witness(out.matrix, p, job.expect)
        if kind == "wandering_complement_general":
            return check.wandering_complement(out, p, job.expect)
        text, code = out
        return check.report(job.expect, p, code, text)

    def warm_jobs(self) -> list:
        """One small job per command, then the cheapest round job per group,
        so that per-group caches are filled before timing."""
        cheapest = {}
        for job in sorted(self.jobs, key=lambda j: _size(j.payload)):
            p = job.payload
            cheapest.setdefault(json.dumps(p.get("system") or p.get("table")), job)
        return self.warm + list(cheapest.values())


def _size(payload) -> int:
    if "kind" in payload:
        return sum(a.size for a in payload["arrays"].values())
    return sum(len(member) for fam in payload["families"].values() for member in fam)


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m wandergen --job FILE` per job


class ColdCli:
    def __init__(self, root: str, manifest: dict, work: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spawn_dir = os.path.join(work, f"spawn-{os.getpid()}")
        os.makedirs(self.spawn_dir, exist_ok=True)
        self.jobs = [self._load(work, entry) for entry in manifest["round"]]
        self.warm = [self._load(work, entry) for entry in manifest["warm"][:1]]
        golden_dir = os.path.join(root, "tests", "golden")
        for name in sorted(os.listdir(golden_dir)):
            if name.endswith(".json") and not name.endswith(".report.json"):
                with open(os.path.join(golden_dir, name), "rb") as handle:
                    data = handle.read()
                with open(os.path.join(golden_dir, name[:-5] + ".report.json"), "rb") as handle:
                    golden = handle.read()
                expect = {"class": "construct", "exit": 0}
                self.jobs.append(Job("golden-" + name[:-5], expect, None, self._write("golden-" + name, data), golden))
        self.trace = False  # set for the traced half of a --trace 1 run
        self.states = []

    def _load(self, work: str, entry: dict) -> Job:
        with open(os.path.join(work, entry["file"]), "rb") as handle:
            data = handle.read()
        return Job(entry["name"], entry["expect"], json.loads(data), self._write(entry["file"], data))

    def _write(self, name: str, data: bytes) -> str:
        path = os.path.join(self.spawn_dir, name)
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    def run(self, job: Job):
        if self.trace:
            spans = job.path + ".spans"
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), "--spans", spans, "--job-id", job.name,
                   "--", "--job", job.path]
        else:
            cmd = [sys.executable, "-m", "wandergen", "--job", job.path]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, job: Job, out) -> list:
        import check

        code, stdout = out
        if self.trace and os.path.exists(job.path + ".spans"):
            with open(job.path + ".spans") as handle:
                self.states.append(json.load(handle))
        if job.golden is not None:
            if code != 0 or stdout != job.golden:
                return [f"golden report differs (exit {code}, {len(stdout)} bytes vs {len(job.golden)})"]
            return []
        return check.report(job.expect, job.payload, code, stdout.decode())

    def warm_jobs(self) -> list:
        return self.warm  # one spawn warms the OS file cache


# ---------------------------------------------------------------------------


def _loop(runner, seconds: float, trace_hook=None) -> dict:
    """The schedule's jobs in order, round after round, until at least one
    whole round has run and the timed span reaches ``seconds``.  Sample i is
    job i % len(runner.jobs); the last round may be cut short."""
    samples, failures = [], []
    busy = 0.0
    clock = time.perf_counter
    jobs = runner.jobs
    i = 0
    while i < len(jobs) or busy < seconds:
        job, rnd = jobs[i % len(jobs)], i // len(jobs)
        i += 1
        if trace_hook:
            trace_hook(f"{rnd}:{job.name}")
        start = clock()
        try:
            out = runner.run(job)
        except Exception as exc:  # an unexpected exception is a failed job
            dt = clock() - start
            fails = [f"raised {type(exc).__name__}: {exc}"]
        else:
            dt = clock() - start
            try:
                fails = runner.check(job, out)
            except Exception as exc:  # malformed output the checker cannot read
                fails = [f"output check raised {type(exc).__name__}: {exc}"]
        busy += dt
        samples.append([job.kind, dt, not fails])
        failures += [f"{job.name} (round {rnd}): {msg}" for msg in fails]
    return {"samples": samples, "failures": failures, "busy_s": busy, "per_round": len(jobs)}


def _peak_rss_mb(children: bool) -> float:
    """Peak resident set of the largest cold child, or of this process.

    For this process the kernel's own high-water mark of the current address
    space (VmHWM) is used: ru_maxrss also counts the parent's pages at the
    moment of exec, which would charge run.py's memory to the workload.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    args = _args()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(args.root, "src"))
    with open(os.path.join(args.dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    tracer = None
    if args.workload == "cli-cold":
        runner = ColdCli(args.root, manifest, args.dir)
    else:
        import wandergen

        if not os.path.abspath(wandergen.__file__).startswith(os.path.join(args.root, "src")):
            raise SystemExit(f"wandergen imported from {wandergen.__file__}, not from the checkout")
        runner = InProcess(args.root, manifest, args.dir)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
    for job in runner.warm_jobs():
        runner.check(job, runner.run(job))  # untimed warm-up; outputs are not counted
    # The decoded inputs of a whole round are the benchmark's, not the
    # library's: keep the collector from rescanning them during timed jobs.
    gc.collect()
    gc.freeze()
    setup_s = time.time() - args.t0
    result = {"setup_s": setup_s}
    if not args.probe:
        phase_s = args.seconds / 2 if args.trace else args.seconds
        result["untraced"] = _loop(runner, phase_s)
        if args.trace:
            if tracer is None:
                runner.trace = True
                traced = result["traced"] = _loop(runner, phase_s)
                from tracing import merge

                # wall time of each cold job outside the child's run_job span
                result["startup_s"] = [
                    sample[1] - sum(e - s for name, s, e, parent, _ in state["spans"]
                                    if name == "cli.run_job" and parent < 0)
                    for sample, state in zip(traced["samples"], runner.states)
                ]
                result["trace_state"] = merge(runner.states)
            else:
                tracer.start()
                result["traced"] = _loop(runner, phase_s, tracer.begin_job)
                tracer.enabled = False
                result["trace_state"] = tracer.state()
    result["peak_rss_mb"] = _peak_rss_mb(args.workload == "cli-cold")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""tools/report_digest.py: one (name, exit code, SHA-256) line per job."""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "report_digest.py")


@pytest.fixture
def digest_tool(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the tool sets these; undone after the test
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    small = module.gen.pool
    # the small job sets only, so the test stays quick
    monkeypatch.setattr(module.gen, "pool", lambda workload, seed, is_small: small(workload, seed, True))
    return module


def test_one_line_per_cli_job(digest_tool, capsys):
    assert digest_tool.main(["--seeds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [
        f"{workload}/3/{name}"
        for workload in digest_tool.gen.WORKLOADS
        for _ in range(2)
        for name, text, _ in digest_tool.gen.pool(workload, 3, True)
    ]
    assert [line.split()[0] for line in lines] == expected
    assert {line.split()[1] for line in lines} <= {"0", "2"}
    name, text, _ = digest_tool.gen.pool("exact-fiber", 3, True)[0]
    args = digest_tool.cli.build_parser().parse_args(["--job", "-"])
    report, code = digest_tool.cli.run_job(json.loads(text), args)
    assert lines[expected.index(f"exact-fiber/3/{name}")].split()[1:] == [
        str(code), hashlib.sha256(report.encode()).hexdigest()
    ]
    # the non-abelian jobs: the witness of cancel, the columns of the complement
    na, gen = digest_tool.nonabelian, digest_tool.gen
    kinds = {json.loads(text)["kind"]: (name, json.loads(text))
             for name, text, _ in gen.pool("dense-paths", 3, True) if "kind" in json.loads(text)}
    name, job = kinds["cancel"]
    group = na.FiniteGroup(job["table"])
    reps = {k: na.Representation(group, gen.array_from_json(v)) for k, v in job["reps"].items()}
    witness = na.cancel(reps["rho"], reps["sigma1"], reps["sigma2"], reps["sigma3"])
    assert lines[expected.index(f"dense-paths/3/{name}")].split()[1:] == [
        "0", hashlib.sha256(witness.matrix.tobytes()).hexdigest(),
        f"seed={witness.seed}", f"residual={witness.residual!r}",
    ]
    name, job = kinds["wandering_complement_general"]
    X, Y = gen.array_from_json(job["X"]), gen.array_from_json(job["Y"])
    columns = na.wandering_complement_general(X, Y, na.FiniteGroup(job["table"]), job["mult"])
    assert lines[expected.index(f"dense-paths/3/{name}")].split()[1:] == [
        "0", hashlib.sha256(np.ascontiguousarray(columns).tobytes()).hexdigest()
    ]


def test_library_error_prints_its_code(digest_tool):
    job = json.loads(digest_tool.gen.pool("dense-paths", 3, True)[1][1])
    assert job["kind"] == "cancel"
    # the trivial representation is no multiple of the regular one
    job["reps"]["rho"] = digest_tool.gen.array_json(np.tile(np.eye(12), (6, 1, 1)))
    assert digest_tool.nonabelian_digest(job) == (2, "HypothesisFailure")

"""tools/report_digest.py: one (name, exit code, SHA-256) line per CLI job."""

import hashlib
import importlib.util
import json
import os

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
        if "kind" not in json.loads(text)  # non-abelian jobs bypass the CLI
    ]
    assert [line.split()[0] for line in lines] == expected
    assert {line.split()[1] for line in lines} <= {"0", "2"}
    name, text, _ = digest_tool.gen.pool("exact-fiber", 3, True)[0]
    args = digest_tool.cli.build_parser().parse_args(["--job", "-"])
    report, code = digest_tool.cli.run_job(json.loads(text), args)
    assert lines[expected.index(f"exact-fiber/3/{name}")].split()[1:] == [
        str(code), hashlib.sha256(report.encode()).hexdigest()
    ]

"""The library runs on numpy alone: no module imports scipy, the package
metadata requires only numpy, and a run of every CLI command leaves scipy
unloaded.  scipy may still serve the tests as a reference implementation.
The same run leaves ``numpy.ma`` unloaded, whose import (through
``np.unique``, for one) costs a cold CLI run several milliseconds."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"


def imported_roots(path: pathlib.Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted((SRC / "wandergen").rglob("*.py"))
    assert modules
    offenders = [str(m.relative_to(ROOT)) for m in modules if "scipy" in imported_roots(m)]
    assert offenders == []


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [dep.split(">")[0].split("=")[0].split("<")[0].strip() for dep in project["dependencies"]]
    assert names == ["numpy"]


def entry(element, channel, re_part, im_part=0.0):
    return {"element": element, "channel": channel, "re": re_part, "im": im_part}


def z2_job(command, families):
    return {
        "version": "wandergen/1",
        "command": command,
        "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 2},
        "families": families,
    }


def small_jobs() -> dict:
    """One small job per CLI command; the golden files cover complement,
    oblique and cancel."""
    inv = 2 ** -0.5
    X = [[entry([0], 0, inv), entry([0], 1, inv)]]
    Y = [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]]
    deltas = [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]]
    jobs = {name: json.loads((GOLDEN / f"{name}_z2.json").read_text()) for name in ("complement", "oblique")}
    jobs["cancel"] = json.loads((GOLDEN / "cancel_s3.json").read_text())
    jobs["analyze"] = z2_job("analyze", {"X": deltas})
    jobs["oracle-check"] = z2_job("oracle-check", {"X": deltas})
    jobs["frame-oblique"] = z2_job("frame-oblique", {"X": X, "Y": Y, "W0": [[entry([0], 1, 1.0)]]})
    jobs["dual"] = z2_job("dual", {
        "Gamma": [[entry([0], 1, -(2 ** 0.5))]],
        "W0t": [[entry([0], 1, 1.0), entry([0], 0, 0.4)]],
    })
    jobs["biortho"] = z2_job("biortho", {"X": X, "Xt": X, "Y": Y, "Yt": Y})
    jobs["bound-curve"] = {
        "version": "wandergen/1",
        "command": "bound-curve",
        "system": {"group": {"kind": "integer_shift", "grid": 16}, "channels": 1},
        "families": {"X": [[{"element": 0, "channel": 0, "re": 1.0, "im": 0.0}]]},
    }
    return jobs


PROBE = """
import json, sys
from wandergen.cli import main
codes, masked = {}, []
for name, path, out in json.loads(sys.argv[1]):
    codes[name] = main(["--job", path, "--out", out])
    if "numpy.ma" in sys.modules and not masked:
        masked.append(name)  # the first command whose run loaded numpy.ma
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules, "numpy.ma": masked}))
"""


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One small job per CLI command, all run in one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("cli_run")
    jobs = small_jobs()
    assert {j["command"] for j in jobs.values()} == {
        "analyze", "complement", "oblique", "frame-oblique", "dual", "biortho",
        "oracle-check", "bound-curve", "cancel",
    }
    runs = []
    for name, job in jobs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(job))
        runs.append((name, str(path), str(tmp_path / f"{name}.report")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == {name: 0 for name in jobs}
    return result


def test_every_cli_command_leaves_scipy_unloaded(cli_run):
    assert cli_run["scipy"] is False


def test_every_cli_command_leaves_numpy_ma_unloaded(cli_run):
    assert cli_run["numpy.ma"] == []

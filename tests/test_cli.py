"""CLI: job handling, deterministic reports, golden files, error codes."""

import collections
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandergen import cli, oblique, oracle, wandering
from wandergen.cli import _parse_member, main, render_json
from wandergen.fibers import Family, SampledFamily, family_from_fibers, gram_fibers
from wandergen.errors import NotContained, SupportExceedsGrid
from wandergen.groups import FiniteAbelian, GroupVector, IntegerShift, SystemSpace, delta
from conftest import (
    benchmark_gen,
    intercalate_loop,
    random_biortho_quadruple,
    random_frame_instance,
    random_oblique_instance,
    random_riesz_family,
    random_robertson_instance,
    random_space,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ROOT = os.path.join(os.path.dirname(__file__), "..")


def run(tmp_path, job, name="job.json", extra=()):
    job_path = tmp_path / name
    out_path = tmp_path / (name + ".report")
    if isinstance(job, (bytes, str)):
        mode = "wb" if isinstance(job, bytes) else "w"
        with open(job_path, mode) as handle:
            handle.write(job)
    else:
        job_path.write_text(json.dumps(job))
    code = main(["--job", str(job_path), "--out", str(out_path), *extra])
    return code, json.loads(out_path.read_text()), out_path.read_bytes()


def entry(element, channel, re_part, im_part=0.0):
    return {"element": element, "channel": channel, "re": re_part, "im": im_part}


def z2_system():
    return {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 2}


def orthonormal_delta_job():
    return {
        "version": "wandergen/1",
        "command": "analyze",
        "system": z2_system(),
        "families": {"X": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]]},
        "options": {"seed": 0},
    }


class TestAnalyze:
    def test_orthonormal_deltas(self, tmp_path):
        code, report, _ = run(tmp_path, orthonormal_delta_job())
        assert code == 0
        assert report["status"] == "ok"
        assert report["bounds"]["riesz"]["lower"] == pytest.approx(1.0, abs=1e-9)
        assert report["bounds"]["riesz"]["upper"] == pytest.approx(1.0, abs=1e-9)
        assert report["checks"]["wandering"] and report["checks"]["complete"]

    def test_not_riesz_family_still_reports_frame(self, tmp_path):
        job = orthonormal_delta_job()
        job["families"]["X"] = [[entry([0], 0, 1.0)], [entry([0], 0, 1.0)]]
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["bounds"]["riesz"] is None
        assert report["bounds"]["riesz_error"] == "NotRiesz"
        assert report["bounds"]["frame"]["lower"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("tol_rank", ["1e-9", "1e-3"])
    def test_complete_agrees_with_riesz_at_the_job_tolerance(self, tmp_path, tol_rank):
        job = orthonormal_delta_job()
        job["families"]["X"] = [[entry([0], 0, 1.0)], [entry([0], 1, 1e-6)]]
        code, report, _ = run(tmp_path, job, extra=("--tol-rank", tol_rank))
        assert code == 0
        assert report["bounds"]["riesz_error"] == "NotRiesz"
        assert report["checks"]["complete"] is False

    def test_shift_mode_flagged(self, tmp_path):
        job = {
            "version": "wandergen/1",
            "command": "analyze",
            "system": {"group": {"kind": "integer_shift", "grid": 32}, "channels": 1},
            "families": {"X": [[{"element": 0, "channel": 0, "re": 1.0, "im": 0.0}]]},
        }
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["exact"] is False
        assert report["bounds"]["riesz"]["exact"] is False


class TestGoldenFiles:
    @pytest.mark.parametrize("name", ["complement_z2", "oblique_z2", "cancel_s3"])
    def test_byte_for_byte(self, tmp_path, name):
        out_path = tmp_path / f"{name}.report.json"
        code = main(
            ["--job", os.path.join(GOLDEN, f"{name}.json"), "--seed", "0", "--out", str(out_path)]
        )
        assert code == 0
        committed = open(os.path.join(GOLDEN, f"{name}.report.json"), "rb").read()
        assert out_path.read_bytes() == committed

    def test_complement_report_contents(self, tmp_path):
        code = main(
            ["--job", os.path.join(GOLDEN, "complement_z2.json"), "--out", str(tmp_path / "r")]
        )
        report = json.loads((tmp_path / "r").read_text())
        assert code == 0
        assert report["sizes"]["Xprime"] == 1
        assert report["residuals"]["union_gram"] <= 1e-9
        assert report["residuals"]["span_angle"] <= 1e-8

    def test_determinism_two_runs(self, tmp_path):
        job = os.path.join(GOLDEN, "oblique_z2.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--job", job, "--seed", "0", "--out", str(a)]) == 0
        assert main(["--job", job, "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGoldenOracleEvidence:
    """The committed Z2 golden families against the dense oracle: the
    transform leaves no rounding noise in their imaginary parts."""

    SPACE = SystemSpace(FiniteAbelian((2,)), 2)

    def family(self, members):
        return Family(self.SPACE, [
            GroupVector(self.SPACE, {(tuple(e["element"]), e["channel"]): complex(e["re"], e["im"]) for e in m})
            for m in members
        ])

    def load(self, name):
        with open(os.path.join(GOLDEN, f"{name}.json")) as handle:
            job = json.load(handle)
        with open(os.path.join(GOLDEN, f"{name}.report.json")) as handle:
            report = json.load(handle)
        families = {k: self.family(v) for k, v in job["families"].items()}
        return families, report

    @staticmethod
    def imaginary_parts(members):
        return [e["im"] for m in members for e in m]

    def test_complement_z2(self):
        fams, report = self.load("complement_z2")
        members = report["families"]["Xprime"]
        assert all(im == 0.0 for im in self.imaginary_parts(members))
        MX, MY = (oracle.dense_family_matrix(fams[k]) for k in ("X", "Y"))
        MXp = oracle.dense_family_matrix(self.family(members))
        # X' is orthogonal to X's orbit, and X (+) X' spans Y's orbit span
        assert np.max(np.abs(MX.conj().T @ MXp)) <= 1e-15
        union = oracle.dense_projector(np.hstack([MX, MXp]))
        assert np.max(np.abs(union - oracle.dense_projector(MY))) <= 1e-15

    def test_complement_z2_span_angle_against_mpmath(self, tmp_path):
        """The report's span angle against the largest principal angle between
        the same float fiber spans at 60 digits: sin of it is the norm of
        (I - P_union) P_Y, with each projector A (A^H A)^-1 A^H.  Both spans
        fill C^2 at both dual points, so the truth is 0 up to mpmath's
        rounding, and the report stays within 2 eps of it (an angle taken
        after orthonormalizing the cached bases again read 5.9e-16)."""
        import mpmath

        code = main(["--job", os.path.join(GOLDEN, "complement_z2.json"), "--out", str(tmp_path / "r")])
        assert code == 0
        report = json.loads((tmp_path / "r").read_text())
        fams, _ = self.load("complement_z2")
        union = Family(self.SPACE, fams["X"].members + self.family(report["families"]["Xprime"]).members)
        with mpmath.workdps(60):
            def projector(F):
                A = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in F])
                return A * mpmath.inverse(A.H * A) * A.H

            sines = []
            for p in range(self.SPACE.points):
                gap = (mpmath.eye(2) - projector(union.fibers[p])) * projector(fams["Y"].fibers[p])
                sines.append(max(mpmath.svd_c(gap, compute_uv=False)))
            truth = float(mpmath.asin(max(sines)))
        assert truth <= 1e-50
        assert abs(report["residuals"]["span_angle"] - truth) <= 2 * np.finfo(float).eps

    def test_oblique_z2(self):
        fams, report = self.load("oblique_z2")
        members = report["families"]["Gamma"]
        assert all(im == 0.0 for im in self.imaginary_parts(members))
        MX, MY, MW = (oracle.dense_family_matrix(fams[k]) for k in ("X", "Y", "W0"))
        MG = oracle.dense_family_matrix(self.family(members))
        # Gamma spans W0 and lies in it along V0; removing its V0 part
        # leaves a span that completes V0 to V1
        assert np.max(np.abs(oracle.dense_projector(MG) - oracle.dense_projector(MW))) <= 1e-15
        P = oracle.dense_oblique_projector(MX, MW)
        assert np.max(np.abs(P @ MG - MG)) <= 1e-15
        Z = (np.eye(MX.shape[0]) - oracle.dense_projector(MX)) @ MG
        split = oracle.dense_projector(Z) + oracle.dense_projector(MX)
        assert np.max(np.abs(split - oracle.dense_projector(MY))) <= 1e-15


class TestRoundTrip:
    def test_output_family_reproduces_bounds(self, tmp_path):
        code = main(
            ["--job", os.path.join(GOLDEN, "complement_z2.json"), "--out", str(tmp_path / "r")]
        )
        assert code == 0
        report = json.loads((tmp_path / "r").read_text())
        reported = report["bounds"]["riesz"]
        job = {
            "version": "wandergen/1",
            "command": "analyze",
            "system": z2_system(),
            "families": {"X": report["families"]["Xprime"]},
        }
        code2, report2, _ = run(tmp_path, job)
        assert code2 == 0
        again = report2["bounds"]["riesz"]
        assert abs(again["lower"] - reported["lower"]) <= 1e-10
        assert abs(again["upper"] - reported["upper"]) <= 1e-10


class TestObliqueCommand:
    def test_non_invariant_dense_w0_exits_2(self, tmp_path):
        inv = 1.0 / math.sqrt(2.0)
        job = {
            "version": "wandergen/1",
            "command": "oblique",
            "system": z2_system(),
            "families": {
                "X": [[entry([0], 0, inv), entry([0], 1, inv)]],
                "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
                # span of a single non-shift-closed dense vector
                "W0": [[entry([0], 1, 1.0), entry([1], 1, 0.5)]],
            },
            "options": {"w0_dense": True},
        }
        code, report, _ = run(tmp_path, job)
        assert code == 2
        assert report["status"] == "error"
        assert report["error"]["code"] == "NotInvariant"

    def test_orbit_w0_succeeds(self, tmp_path):
        code = main(
            ["--job", os.path.join(GOLDEN, "oblique_z2.json"), "--out", str(tmp_path / "r")]
        )
        report = json.loads((tmp_path / "r").read_text())
        assert code == 0
        assert report["sizes"]["Gamma"] == 1
        assert report["checks"]["gamma_in_w0"] is True
        assert report["bounds"]["riesz"]["lower"] > 0


class TestDenseW0Command:
    """options.w0_dense: one invariance test per job, the messages and their
    precedence over X/Y errors kept."""

    NOT_CLOSED = {"code": "NotInvariant", "message": "W0 is not closed under the group action"}

    @staticmethod
    def job(command, w0, x=None):
        inv = 1.0 / math.sqrt(2.0)
        return {
            "version": "wandergen/1",
            "command": command,
            "system": z2_system(),
            "families": {
                "X": x if x is not None else [[entry([0], 0, inv), entry([0], 1, inv)]],
                "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
                "W0": w0,
            },
            "options": {"w0_dense": True},
        }

    NON_INVARIANT = [[entry([0], 1, 1.0), entry([1], 1, 0.5)]]
    ORBIT_SPAN = [[entry([0], 1, 1.0)], [entry([1], 1, 1.0)]]  # both translates of the golden W0

    @pytest.mark.parametrize("command", ["oblique", "frame-oblique"])
    def test_non_invariant_message(self, tmp_path, command):
        code, report, _ = run(tmp_path, self.job(command, self.NON_INVARIANT))
        assert code == 2
        assert report["error"] == self.NOT_CLOSED

    @pytest.mark.parametrize("x,error", [
        ([[entry([0], 0, 1.0)], [entry([0], 0, 2.0)]], "NotRiesz"),
        ([[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]], "SizesEqual"),
    ], ids=["singular-x", "equal-sizes"])
    def test_x_and_y_errors_come_first(self, tmp_path, x, error):
        code, report, _ = run(tmp_path, self.job("oblique", self.NON_INVARIANT, x))
        assert code == 2
        assert report["error"]["code"] == error

    @pytest.mark.parametrize("command", ["oblique", "frame-oblique"])
    def test_invariance_tested_once_per_job(self, tmp_path, monkeypatch, command):
        calls = []
        original = oblique.is_invariant
        monkeypatch.setattr(oblique, "is_invariant", lambda W, tol: calls.append(W) or original(W, tol))
        code, report, _ = run(tmp_path, self.job(command, self.ORBIT_SPAN))
        assert code == 0
        assert len(calls) == 1
        if command == "oblique":
            assert report["checks"]["gamma_in_w0"] is True

    @pytest.mark.parametrize("command", ["oblique", "frame-oblique"])
    def test_empty_w0_is_not_a_direct_sum(self, tmp_path, command):
        code, report, _ = run(tmp_path, self.job(command, []))
        assert (code, report["command"], report["error"]["code"]) == (2, command, "NotDirectSum")
        orbit_job = dict(self.job(command, []), options={})
        assert run(tmp_path, orbit_job, "orbit.json")[1]["error"] == report["error"]

    @pytest.mark.parametrize("command", ["oblique", "frame-oblique"])
    def test_shift_mode_refused_with_one_message(self, tmp_path, command):
        inv = 1.0 / math.sqrt(2.0)
        job = self.job(command, [])
        job["system"] = {"group": {"kind": "integer_shift", "grid": 16}, "channels": 2}
        job["families"]["X"] = [[entry(0, 0, inv), entry(0, 1, inv)]]
        job["families"]["Y"] = [[entry(0, 0, 1.0)], [entry(0, 1, 1.0)]]
        refused = {"code": "ExactModeRequired", "message": "dense bases exist only in exact mode"}
        for w0 in ([], [[entry(0, 1, 1.0)]]):
            job["families"]["W0"] = w0
            code, report, _ = run(tmp_path, job)
            assert (code, report["command"], report["error"]) == (2, command, refused)

    def test_dense_and_orbit_w0_agree(self, tmp_path):
        code, dense, _ = run(tmp_path, self.job("oblique", self.ORBIT_SPAN), "dense.json")
        assert code == 0
        orbit_job = self.job("oblique", [[entry([0], 1, 1.0)]])
        orbit_job["options"] = {}
        code, orbit, _ = run(tmp_path, orbit_job, "orbit.json")
        assert code == 0
        values = lambda r: [(e["element"], e["channel"], e["re"], e["im"]) for e in r["families"]["Gamma"][0]]
        for a, b in zip(values(dense), values(orbit)):
            assert a[:2] == b[:2] and a[2:] == pytest.approx(b[2:], abs=1e-12)


class TestFrameObliqueCommand:
    def test_orthogonal_frame_case(self, tmp_path):
        inv = 1.0 / math.sqrt(2.0)
        job = {
            "version": "wandergen/1",
            "command": "frame-oblique",
            "system": z2_system(),
            "families": {
                "X": [[entry([0], 0, inv), entry([0], 1, inv)]],
                "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
                "W0": [[entry([0], 1, 1.0)]],
            },
        }
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["sizes"]["Gamma"] == 2
        assert report["bounds"]["frame"]["lower"] > 0


class TestSampledComplementCommand:
    def test_fiber_sampled_output(self, tmp_path):
        job = {
            "version": "wandergen/1",
            "command": "complement",
            "system": {"group": {"kind": "integer_shift", "grid": 32}, "channels": 2},
            "families": {
                "X": [
                    [
                        {"element": 0, "channel": 0, "re": 0.8, "im": 0.0},
                        {"element": 1, "channel": 1, "re": 0.6, "im": 0.0},
                    ]
                ],
                "Y": [
                    [{"element": 0, "channel": 0, "re": 1.0, "im": 0.0}],
                    [{"element": 0, "channel": 1, "re": 1.0, "im": 0.0}],
                ],
            },
        }
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["exact"] is False
        out = report["families"]["Xprime"]
        assert out["fiber_sampled"] is True
        assert "interpolation" in out["note"]
        assert len(out["fibers"]) == 1 and len(out["fibers"][0]) == 32
        assert report["residuals"]["union_gram"] <= 1e-6


class TestSampledFamilyRendering:
    """Report arrays against a per-scalar rendering: shift-mode fibers,
    bound-curve rows, a cancel witness and its characters."""

    @staticmethod
    def complex_json(z):
        z = complex(z)
        return {"re": float(z.real), "im": float(z.imag)}

    @classmethod
    def array_json(cls, values):
        values = np.asarray(values)
        return cls.complex_json(values) if values.ndim == 0 else [cls.array_json(v) for v in values]

    @classmethod
    def per_scalar_family_json(cls, original):
        def family_json(fam):
            if not isinstance(fam, SampledFamily):
                return original(fam)
            points, channels, members = fam.fibers.shape
            fibers = [
                [[cls.complex_json(fam.fibers[p, c, j]) for c in range(channels)] for p in range(points)]
                for j in range(members)
            ]
            return {"fiber_sampled": True, "note": fam.note, "fibers": fibers}

        return family_json

    @staticmethod
    def per_value_bound_curve(X):
        f = cli.format_float
        N = gram_fibers(X).space.points
        rows = zip(range(N), X.gram_eigenvalues)
        return "".join(f"{f(2.0 * np.pi * t / N)}\t{f(evs[0])}\t{f(evs[-1])}\n" for t, evs in rows)

    @staticmethod
    def shift_job(command, channels, families):
        return {
            "version": "wandergen/1",
            "command": command,
            "system": {"group": {"kind": "integer_shift", "grid": 16}, "channels": channels},
            "families": families,
        }

    JOBS = {
        "complement": ("complement", 3, {
            "X": [[entry(0, 0, 0.8), entry(1, 1, 0.36, -0.48)]],
            "Y": [[entry(0, c, 1.0)] for c in range(3)],
        }),
        "oblique": ("oblique", 2, {
            "X": [[entry(0, 0, 0.8), entry(1, 1, 0.6)]],
            "Y": [[entry(0, 0, 1.0)], [entry(0, 1, 1.0)]],
            "W0": [[entry(0, 1, 1.0), entry(2, 0, 0.3, 0.1)]],
        }),
    }

    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_byte_identical_to_per_scalar(self, tmp_path, monkeypatch, name):
        job = self.shift_job(*self.JOBS[name])
        code, report, fast = run(tmp_path, job, "fast.json")
        assert code == 0
        family = next(iter(report["families"].values()))
        assert family["fiber_sampled"] is True and len(family["fibers"][0]) == 16
        assert any(z["im"] != 0 for member in family["fibers"] for point in member for z in point)
        monkeypatch.setattr(cli, "_family_json", self.per_scalar_family_json(cli._family_json))
        code, _, slow = run(tmp_path, job, "slow.json")
        assert code == 0
        assert fast == slow

    def test_bound_curve_identical_to_per_value(self, monkeypatch):
        job = self.shift_job("bound-curve", 2, {
            "X": [[entry(0, 0, 0.8), entry(1, 1, 0.36, -0.48)], [entry(-3, 1, 0.5), entry(2, 0, -0.25, 0.1)]],
        })
        args = cli.build_parser().parse_args(["--job", "-"])
        fast = cli.run_job(job, args)
        assert fast[1] == 0 and len(fast[0].splitlines()) == 16
        monkeypatch.setattr(cli, "emit_bound_curve", self.per_value_bound_curve)
        assert cli.run_job(job, args) == fast

    def test_cancel_identical_to_per_scalar(self, tmp_path, monkeypatch):
        job = json.load(open(os.path.join(GOLDEN, "cancel_s3.json")))
        code, report, fast = run(tmp_path, job, "fast.json")
        assert code == 0 and len(report["witness"]["matrix"]) == 4
        monkeypatch.setattr(cli, "_complex_array_json", self.array_json)
        code, _, slow = run(tmp_path, job, "slow.json")
        assert code == 0
        assert fast == slow

    @pytest.mark.parametrize("shape", [(), (3,), (0,), (2, 3), (0, 0), (2, 0), (2, 0, 3), (2, 3, 4)])
    def test_any_shape(self, shape):
        rng = np.random.default_rng(len(shape))
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if values.size:
            values.flat[0] = complex(-0.0, -0.0)
        assert render_json(cli._complex_array_json(values)) == render_json(self.array_json(values))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, bad):
        for z in (complex(bad, 0.0), complex(0.0, bad)):
            with pytest.raises(ValueError, match="^non-finite value in report$"):
                cli._complex_array_json([[1.0, z]])


class TestMemberRendering:
    """Each exact-mode member renders with one % over its flattened values,
    byte for byte as one % per entry renders it."""

    @staticmethod
    def per_entry_family_json(fam):
        labels = ["[" + ",".join(map(str, e)) + "]" for e in fam.space.group.elements()]
        template = '{"channel":%d,"element":%s,"im":%.17g,"re":%.17g}'
        members = []
        for v in fam.members:
            element, channel = np.divmod(np.flatnonzero(v.support_mask()), fam.space.channels)
            values = cli._finite(v.dense()[element, channel])
            entries = zip(channel.tolist(), element.tolist(), values.imag.tolist(), values.real.tolist())
            members.append(cli._Raw("[" + ",".join([template % (c, labels[e], i, r) for c, e, i, r in entries]) + "]"))
        return members

    def test_one_format_matches_per_entry_form(self):
        rng = np.random.default_rng(4096)
        space = SystemSpace(FiniteAbelian((5, 3)), 3)
        cells = [(g, c) for g in space.group.elements() for c in range(3)]
        special = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0, -0.5]
        members = []
        for size in (0, 1, 7, len(cells)):
            chosen = rng.choice(len(cells), size, replace=False)
            parts = [rng.choice(special, size), rng.choice(special, size)]
            parts = [np.where(rng.random(size) < 0.5, p, rng.standard_normal(size)) for p in parts]
            members.append(GroupVector(space, {cells[i]: complex(re, im) for i, re, im in zip(chosen, *parts)}))
        fam = Family(space, members)
        assert render_json(cli._family_json(fam)) == render_json(self.per_entry_family_json(fam))
        assert '"re":1e+308' in render_json(cli._family_json(fam))


class TestCancelReports:
    @staticmethod
    def representation(mats):
        return {"dim": mats.shape[1], "matrices": [
            [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m] for m in mats
        ]}

    def job(self, reps, group=None):
        return {
            "version": "wandergen/1",
            "command": "cancel",
            "system": {"group": group or {"kind": "builtin", "name": "S3"}},
            "representations": {name: self.representation(m) for name, m in reps.items()},
        }

    def test_zero_dimensional_witness(self, tmp_path):
        from wandergen import nonabelian

        regular = nonabelian.regular_representation(nonabelian.symmetric_3()).matrices
        empty = np.zeros((6, 0, 0))
        job = self.job({"rho": regular, "sigma1": regular, "sigma2": empty, "sigma3": empty})
        code, report, raw = run(tmp_path, job)
        assert code == 0
        assert b'"matrix":[]' in raw
        assert report["witness"] == {"matrix": [], "residual": 0.0, "seed": None, "unitarity_residual": 0.0}
        assert report["characters"]["sigma2"] == report["characters"]["sigma3"] == [{"im": 0, "re": 0}] * 3

    @pytest.mark.parametrize("extra,tol", [((), 1e-9), (("--tol-bio", "1e-3"), 1e-3)], ids=["default", "1e-3"])
    def test_cancel_applies_the_reported_tol_bio(self, tmp_path, monkeypatch, extra, tol):
        from wandergen import nonabelian

        seen = []
        cancel = nonabelian.cancel
        monkeypatch.setattr(nonabelian, "cancel", lambda *a, **k: seen.append(k) or cancel(*a, **k))
        job = json.load(open(os.path.join(GOLDEN, "cancel_s3.json")))
        code, report, _ = run(tmp_path, job, extra=extra)
        assert code == 0
        assert seen == [{"tol": tol}] and report["options"]["tol_bio"] == tol

    def test_failing_cancel_reports_the_default_tol_bio(self, tmp_path):
        trivial = np.ones((6, 1, 1))
        job = self.job({name: trivial for name in ("rho", "sigma1", "sigma2", "sigma3")})
        code, report, _ = run(tmp_path, job)
        assert (code, report["error"]["code"]) == (2, "HypothesisFailure")
        assert report["options"]["tol_bio"] == 1e-9  # as in a passing cancel report
        job["options"] = {"tol_bio": 1e-7}
        assert run(tmp_path, job)[1]["options"]["tol_bio"] == 1e-7

    @pytest.mark.parametrize("value", [math.inf, math.nan, 1.5, "1", True, 1.0], ids=repr)
    def test_non_integer_entry_is_a_schema_error(self, tmp_path, value):
        # [[0, 1], [1, 0]] is Z2: "1", True and 1.0 spell an entry that int() takes as 1
        job = self.job({}, group={"kind": "cayley", "table": [[0, 1], [value, 0]]})
        code, report, _ = run(tmp_path, job)
        assert (code, report["command"]) == (1, "cancel")
        assert report["error"] == {
            "code": "SchemaError", "message": "bad Cayley table: Cayley table entries must be integers",
        }

    def test_finite_abelian_is_not_a_finite_group_presentation(self, tmp_path):
        code, report, _ = run(tmp_path, self.job({}, group={"kind": "finite_abelian", "orders": [2]}))
        assert (code, report["command"]) == (1, "cancel")
        assert report["error"] == {
            "code": "SchemaError", "message": "group kind 'finite_abelian' is not a finite group presentation",
        }

    def test_builtin_group_is_not_a_system_space(self, tmp_path):
        job = orthonormal_delta_job()
        job["system"]["group"] = {"kind": "builtin", "name": "S3"}
        code, report, _ = run(tmp_path, job)
        assert (code, report["command"]) == (1, "analyze")
        assert report["error"] == {
            "code": "SchemaError",
            "message": "group kind 'builtin' needs a system space (finite_abelian or integer_shift)",
        }

    def test_z0_is_an_unknown_builtin_group(self, tmp_path):
        code, report, _ = run(tmp_path, self.job({}, group={"kind": "builtin", "name": "Z0"}))
        assert (code, report["command"]) == (1, "cancel")
        assert report["error"] == {"code": "SchemaError", "message": "unknown builtin group 'Z0'"}

    @pytest.mark.parametrize("name", ["Z257", "Z" + "9" * 5000], ids=["Z257", "Z_5000_digits"])
    def test_cyclic_order_above_the_cap_is_a_size_limit(self, tmp_path, monkeypatch, name):
        from wandergen import nonabelian

        def refuse(n):
            raise AssertionError("no table may be built above the cap")

        monkeypatch.setattr(nonabelian, "cyclic_group", refuse)
        code, report, _ = run(tmp_path, self.job({}, group={"kind": "builtin", "name": name}))
        assert (code, report["command"]) == (2, "cancel")
        assert report["error"] == {"code": "SizeLimit", "message": "builtin cyclic group order exceeds the cap 256"}

    def test_cyclic_order_at_the_cap_is_built(self, monkeypatch):
        from wandergen import nonabelian

        monkeypatch.setattr(nonabelian, "cyclic_group", lambda n: n)
        for name, n in [("Z256", 256), ("Z0256", 256), ("Z1", 1)]:
            assert cli._parse_finite_group({"system": {"group": {"kind": "builtin", "name": name}}}) == n

    def test_cayley_order_above_the_cap_is_a_size_limit(self, tmp_path, monkeypatch):
        from wandergen import nonabelian

        def refuse(table, name="G"):
            raise AssertionError("no group may be built above the cap")

        monkeypatch.setattr(nonabelian, "FiniteGroup", refuse)
        code, report, _ = run(tmp_path, self.job({}, group={"kind": "cayley", "table": [[0]] * 257}))
        assert (code, report["command"]) == (2, "cancel")
        assert report["error"] == {"code": "SizeLimit", "message": "Cayley table order exceeds the cap 256"}
        monkeypatch.setattr(nonabelian, "FiniteGroup", lambda table: len(table))
        assert cli._parse_finite_group({"system": {"group": {"kind": "cayley", "table": [[0]] * 256}}}) == 256

    def test_non_associative_loop_is_a_schema_error(self, tmp_path):
        # order 26: a Latin square with identity and inverses, but not a group
        trivial = np.ones((26, 1, 1))
        job = self.job({name: trivial for name in ("rho", "sigma1", "sigma2", "sigma3")},
                       group={"kind": "cayley", "table": intercalate_loop()})
        code, report, _ = run(tmp_path, job)
        assert (code, report["command"]) == (1, "cancel")
        assert report["error"] == {
            "code": "SchemaError", "message": "bad Cayley table: Cayley table is not associative at (1, 1, 1)",
        }

    def test_entry_beyond_int64_is_a_schema_error(self, tmp_path):
        job = self.job({}, group={"kind": "cayley", "table": [[0, 1], [1, 2**70]]})
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["error"] == {
            "code": "SchemaError", "message": "bad Cayley table: Cayley table rows must permute 0..n-1",
        }


class TestDualAndBiortho:
    def test_dual_command(self, tmp_path):
        job = {
            "version": "wandergen/1",
            "command": "dual",
            "system": z2_system(),
            "families": {
                "Gamma": [[entry([0], 1, -math.sqrt(2.0))]],
                "W0t": [[entry([0], 1, 1.0), entry([0], 0, 0.4)]],
            },
        }
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["checks"]["biorthogonal"] is True
        assert report["residuals"]["biorthogonality"] <= 1e-9

    def test_biortho_command(self, tmp_path):
        inv = 1.0 / math.sqrt(2.0)
        job = {
            "version": "wandergen/1",
            "command": "biortho",
            "system": z2_system(),
            "families": {
                "X": [[entry([0], 0, inv), entry([0], 1, inv)]],
                "Xt": [[entry([0], 0, inv), entry([0], 1, inv)]],
                "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
                "Yt": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
            },
        }
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["residuals"]["pair"] <= 1e-9
        assert report["residuals"]["union"] <= 1e-9


def family_json(fam) -> list:
    """Job members listing every dense coefficient of each member."""
    elements = fam.space.group.elements()
    return [[entry(list(elements[e]), c, z.real, z.imag) for (e, c), z in np.ndenumerate(v.dense())]
            for v in fam.members]


def families_job(command, **families) -> dict:
    space = next(iter(families.values())).space
    return {
        "version": "wandergen/1",
        "command": command,
        "system": {"group": {"kind": "finite_abelian", "orders": list(space.group.orders)},
                   "channels": space.channels},
        "families": {name: family_json(fam) for name, fam in families.items()},
    }


class TestHypothesesCheckedOnce:
    """Each job checks each hypothesis once, at the entry point: one
    containment test of X in Y, one bound per input family, one inverse
    transform per output family; analyze forms one eigendecomposition.
    The stacked SVDs a job takes are pinned too: one per fiber holder whose
    factors a decision reads, the split's joint stack, and the complement
    report's two angle SVDs; containment and the dimension a stack adds to
    a span factor no joint stack."""

    COUNTED = (("fibers", "is_contained"), ("fibers", "riesz_bounds"), ("fibers", "frame_bounds"),
               ("groups", "idft"), ("_linalg", "matrix_rank"))

    # command: (draw of the input families, [(function, family names) run once], output families)
    CASES = {
        "oblique": (lambda rng: dict(zip(("X", "Y", "W0"), random_oblique_instance(rng))),
                    [("is_contained", "X", "Y"), ("riesz_bounds", "X"), ("riesz_bounds", "Y")], 1),
        "frame-oblique": (lambda rng: dict(zip(("X", "Y", "W0"), random_frame_instance(rng))),
                          [("is_contained", "X", "Y"), ("frame_bounds", "X"), ("frame_bounds", "Y")], 1),
        "biortho": (lambda rng: dict(zip(("X", "Xt", "Y", "Yt"), random_biortho_quadruple(rng))),
                    [("is_contained", "X", "Y"), ("is_contained", "Xt", "Yt")]
                    + [("riesz_bounds", name) for name in ("X", "Xt", "Y", "Yt")], 2),
        "complement": (lambda rng: dict(zip(("X", "Y"), random_robertson_instance(rng))),
                       [("is_contained", "X", "Y")], 1),
        "analyze": (lambda rng: {"X": random_riesz_family(rng, random_space(rng), 2)},
                    [("riesz_bounds", "X"), ("frame_bounds", "X")], 0),
    }
    # stacked np.linalg.svd calls per job, on the draws below
    STACKED_SVDS = {"oblique": 4, "frame-oblique": 4, "biortho": 5, "complement": 5, "analyze": 0}

    def run_counted(self, monkeypatch, job):
        """Run the job with the counted functions, eigvalsh and svd wrapped; return
        the parsed families by name and the (function, args) call log."""
        parsed, calls = {}, []
        parse = cli._parse_family
        monkeypatch.setattr(cli, "_parse_family", lambda sp, fams, name: parsed.setdefault(name, parse(sp, fams, name)))
        for module, name in self.COUNTED:
            original = getattr(sys.modules[f"wandergen.{module}"], name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, args))
                return _original(*args, **kwargs)

            for module_name, loaded in list(sys.modules.items()):
                if module_name.startswith("wandergen") and getattr(loaded, name, None) is original:
                    monkeypatch.setattr(loaded, name, counting)
        eigvalsh, svd = np.linalg.eigvalsh, np.linalg.svd
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(("eigvalsh", a)) or eigvalsh(*a, **k))
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: calls.append(("svd", (a,))) or svd(a, *r, **k))
        _, code = cli.run_job(job, cli.build_parser().parse_args(["--job", "-"]))
        assert code == 0
        return parsed, calls

    @pytest.mark.parametrize("command", list(CASES))
    def test_each_hypothesis_checked_once(self, monkeypatch, command):
        draw, once, outputs = self.CASES[command]
        parsed, calls = self.run_counted(monkeypatch, families_job(command, **draw(np.random.default_rng(77))))

        def count(function, *families):
            return sum(name == function and all(a is b for a, b in zip(args, families)) for name, args in calls)

        for function, *names in once:
            assert count(function, *(parsed[n] for n in names)) == 1, (function, names)
        assert count("idft") == outputs
        assert sum(name == "svd" and np.ndim(args[0]) == 3 for name, args in calls) == self.STACKED_SVDS[command]
        if command == "complement":  # the wandering checks form no rank test of their own;
            assert count("matrix_rank") == 0  # containment reads X's residual off Y.svd
        if command == "analyze":  # bounds, residual and completeness share one spectrum
            assert (count("eigvalsh"), count("matrix_rank")) == (1, 0)

    def test_shift_mode_analyze_forms_one_spectrum(self, monkeypatch):
        job = {
            "version": "wandergen/1",
            "command": "analyze",
            "system": {"group": {"kind": "integer_shift", "grid": 16}, "channels": 2},
            "families": {"X": [[{"element": 0, "channel": 0, "re": 1.0}, {"element": 1, "channel": 1, "re": 0.5}],
                               [{"element": 0, "channel": 1, "re": 1.0}]]},
        }
        _, calls = self.run_counted(monkeypatch, job)
        assert [name for name, _ in calls].count("eigvalsh") == 1


class TestFibersFactoredOnce:
    """Each job factors each fiber stack once: a fiber holder's cached thin
    SVD serves every rank and basis decision on its fibers, so no stack
    reaches ``np.linalg.svd`` twice within a job.  The jobs run on Z256 with
    4 channels; all but the dense-W0 one are the benchmark's exact-fiber
    jobs from ``benchmarks/gen.py``."""

    CASES = ("complement", "oblique", "oblique-w0-dense", "frame-oblique", "biortho")

    @staticmethod
    def job(case: str) -> dict:
        rng = np.random.default_rng(83)
        if case == "oblique-w0-dense":
            # V1 = channels 0, 1, 3 at every dual point, W0 = channel 3: an
            # invariant subspace whose dense basis is every translate of e_3
            space = SystemSpace(FiniteAbelian((256,)), 4)
            E = np.eye(4)[:, [0, 1, 3]]
            mix = lambda k: E @ (rng.standard_normal((256, 3, k)) + 1j * rng.standard_normal((256, 3, k))) / 16
            job = families_job("oblique", X=family_from_fibers(space, mix(2)), Y=family_from_fibers(space, mix(3)))
            job["families"]["W0"] = [[entry([g], 3, 1.0)] for g in range(256)]
            return dict(job, options={"w0_dense": True})
        gen = benchmark_gen()
        build = getattr(gen, case.replace("-", "_"))
        job, expect = build(rng, gen.ExactField(rng, (256,)), 1, 2 if case == "frame-oblique" else 3)
        assert expect["exit"] == 0
        return json.loads(gen.dumps(job))  # the members are rendered JSON text

    @pytest.mark.parametrize("case", CASES)
    def test_no_stack_factored_twice(self, monkeypatch, case):
        job = self.job(case)
        svd, stacks = np.linalg.svd, []

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            stacks.append((a.shape, a.dtype.str, np.ascontiguousarray(a).tobytes()))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        _, code = cli.run_job(job, cli.build_parser().parse_args(["--job", "-"]))
        assert code == 0
        assert any(len(shape) == 3 and shape[0] == 256 for shape, _, _ in stacks)  # fiber stacks were factored
        repeats = [shape for (shape, _, _), count in collections.Counter(stacks).items() if count > 1]
        assert repeats == [], f"stacks factored more than once: {repeats}"


def unit(channel, value=1.0):
    """A one-entry member: value at the identity, in one channel."""
    return [entry([0], channel, value)]


class TestMultiFaultPrecedence:
    """Jobs with several failed hypotheses report the first one in the order
    the constructions have always checked them, with the same message."""

    NOT_INSIDE = ("NotContained", "X's orbit span must sit inside Y's")
    OVERLAP = ("NotDirectSum", "V0 and W0 fibers overlap at dual point 0")
    SINGULAR = "Gram fiber at dual point {} is singular (min eigenvalue at or below the cutoff {})"
    TWO_POINTS = [entry([0], 1, 1.0), entry([1], 1, 1.0)]  # vanishes at dual point 1
    # name: (command, channels, families, (error code, message))
    CASES = {
        "oblique-singular-x-outside-y-equal-sizes": (
            "oblique", 2, {"X": [unit(0), unit(0, 2.0)], "Y": [unit(1)], "W0": [unit(1)]},
            ("NotRiesz", SINGULAR.format(0, "5.000e-09"))),
        "oblique-singular-y-x-outside": (
            "oblique", 2, {"X": [unit(1)], "Y": [TWO_POINTS, unit(0)], "W0": [unit(1)]},
            ("NotRiesz", SINGULAR.format(1, "1.000e-09"))),
        "oblique-x-outside-equal-sizes": (
            "oblique", 2, {"X": [unit(0)], "Y": [unit(1)], "W0": [unit(1)]}, NOT_INSIDE),
        "oblique-equal-sizes-noninvariant-w0": (
            "oblique", 2, {"X": [unit(0), unit(1)], "Y": [unit(0), unit(1)],
                           "W0": [[entry([0], 1, 1.0), entry([1], 1, 0.5)]]},
            ("SizesEqual", "need |X| < |Y|, got 2 >= 2")),
        "oblique-w0-overlaps-and-leaves": (
            "oblique", 3, {"X": [unit(0)], "Y": [unit(0), unit(1)], "W0": [unit(0), unit(2)]}, OVERLAP),
        "frame-oblique-rank-jump-x-outside": (
            "frame-oblique", 2, {"X": [[entry([0], 0, 1.0), entry([1], 0, 1.0)]], "Y": [unit(1)], "W0": [unit(1)]},
            ("RankJump", "fiber rank varies across sampling: 0..1")),
        "frame-oblique-x-outside-w0-leaves": (
            "frame-oblique", 3, {"X": [unit(0)], "Y": [unit(1)], "W0": [unit(2)]}, NOT_INSIDE),
        "frame-oblique-w0-overlaps-and-leaves": (
            "frame-oblique", 3, {"X": [unit(0)], "Y": [unit(0), unit(1)], "W0": [unit(0), unit(2)]}, OVERLAP),
        "biortho-x-skew-x-outside": (
            "biortho", 2, {"X": [unit(0, 2.0)], "Xt": [unit(0)], "Y": [unit(1)], "Yt": [unit(1)]},
            ("HypothesisFailure", "X and Xt are not biorthogonal (residual 1.000e+00)")),
        "biortho-y-skew-xt-outside": (
            "biortho", 2, {"X": [unit(0)], "Xt": [unit(0)], "Y": [unit(0), unit(1)], "Yt": [unit(0), unit(1, 3.0)]},
            ("HypothesisFailure", "Y and Yt are not biorthogonal (residual 2.000e+00)")),
        "biortho-xt-outside-equal-sizes": (
            "biortho", 3, {"X": [unit(0), unit(1)], "Xt": [unit(0) + unit(2), unit(1)],
                           "Y": [unit(0), unit(1)], "Yt": [unit(0), unit(1)]},
            ("NotContained", "Xt's orbit span must sit inside Yt's")),
        "complement-x-and-y-not-wandering": (
            "complement", 2, {"X": [unit(0, 2.0)], "Y": [unit(0, 3.0)]},
            ("NotWandering", "X is not wandering (residual 3.000e+00)")),
        "complement-y-not-wandering-x-outside": (
            "complement", 2, {"X": [unit(0)], "Y": [unit(1, 3.0)]},
            ("NotWandering", "Y is not wandering (residual 8.000e+00)")),
        "complement-x-outside-too-large": (
            "complement", 2, {"X": [unit(0), unit(1)], "Y": [unit(1)]}, NOT_INSIDE),
        "analyze-zero-family": (
            "analyze", 2, {"X": [unit(0, 0.0)]}, ("EmptyFamily", "family spans only the zero subspace")),
    }
    DENSE_W0 = {"oblique-equal-sizes-noninvariant-w0"}

    # the containment gates no command reaches: name: (call on X, Y, (error code, message))
    LIBRARY = {
        "orth-complement-in": (lambda X, Y: oblique.orth_complement_in(Y, X), NOT_INSIDE),
        "bessel-dimension-audit": (lambda X, Y: wandering.bessel_dimension_audit(X, Y),
                                   ("NotContained", "M's orbit span must sit inside K's")),
    }

    @pytest.mark.parametrize("case", list(LIBRARY))
    def test_library_gate_names_its_families(self, case):
        call, expected = self.LIBRARY[case]
        sp = SystemSpace(FiniteAbelian((2,)), 2)
        X, Y = (Family(sp, (delta(sp, 0, channel),)) for channel in (0, 1))
        with pytest.raises(NotContained) as raised:
            call(X, Y)
        assert (type(raised.value).__name__, str(raised.value)) == expected

    @pytest.mark.parametrize("case", list(CASES))
    def test_first_failed_hypothesis_reported(self, tmp_path, case):
        command, channels, families, (code, message) = self.CASES[case]
        job = {
            "version": "wandergen/1",
            "command": command,
            "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": channels},
            "families": families,
            "options": {"w0_dense": case in self.DENSE_W0},
        }
        exit_code, report, _ = run(tmp_path, job)
        assert (exit_code, report["error"]) == (2, {"code": code, "message": message})


class TestBiorthoPairingVerdicts:
    """biortho jobs on Z2 that pass every entry check but whose construction
    fails.  With --tol-bio 2 a singular X/Xt pairing passes the
    biorthogonality check and means V0 meets W0; a singular Y/Yt pairing
    means no dual exists.  Both are library errors (exit code 2), never a
    failed linear solve.  A zero X/Xt pairing also leaves W0 = V1 intersect
    Vt0-perp (or Wt0) a dimension too large, and is reported as the overlap
    all the same; the last case meets every hypothesis at the default
    tolerance, but V0 and W0 lie so close that the union X, Gamma is not Riesz."""

    OVERLAP = ("NotDirectSum", "V0 and W0 fibers overlap at dual point 0")
    T = 1e5  # Xt = e0 + T e1 makes Gamma = [e1 - T e0, e2], Gram eigenvalues 1 and 1 + T^2
    # name: (channels, families, --tol-bio, (error code, message))
    CASES = {
        "x-pairing-singular": (
            2, {"X": [unit(0)], "Xt": [unit(1)], "Y": [unit(0), unit(1)], "Yt": [unit(0), unit(1)]}, "2", OVERLAP),
        "y-pairing-singular": (
            3, {"X": [unit(0)], "Xt": [unit(0)], "Y": [unit(0), unit(1)], "Yt": [unit(0), unit(2)]}, "2",
            ("SingularPairing", "fiber pairing singular at dual point 0")),
        "x-pairing-zero-w0-too-large": (
            3, {"X": [unit(0)], "Xt": [unit(2)], "Y": [unit(0), unit(1)], "Yt": [unit(2), unit(1)]}, "2", OVERLAP),
        "x-pairing-zero-wt0-too-large": (
            3, {"X": [unit(0)], "Xt": [unit(1)], "Y": [unit(0), unit(1)], "Yt": [unit(1), unit(2)]}, "2", OVERLAP),
        "union-ill-conditioned": (
            4, {"X": [unit(0)], "Xt": [unit(0) + unit(1, T)], "Y": [unit(0), unit(1), unit(2)],
                "Yt": [unit(0) + unit(3), unit(1) + unit(3, -1 / T), unit(2)]}, None,
            ("NotRiesz", "Gram fiber at dual point 0 is singular (min eigenvalue at or below the cutoff 1.000e+01)")),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_verdict(self, tmp_path, case):
        channels, families, tol_bio, (code, message) = self.CASES[case]
        job = {
            "version": "wandergen/1",
            "command": "biortho",
            "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": channels},
            "families": families,
        }
        exit_code, report, _ = run(tmp_path, job, extra=("--tol-bio", tol_bio) if tol_bio else ())
        assert (exit_code, report["error"]) == (2, {"code": code, "message": message})


class TestOracleCheck:
    REFUSED = {"riesz": None, "frame": None}

    @staticmethod
    def job(system, members):
        return {"version": "wandergen/1", "command": "oracle-check", "system": system, "families": {"X": members}}

    def test_agreement(self, tmp_path):
        job = orthonormal_delta_job()
        job["command"] = "oracle-check"
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["oracle"]["max_bound_diff"] <= 1e-8

    def test_rank_deficient_family_keeps_dense_frame_bounds(self, tmp_path):
        # two copies of one delta: rank 1 at every dual point, Gram spectrum {2, 2, 0, 0}
        job = self.job(z2_system(), [[entry([0], 0, 1.0)], [entry([0], 0, 1.0)]])
        code, report, _ = run(tmp_path, job)
        fiber, dense = report["oracle"]["fiber"], report["oracle"]["dense"]
        assert code == 0
        assert (fiber["riesz_error"], dense["riesz_error"]) == ("NotRiesz", "NotRiesz")
        assert dense["riesz"] is None and dense["frame_error"] is None
        assert (dense["frame"]["lower"], dense["frame"]["upper"]) == pytest.approx((2.0, 2.0), abs=1e-12)
        assert report["oracle"]["max_bound_diff"] <= 1e-12

    @pytest.mark.parametrize("case", ["size-limit", "shift-mode"])
    def test_dense_side_refused(self, tmp_path, case):
        if case == "size-limit":  # |G| * m * k = 1024 * 4 * 2 = 8192 exceeds the oracle cap 4096
            system = {"group": {"kind": "finite_abelian", "orders": [1024]}, "channels": 4}
            members, code_expected = [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]], "SizeLimit"
        else:
            system = {"group": {"kind": "integer_shift", "grid": 32}, "channels": 1}
            members, code_expected = [[entry(0, 0, 1.0)]], "ExactModeRequired"
        code, report, _ = run(tmp_path, self.job(system, members))
        fiber, dense = report["oracle"]["fiber"], report["oracle"]["dense"]
        assert code == 0
        assert dense == dict(self.REFUSED, riesz_error=code_expected, frame_error=code_expected)
        assert fiber["riesz"]["lower"] == pytest.approx(1.0, abs=1e-12)
        assert fiber["frame"]["upper"] == pytest.approx(1.0, abs=1e-12)
        assert report["oracle"]["max_bound_diff"] is None

    @pytest.mark.parametrize("orders,k", [((8,), 1), ((16,), 2), ((32,), 4), ((64,), 2)])
    def test_one_orbit_matrix_and_one_svd_per_job(self, monkeypatch, orders, k):
        """Both dense bounds read one spectrum: one gathered orbit matrix, one
        SVD of it.  The jobs are the benchmark's oracle-check jobs, 4 channels."""
        gen, rng = benchmark_gen(), np.random.default_rng(91)
        job = json.loads(gen.dumps(gen.oracle_check(rng, gen.ExactField(rng, orders), k)[0]))
        gathered, factored = [], []
        gather, svd = oracle.dense_family_matrix, np.linalg.svd
        monkeypatch.setattr(oracle, "dense_family_matrix", lambda X: gathered.append(gather(X)) or gathered[-1])
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: factored.append(a) or svd(a, *args, **kw))
        _, code = cli.run_job(job, cli.build_parser().parse_args(["--job", "-"]))
        assert code == 0
        assert len(gathered) == 1
        assert sum(a is gathered[0] for a in factored) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFloat64Overflow:
    """Coefficients near the float64 limit overflow the transform and the
    squared singular values; that is a SizeLimit, never a verdict on the family."""

    @staticmethod
    def job(command, names=("X",)):
        system = {"group": {"kind": "finite_abelian", "orders": [4]}, "channels": 1}
        family = [[entry([e], 0, 1e308) for e in range(3)]]
        return {"version": "wandergen/1", "command": command, "system": system,
                "families": {name: family for name in names}}

    def test_analyze(self, tmp_path):
        code, report, _ = run(tmp_path, self.job("analyze"))
        assert (code, report["error"]) == (2, {"code": "SizeLimit", "message": "Gram fibers overflow float64"})

    def test_complement(self, tmp_path):
        # the wandering check reads the Gram fibers before any eigenvalue
        code, report, _ = run(tmp_path, self.job("complement", ("X", "Y")))
        assert (code, report["error"]) == (2, {"code": "SizeLimit", "message": "Gram fibers overflow float64"})

    def test_oracle_check(self, tmp_path):
        code, report, _ = run(tmp_path, self.job("oracle-check"))
        refused = dict(TestOracleCheck.REFUSED, riesz_error="SizeLimit", frame_error="SizeLimit")
        assert code == 0
        assert report["oracle"] == {"fiber": refused, "dense": refused, "max_bound_diff": None}


class TestBoundCurve:
    def shift_job(self, members, grid=16):
        return {
            "version": "wandergen/1",
            "command": "bound-curve",
            "system": {"group": {"kind": "integer_shift", "grid": grid}, "channels": 1},
            "families": {"X": members},
        }

    def parse_rows(self, raw):
        rows = []
        for line in raw.decode().strip().splitlines():
            a, lo, hi = line.split("\t")
            rows.append((float(a), float(lo), float(hi)))
        return rows

    def test_flat_curve_for_delta(self, tmp_path):
        job = self.shift_job([[{"element": 0, "channel": 0, "re": 1.0, "im": 0.0}]])
        code, _, raw = run_text(tmp_path, job)
        rows = self.parse_rows(raw)
        assert code == 0
        assert len(rows) == 16
        for angle, lo, hi in rows:
            assert lo == pytest.approx(1.0, abs=1e-12)
            assert hi == pytest.approx(1.0, abs=1e-12)

    def test_two_tap_cosine_curve(self, tmp_path):
        inv = 1.0 / math.sqrt(2.0)
        member = [
            {"element": 0, "channel": 0, "re": inv, "im": 0.0},
            {"element": 1, "channel": 0, "re": inv, "im": 0.0},
        ]
        job = self.shift_job([member], grid=16)
        code, _, raw = run_text(tmp_path, job)
        rows = self.parse_rows(raw)
        assert code == 0
        angles = np.array([r[0] for r in rows])
        assert np.all(np.diff(angles) > 0)
        for angle, lo, hi in rows:
            assert hi == pytest.approx(2 * math.cos(angle / 2) ** 2, abs=1e-12)
        # the zero of the symbol sits on the grid: min over the curve is 0
        assert min(r[1] for r in rows) == pytest.approx(0.0, abs=1e-12)

    def test_grid_doubling_refines_extrema(self, tmp_path):
        member = [
            {"element": 0, "channel": 0, "re": 1.0, "im": 0.0},
            {"element": 1, "channel": 0, "re": 0.35, "im": 0.0},
            {"element": 2, "channel": 0, "re": -0.2, "im": 0.0},
        ]
        mins, maxs = [], []
        for grid in (16, 32, 64):
            code, _, raw = run_text(tmp_path, self.shift_job([member], grid=grid), f"g{grid}.json")
            rows = self.parse_rows(raw)
            assert code == 0
            mins.append(min(r[1] for r in rows))
            maxs.append(max(r[2] for r in rows))
        assert mins[0] >= mins[1] >= mins[2]
        assert maxs[0] <= maxs[1] <= maxs[2]

    def test_exact_mode_rejected_with_hint(self, tmp_path):
        job = orthonormal_delta_job()
        job["command"] = "bound-curve"
        code, report, _ = run(tmp_path, job)
        assert code == 2
        assert report["error"]["code"] == "WrongMode"
        assert "analyze" in report["error"]["message"]


class TestShiftSupportBound:
    """A shift-mode member wider than its grid is refused when it is parsed,
    one wider than half the grid when it is transformed, both with
    SupportExceedsGrid and the message of the transform-time check.  A parse
    failure ends every command with exit 2; ``oracle-check`` records a
    transform failure in its report, as it records every bound failure."""

    WIDER_THAN_GRID = [
        ([0, 8], "support width 9 needs a grid of at least 18 points, got 8"),
        ([-(10**30), 10**30], f"support width {2 * 10**30 + 1} needs a grid of at least {4 * 10**30 + 2} points, got 8"),
    ]
    WIDER_THAN_HALF = [
        ([3, 7], "support width 5 needs a grid of at least 10 points, got 8"),
        ([10**30, 10**30 + 7], "support width 8 needs a grid of at least 16 points, got 8"),
    ]

    @staticmethod
    def job(command, positions, grid=8):
        member = [{"element": n, "channel": 0, "re": 1.0} for n in positions]
        return {
            "version": "wandergen/1",
            "command": command,
            "system": {"group": {"kind": "integer_shift", "grid": grid}, "channels": 1},
            "families": {"X": [[{"element": 0, "channel": 0, "re": 1.0}], member]},
        }

    @pytest.mark.parametrize("command", ["analyze", "bound-curve", "oracle-check"])
    @pytest.mark.parametrize("positions,message", WIDER_THAN_GRID, ids=["near", "far-apart"])
    def test_wider_than_grid_is_refused_at_parse(self, tmp_path, command, positions, message):
        code, report, _ = run(tmp_path, self.job(command, positions))
        assert (code, report["command"]) == (2, command)
        assert report["error"] == {"code": "SupportExceedsGrid", "message": message}

    @pytest.mark.parametrize("command", ["analyze", "bound-curve"])
    @pytest.mark.parametrize("positions,message", WIDER_THAN_HALF, ids=["near", "far-out"])
    def test_wider_than_half_fails_at_transform(self, tmp_path, command, positions, message):
        code, report, _ = run(tmp_path, self.job(command, positions))
        assert (code, report["command"]) == (2, command)
        assert report["error"] == {"code": "SupportExceedsGrid", "message": message}

    @pytest.mark.parametrize("positions", [p for p, _ in WIDER_THAN_HALF], ids=["near", "far-out"])
    def test_oracle_check_records_the_transform_failure(self, tmp_path, positions):
        code, report, _ = run(tmp_path, self.job("oracle-check", positions))
        assert (code, report["status"]) == (0, "ok")
        fiber = report["oracle"]["fiber"]
        assert (fiber["riesz_error"], fiber["frame_error"]) == ("SupportExceedsGrid", "SupportExceedsGrid")

    def test_half_grid_support_is_accepted(self, tmp_path):
        code, report, _ = run(tmp_path, self.job("analyze", [4, 7]))
        assert (code, report["status"]) == (0, "ok")


def run_text(tmp_path, job, name="job.json"):
    job_path = tmp_path / name
    out_path = tmp_path / (name + ".out")
    job_path.write_text(json.dumps(job))
    code = main(["--job", str(job_path), "--out", str(out_path)])
    return code, out_path, out_path.read_bytes()


class TestMalformedInputs:
    CASES = [
        b"",
        b"not json at all {",
        b"[1, 2, 3]",
        b'{"version": "other/9", "command": "analyze"}',
        b'{"version": "wandergen/1"}',
        b'{"version": "wandergen/1", "command": "frobnicate"}',
        b'{"version": "wandergen/1", "command": "analyze", "system": {"group": {"kind": "finite_abelian", "orders": [0]}, "channels": 1}, "families": {"X": []}}',
        b'{"version": "wandergen/1", "command": "analyze", "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 1}, "families": {"X": [[{"element": [0], "channel": 5, "re": 1.0, "im": 0.0}]]}}',
        b'{"version": "wandergen/1", "command": "analyze", "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 1}, "families": {"X": [[{"element": [0], "channel": 0, "re": NaN, "im": 0.0}]]}}',
        b'{"version": "wandergen/1", "command": "analyze", "system": {"group": {"kind": "finite_abelian", "orders": [2]}, "channels": 1}}',
        b'{"version": "wandergen/1", "command": "cancel", "system": {"group": {"kind": "builtin", "name": "S99x"}}, "representations": {}}',
    ]

    @pytest.mark.parametrize("raw", CASES, ids=range(len(CASES)))
    def test_never_exit_zero(self, tmp_path, raw):
        code, report, _ = run(tmp_path, raw)
        assert code == 1
        assert report["status"] == "error"

    # (entries of member X[0], expected SchemaError message); the checks run
    # in this order: entry type, channel, re, im, element
    ENTRY_CASES = [
        ([1], "X[0][0] must be an object"),
        ([{"element": [0], "channel": True, "re": 1.0}], "X[0][0].channel must be an integer"),
        ([{"element": [0], "channel": 2.0, "re": 1.0}], "X[0][0].channel must be an integer"),
        ([{"element": [0], "re": 1.0}], "X[0][0].channel must be an integer"),
        ([{"element": [0], "channel": 2, "re": 1.0}], "X[0][0].channel outside 0..1"),
        ([{"element": [0], "channel": -1, "re": 1.0}], "X[0][0].channel outside 0..1"),
        ([{"element": [0], "channel": 0, "re": float("nan")}], "X[0][0].re must be finite"),
        ([{"element": [0], "channel": 0, "re": float("inf")}], "X[0][0].re must be finite"),
        ([{"element": [0], "channel": 0, "im": float("-inf")}], "X[0][0].im must be finite"),
        ([{"element": [0], "channel": 0, "re": "1.0"}], "X[0][0].re must be a number"),
        ([{"element": [0], "channel": 0, "re": True}], "X[0][0].re must be a number"),
        ([{"element": [0], "channel": 0, "im": "0"}], "X[0][0].im must be a number"),
        ([{"element": [0], "channel": 0, "im": False}], "X[0][0].im must be a number"),
        ([{"element": 0, "channel": 0, "re": 1.0}], "X[0][0].element must be a list of integers"),
        ([{"channel": 0, "re": 1.0}], "X[0][0].element must be a list of integers"),
        ([{"element": [True], "channel": 0, "re": 1.0}], "X[0][0].element must be a list of integers"),
        ([{"element": [0.0], "channel": 0, "re": 1.0}], "X[0][0].element must be a list of integers"),
        ([{"element": [0, 1], "channel": 0, "re": 1.0}], "X[0][0]: element rank 2 != group rank 1"),
        ([{"element": [], "channel": 0, "re": 1.0}], "X[0][0]: element rank 0 != group rank 1"),
        (
            [{"element": [0], "channel": 0, "re": 1.0}, {"element": [1], "channel": 1, "re": 1.0, "im": "x"}],
            "X[0][1].im must be a number",
        ),
        # several faults in one entry: the earliest check reports
        ([{"element": "x", "channel": 9, "re": float("nan")}], "X[0][0].channel outside 0..1"),
        ([{"element": "x", "channel": 0, "re": "y", "im": "z"}], "X[0][0].re must be a number"),
        ([{"element": [0, 0], "channel": 0, "re": 1.0, "im": float("nan")}], "X[0][0].im must be finite"),
        ({"element": [0]}, "family member X[0] must be a list of entries"),
    ]

    @pytest.mark.parametrize("entries,message", ENTRY_CASES, ids=range(len(ENTRY_CASES)))
    def test_entry_error_messages(self, tmp_path, entries, message):
        job = orthonormal_delta_job()
        job["families"]["X"] = [entries]
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["command"] == "analyze"
        assert report["error"] == {"code": "SchemaError", "message": message}

    SHIFT_CASES = [
        ([0], "X[0][0].element must be an integer"),
        (0.5, "X[0][0].element must be an integer"),
        (True, "X[0][0].element must be an integer"),
        (None, "X[0][0].element must be an integer"),
    ]

    @pytest.mark.parametrize("element,message", SHIFT_CASES, ids=range(len(SHIFT_CASES)))
    def test_shift_element_error_messages(self, tmp_path, element, message):
        job = orthonormal_delta_job()
        job["system"] = {"group": {"kind": "integer_shift", "grid": 8}, "channels": 1}
        job["families"]["X"] = [[{"element": element, "channel": 0, "re": 1.0}]]
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["error"] == {"code": "SchemaError", "message": message}

    def test_duplicate_entries_sum(self):
        space = SystemSpace(FiniteAbelian((2,)), 2)
        entries = [
            {"element": [0], "channel": 0, "re": 0.5},
            {"element": [1], "channel": 1, "im": 2.0},
            {"element": [0], "channel": 0, "re": 0.25, "im": 1.0},
            {"element": [2], "channel": 0, "re": 0.25},  # 2 = 0 in Z2
        ]
        v = _parse_member(space, entries, "X[0]")
        assert v.coeffs == {((0,), 0): 1.0 + 1.0j, ((1,), 1): 2.0j}
        assert v == GroupVector(space, {((0,), 0): 1.0 + 1.0j, ((1,), 1): 2.0j})

    @pytest.mark.parametrize("where", ["re", "im"])
    def test_integer_beyond_float_range(self, tmp_path, where):
        job = orthonormal_delta_job()
        job["families"]["X"][0][0][where] = 10**400
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["command"] == "analyze"
        assert report["error"] == {"code": "SchemaError", "message": f"X[0][0].{where} must be finite"}

    def test_tolerance_beyond_float_range(self, tmp_path):
        job = orthonormal_delta_job()
        job["options"]["tol_rank"] = -(10**400)
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["error"] == {"code": "SchemaError", "message": "tol_rank must be finite"}

    @pytest.mark.parametrize("name", ["tol_rank", "tol_bio"])
    @pytest.mark.parametrize("value,reason", [
        (-1.0, "positive"), (0.0, "positive"), (float("nan"), "finite"), (float("-inf"), "finite"),
    ])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, name, value, reason):
        error = {"code": "SchemaError", "message": f"{name} must be {reason}"}
        singular = orthonormal_delta_job()
        singular["families"]["X"] = [[entry([0], 0, 1.0)], [entry([0], 0, 1.0)]]
        singular_path = tmp_path / "singular.json"
        singular_path.write_text(json.dumps(singular))
        singular["options"][name] = value
        code, report, _ = run(tmp_path, singular, "options.json")
        assert (code, report["error"]) == (1, error)
        flag = "--" + name.replace("_", "-")
        for path in (singular_path, os.path.join(GOLDEN, "complement_z2.json")):
            out = tmp_path / "flag.report"
            assert main(["--job", str(path), f"{flag}={value!r}", "--out", str(out)]) == 1
            assert json.loads(out.read_text())["error"] == error

    def test_representation_cell_beyond_float_range(self, tmp_path):
        cell = [[{"re": 10**400, "im": 0.0}]]
        job = {
            "version": "wandergen/1",
            "command": "cancel",
            "system": {"group": {"kind": "builtin", "name": "S3"}},
            "representations": {"rho": {"dim": 1, "matrices": [cell] * 6}},
        }
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["error"] == {"code": "SchemaError", "message": "rho entry re must be finite"}

    # S3 one-dimensional matrices, one per element (element 0 is the identity)
    REPRESENTATION_CASES = [
        ([-1.0] * 6, "matrix at the identity is not the identity"),
        ([1.0] + [2.0] * 5, "representation matrices are not unitary"),
        ([1.0, -1.0, 1.0, 1.0, 1.0, 1.0], "homomorphism property fails at element 1"),
    ]

    @pytest.mark.parametrize("values,reason", REPRESENTATION_CASES, ids=range(len(REPRESENTATION_CASES)))
    def test_invalid_representation(self, tmp_path, values, reason):
        job = {
            "version": "wandergen/1",
            "command": "cancel",
            "system": {"group": {"kind": "builtin", "name": "S3"}},
            "representations": {"rho": {"dim": 1, "matrices": [[[{"re": v}]] for v in values]}},
        }
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["command"] == "cancel"
        assert report["error"] == {"code": "SchemaError", "message": f"representation 'rho' invalid: {reason}"}

    def test_trace_off_a_class_exits_2(self, tmp_path):
        # accepted (homomorphism residual 9e-11), but the trace spreads by 2.7e-10 on a class
        phase = np.exp(4.5e-11j)

        def matrix(z):
            return [[{"re": z.real if a == b else 0.0, "im": z.imag if a == b else 0.0} for b in range(6)]
                    for a in range(6)]

        rep = {"dim": 6, "matrices": [matrix(phase if g == 1 else 1.0 + 0j) for g in range(6)]}
        job = {
            "version": "wandergen/1",
            "command": "cancel",
            "system": {"group": {"kind": "builtin", "name": "S3"}},
            "representations": {name: rep for name in ("rho", "sigma1", "sigma2", "sigma3")},
        }
        code, report, _ = run(tmp_path, job)
        assert code == 2
        assert report["error"] == {"code": "HypothesisFailure", "message": "trace is not constant on a conjugacy class"}

    def test_missing_file(self, tmp_path):
        out = tmp_path / "r"
        code = main(["--job", str(tmp_path / "missing.json"), "--out", str(out)])
        assert code == 1

    def test_fuzzed_random_bytes(self, tmp_path):
        rng = np.random.default_rng(90)
        for i in range(20):
            raw = rng.integers(0, 256, size=rng.integers(1, 200), dtype=np.uint8).tobytes()
            code, report, _ = run(tmp_path, raw, name=f"fuzz{i}.json")
            assert code == 1


class TestEmptyFamilyHandling:
    def test_complement_equal_sizes_flagged_empty(self, tmp_path):
        job = {
            "version": "wandergen/1",
            "command": "complement",
            "system": z2_system(),
            "families": {
                "X": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
                "Y": [[entry([0], 0, 1.0)], [entry([0], 1, 1.0)]],
            },
        }
        code, report, _ = run(tmp_path, job)
        assert code == 0
        assert report["sizes"]["Xprime"] == 0
        assert report["families"]["Xprime"] == []

    def test_shift_complement_equal_sizes_has_no_fibers(self, tmp_path):
        members = [[entry(0, 0, 1.0)], [entry(0, 1, 1.0)]]
        job = {
            "version": "wandergen/1",
            "command": "complement",
            "system": {"group": {"kind": "integer_shift", "grid": 8}, "channels": 2},
            "families": {"X": members, "Y": members},
        }
        code, report, raw = run(tmp_path, job)
        assert code == 0
        assert report["sizes"]["Xprime"] == 0
        assert report["families"]["Xprime"]["fiber_sampled"] is True
        assert b'"fibers":[]' in raw


class TestFlags:
    def test_grid_override(self, tmp_path):
        job = {
            "version": "wandergen/1",
            "command": "bound-curve",
            "system": {"group": {"kind": "integer_shift", "grid": 8}, "channels": 1},
            "families": {"X": [[{"element": 0, "channel": 0, "re": 1.0, "im": 0.0}]]},
        }
        job_path = tmp_path / "g.json"
        out_path = tmp_path / "g.out"
        job_path.write_text(json.dumps(job))
        assert main(["--job", str(job_path), "--grid", "24", "--out", str(out_path)]) == 0
        assert len(out_path.read_text().strip().splitlines()) == 24

    @pytest.mark.parametrize("grid", [1, 0, -4])
    def test_grid_override_is_schema_checked(self, tmp_path, grid):
        job = {
            "version": "wandergen/1",
            "command": "bound-curve",
            "system": {"group": {"kind": "integer_shift", "grid": 8}, "channels": 1},
            "families": {"X": [[{"element": 0, "channel": 0, "re": 1.0}]]},
        }
        code, report, _ = run(tmp_path, job, extra=("--grid", str(grid)))
        assert (code, report["command"]) == (1, "bound-curve")
        assert report["error"] == {"code": "SchemaError", "message": "grid must be an integer >= 2"}
        job["system"]["group"]["grid"] = grid  # the same report as a bad grid in the job
        assert run(tmp_path, job, "in_job.json")[1] == report

    def test_timing_flag_adds_nondeterministic_field(self, tmp_path):
        code, report, _ = run(tmp_path, orthonormal_delta_job(), extra=("--timing",))
        assert code == 0
        assert isinstance(report["timing_ms"], float)
        code2, report2, _ = run(tmp_path, orthonormal_delta_job())
        assert report2["timing_ms"] is None

    def test_tolerance_override_reported(self, tmp_path):
        code, report, _ = run(
            tmp_path, orthonormal_delta_job(), extra=("--tol-rank", "1e-7", "--tol-bio", "1e-5")
        )
        assert code == 0
        assert report["options"]["tol_rank"] == pytest.approx(1e-7)
        assert report["options"]["tol_bio"] == pytest.approx(1e-5)


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, wandergen.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSerialization:
    def test_float_formatting_round_trips(self):
        values = [1.0, 1 / 3, 1e-9, math.pi, 0.1 + 0.2, 1.8660254037844386, -0.0]
        for v in values:
            text = render_json(v).strip()
            assert float(text) == (0.0 if v == 0 else v)

    def test_sorted_keys(self):
        assert render_json({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            render_json(float("inf"))

    def test_subclasses_render_like_their_base(self):
        value = {"b": (np.float64(0.5), np.int64(3), True, None, -0.0), "a": {"c": [1, "x", False]}}
        assert render_json(value) == '{"a":{"c":[1,"x",false]},"b":[0.5,3,true,null,0]}\n'

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            render_json({"a": {1: 2.0}})


# ---------------------------------------------------------------------------
# differential tests: the one-pass parser and the array renderer against the
# per-entry parser and the dict renderer they replace


def reference_number(value, where):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise cli.SchemaError(f"{where} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise cli.SchemaError(f"{where} must be finite")
    return value


def reference_parse(space, entries, label):
    """Per-entry parser into one dict of (canonical element, channel) -> complex,
    checks in the order entry type, channel, re, im, element; then, in shift
    mode, the support width."""
    if not isinstance(entries, list):
        raise cli.SchemaError(f"family member {label} must be a list of entries")
    channels = space.channels
    coeffs = {}
    for i, entry in enumerate(entries):
        at = f"{label}[{i}]"
        if not isinstance(entry, dict):
            raise cli.SchemaError(f"{at} must be an object")
        channel = entry.get("channel")
        if not isinstance(channel, int) or isinstance(channel, bool):
            raise cli.SchemaError(f"{at}.channel must be an integer")
        if not 0 <= channel < channels:
            raise cli.SchemaError(f"{at}.channel outside 0..{channels - 1}")
        re_part = reference_number(entry.get("re", 0.0), f"{at}.re")
        im_part = reference_number(entry.get("im", 0.0), f"{at}.im")
        element = entry.get("element")
        if not space.exact:
            if not isinstance(element, int) or isinstance(element, bool):
                raise cli.SchemaError(f"{at}.element must be an integer")
            key = (element, channel)
        else:
            orders = space.group.orders
            if not isinstance(element, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in element):
                raise cli.SchemaError(f"{at}.element must be a list of integers")
            if len(element) != len(orders):
                raise cli.SchemaError(f"{at}: element rank {len(element)} != group rank {len(orders)}")
            key = (tuple(x % n for x, n in zip(element, orders)), channel)
        coeffs[key] = coeffs.get(key, 0j) + complex(re_part, im_part)
    if not space.exact and coeffs:
        width = max(g for g, _ in coeffs) - min(g for g, _ in coeffs) + 1
        if width > space.group.grid_size:
            raise SupportExceedsGrid(
                f"support width {width} needs a grid of at least {2 * width} points, got {space.group.grid_size}"
            )
    return coeffs


def reference_member_json(space, coeffs):
    """Dict rendering: entries sorted by element index, then channel."""
    items = sorted(coeffs.items(), key=lambda kv: (space.group.index_of(kv[0][0]), kv[0][1]))
    return [
        {"element": list(element), "channel": channel, "re": float(value.real), "im": float(value.imag)}
        for (element, channel), value in items
    ]


def parse_outcome(parse, space, entries):
    try:
        return "ok", parse(space, entries, "X[0]")
    except (cli.SchemaError, SupportExceedsGrid) as exc:
        return type(exc).__name__, str(exc)


def storage_outcome(parse, space, entries):
    """``parse_outcome`` with the stored coefficients as (key, repr(value))
    pairs in storage order: by element index (exact) or position, then channel."""
    kind, parsed = parse_outcome(parse, space, entries)
    if kind != "ok":
        return kind, parsed
    if isinstance(parsed, GroupVector):
        return kind, [(key, repr(value)) for key, value in parsed.coeffs.items()]
    order = (lambda key: (space.group.index_of(key[0]), key[1])) if space.exact else None
    return kind, [(key, repr(parsed[key])) for key in sorted(parsed, key=order)]


HUGE = [2**63, -(2**63) - 1, 2**70, -(10**30)]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e308, -1e-308, 5e-324]),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([10**300, -(10**300), 2**1023]),
)


@st.composite
def exact_members(draw):
    orders = draw(st.sampled_from([(1,), (2,), (5,), (2, 3), (4, 2, 2)]))
    channels = draw(st.integers(min_value=1, max_value=3))
    coordinate = st.one_of(st.integers(min_value=-7, max_value=7), st.sampled_from(HUGE))
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        entry = {
            "element": [draw(coordinate) for _ in orders],
            "channel": draw(st.integers(min_value=0, max_value=channels - 1)),
        }
        for part in ("re", "im"):  # a missing part counts as 0
            if draw(st.booleans()):
                entry[part] = draw(NUMBERS)
        entries.append(entry)
    return SystemSpace(FiniteAbelian(orders), channels), entries


# faults a shift-mode entry can carry, each replacing one field (None: the whole entry)
SHIFT_FAULTS = [
    ("element", [0]), ("element", 0.5), ("element", True), ("element", None), ("element", "1"),
    ("channel", -1), ("channel", 2**70), ("channel", False), ("re", "x"), ("re", float("nan")),
    ("im", 10**400), ("im", None), (None, 3), (None, None),
]


@st.composite
def shift_members(draw):
    """Members near one or two far bases (two bases: a window wider than any
    grid), with windows up to and past the grid, duplicates, and at most one fault."""
    grid = draw(st.sampled_from([2, 8, 16]))
    channels = draw(st.integers(min_value=1, max_value=3))
    span = draw(st.sampled_from([1, grid // 2, grid, grid + 1, 2 * grid]))
    bases = draw(st.lists(st.sampled_from([0, -3, 10**30, -(2**70)]), min_size=1, max_size=2))
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        entry = {
            "element": draw(st.sampled_from(bases)) + draw(st.integers(min_value=0, max_value=span - 1)),
            "channel": draw(st.integers(min_value=0, max_value=channels - 1)),
        }
        for part in ("re", "im"):  # a missing part counts as 0
            if draw(st.booleans()):
                entry[part] = draw(NUMBERS)
        entries.append(entry)
    if entries:
        entries += draw(st.lists(st.sampled_from(entries), max_size=4))  # duplicates
        if draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(entries) - 1))
            field, value = draw(st.sampled_from(SHIFT_FAULTS))
            entries[at] = value if field is None else dict(entries[at], **{field: value})
    return SystemSpace(IntegerShift(grid), channels), entries


class TestBulkParsingDifferential:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(member=exact_members())
    def test_coeffs_and_rendering_match_the_dict_reference(self, member):
        space, entries = member
        expected = reference_parse(space, entries, "X[0]")
        v = _parse_member(space, entries, "X[0]")
        # storage order: element index, then channel; Python complex values
        order = sorted(expected, key=lambda k: (space.group.index_of(k[0]), k[1]))
        assert list(v.coeffs) == order
        assert [repr(x) for x in v.coeffs.values()] == [repr(expected[k]) for k in order]
        assert all(type(x) is complex for x in v.coeffs.values())

        def rendered(members):
            try:
                return render_json(members())
            except ValueError as exc:  # a sum that overflowed to inf
                return str(exc)

        fast = rendered(lambda: cli._family_json(Family(space, (v,))))
        assert fast == rendered(lambda: [reference_member_json(space, expected)])

    BAD_VALUES = [
        ("channel", 4), ("channel", -1), ("channel", True), ("channel", 1.0), ("channel", None),
        ("channel", 2**70), ("re", "1"), ("re", float("nan")), ("re", 10**400), ("re", False),
        ("im", float("-inf")), ("im", None), ("im", -(10**400)), ("element", [0, 0]), ("element", []),
        ("element", [1.0]), ("element", [True]), ("element", 3), ("element", None), (None, "entry"),
    ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        length=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_first_faulty_entry_is_reported(self, length, data):
        space = SystemSpace(FiniteAbelian((7,)), 2)
        entries = [entry([i], i % 2, 0.5 * i, -0.25 * i) for i in range(length)]
        bad = sorted(set(data.draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=3))))
        for at in bad:
            field, value = data.draw(st.sampled_from(self.BAD_VALUES))
            if field is None:
                entries[at] = value
            else:
                entries[at] = dict(entries[at], **{field: value})
        assert parse_outcome(_parse_member, space, entries) == parse_outcome(reference_parse, space, entries)
        assert parse_outcome(_parse_member, space, entries)[1].startswith(f"X[0][{bad[0]}]")

    @pytest.mark.parametrize("field,value,message", [
        ("re", "x", "X[0][3071].re must be a number"),
        ("channel", 9, "X[0][3071].channel outside 0..3"),
        ("element", [1, 2], "X[0][3071]: element rank 2 != group rank 1"),
        ("im", 10**400, "X[0][3071].im must be finite"),
    ], ids=["re", "channel", "element", "im"])
    def test_deep_fault_in_long_member(self, tmp_path, field, value, message):
        job = orthonormal_delta_job()
        job["system"] = {"group": {"kind": "finite_abelian", "orders": [1024]}, "channels": 4}
        member = [entry([g], c, 1.0, -1.0) for g in range(1024) for c in range(4)]
        member[3071][field] = value
        member[3500]["channel"] = -1  # a later fault never wins
        job["families"]["X"] = [member]
        code, report, _ = run(tmp_path, job)
        assert code == 1
        assert report["error"] == {"code": "SchemaError", "message": message}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(member=shift_members())
    def test_shift_members_match_the_reference(self, member):
        space, entries = member
        assert storage_outcome(_parse_member, space, entries) == storage_outcome(reference_parse, space, entries)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_benchmark_members_match_the_reference(self, seed):
        gen, modes = benchmark_gen(), set()
        for workload in gen.WORKLOADS:
            for _, text, _ in gen.pool(workload, seed, small=True):
                job = json.loads(text)
                if "families" not in job:  # the non-abelian jobs take no members
                    continue
                space = cli._parse_system(job, None)
                modes.add(space.exact)
                for name, members in job["families"].items():
                    for j, entries in enumerate(members):
                        expected = storage_outcome(reference_parse, space, entries)
                        assert storage_outcome(_parse_member, space, entries) == expected, (name, j)
        assert modes == {True, False}

    def test_subclassed_values_parse_like_plain_ones(self):
        class Entry(dict):
            pass

        space = SystemSpace(FiniteAbelian((3,)), 1)
        entries = [Entry(element=[1], channel=0, re=2.0), {"element": [4], "channel": 0, "im": 1}]
        v = _parse_member(space, entries, "X[0]")
        assert v.coeffs == {((1,), 0): 2.0 + 1.0j}

    def test_parse_does_not_mutate_the_job(self, tmp_path):
        job = orthonormal_delta_job()
        job["families"]["X"][0].append(entry([1], 0, -0.0, 1))
        before = json.dumps(job, sort_keys=True)
        args = cli.build_parser().parse_args(["--job", "-"])
        first = cli.run_job(job, args)
        assert json.dumps(job, sort_keys=True) == before
        assert cli.run_job(job, args) == first


def reference_representation(group, block, name):
    """Per-cell walk of a representation block, in the order matrix shape, row
    shape, cell object, re, im; then the representation of its matrices."""
    from wandergen import nonabelian

    dim, matrices = block["dim"], block["matrices"]
    mats = np.zeros((group.order, dim, dim), dtype=np.complex128)
    for g, mat in enumerate(matrices):
        if not isinstance(mat, list) or len(mat) != dim:
            raise cli.SchemaError(f"{name}.matrices[{g}] must be {dim} rows")
        for a, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dim:
                raise cli.SchemaError(f"{name}.matrices[{g}][{a}] must be {dim} entries")
            for b, cell in enumerate(row):
                if not isinstance(cell, dict):
                    raise cli.SchemaError(f"{name}.matrices[{g}][{a}][{b}] must be {{re, im}}")
                mats[g, a, b] = complex(
                    reference_number(cell.get("re", 0.0), f"{name} entry re"),
                    reference_number(cell.get("im", 0.0), f"{name} entry im"),
                )
    try:
        return nonabelian.Representation(group, mats)
    except ValueError as exc:
        raise cli.SchemaError(f"representation '{name}' invalid: {exc}") from exc


# faulty cells and rows of a representation block
CELL_FAULTS = [1.0, None, [1.0], {"re": "x"}, {"re": True}, {"re": 1.0, "im": float("nan")}, {"im": 10**400},
               {"re": None}]
ROW_FAULTS = ["row", None, [], [{"re": 1.0}] * 4]


@st.composite
def representation_blocks(draw):
    """The trivial representation of S3 in dims 2-3, its cells spelled several
    ways, with faulty cells at random (g, a, b), then short or faulty rows and
    matrices at random places, often after the faulty cells."""
    dim = draw(st.integers(min_value=2, max_value=3))
    one = st.sampled_from([{"re": 1}, {"re": 1.0, "im": 0}, {"im": -0.0, "re": 1.0}])
    zero = st.sampled_from([{}, {"re": 0}, {"re": -0.0, "im": 0.0}])
    matrices = [[[draw(one if a == b else zero) for b in range(dim)] for a in range(dim)] for _ in range(6)]
    index = st.tuples(st.integers(0, 5), st.integers(0, dim - 1), st.integers(0, dim - 1))
    for g, a, b in draw(st.lists(index, max_size=3)):
        matrices[g][a][b] = draw(st.sampled_from(CELL_FAULTS))
    for g, a in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(-1, dim - 1)), max_size=2)):
        mat = matrices[g]
        if not isinstance(mat, list):  # already faulty
            continue
        if a < 0:  # the whole matrix
            matrices[g] = draw(st.sampled_from([mat[:-1], "matrix", mat + [[]]]))
        elif a < len(mat):
            short = [mat[a][:-1]] if isinstance(mat[a], list) else []
            mat[a] = draw(st.sampled_from(short + ROW_FAULTS))
    return {"dim": dim, "matrices": matrices}


class TestRepresentationParsing:
    @staticmethod
    def job(matrices):
        return {
            "version": "wandergen/1",
            "command": "cancel",
            "system": {"group": {"kind": "builtin", "name": "S3"}},
            "representations": {"rho": {"dim": 1, "matrices": matrices}},
        }

    def test_subclassed_cells_parse_like_plain_ones(self):
        from wandergen import nonabelian

        class Cell(dict):  # not a plain dict: takes the per-cell type test
            pass

        group = nonabelian.symmetric_3()
        # the trivial representation, spelled six ways
        cells = [{"re": 1}, {"re": 1.0, "im": 0}, {"re": 1, "im": -0.0}, {"re": 1.0}, {"im": 0.0, "re": 1}, {"re": 1.0, "im": 0.0}]
        reps = [
            cli._parse_representation(group, {"rho": {"dim": 1, "matrices": [[[make(c)]] for c in cells]}}, "rho")
            for make in (dict, Cell)
        ]
        assert np.array_equal(reps[0].matrices, reps[1].matrices)
        assert reps[0].matrices.dtype == reps[1].matrices.dtype == np.complex128

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(block=representation_blocks())
    def test_cells_match_the_per_cell_reference(self, block):
        from wandergen import nonabelian

        def outcome(parse):
            try:
                return "ok", parse().tobytes()
            except cli.SchemaError as exc:
                return "error", str(exc)

        group = nonabelian.symmetric_3()
        parsed = outcome(lambda: cli._parse_representation(group, {"rho": block}, "rho").matrices)
        assert parsed == outcome(lambda: reference_representation(group, block, "rho").matrices)

    @pytest.mark.parametrize("faults,message", [
        ({4: [[{"re": "x"}]], 5: [[{"re": 1.0}], [{"re": 1.0}]]}, "rho entry re must be a number"),
        ({2: [[{"re": 1.0}], [{"re": 1.0}]], 4: [[{"im": 10**400}]]}, "rho.matrices[2] must be 1 rows"),
        ({3: [[{"re": 1.0, "im": float("nan")}]]}, "rho entry im must be finite"),
        ({1: [[1.0]], 5: [[{"re": "y"}]]}, "rho.matrices[1][0][0] must be {re, im}"),
        ({5: [[{"re": 1.0}, {"re": 0.0}]]}, "rho.matrices[5][0] must be 1 entries"),
    ])
    def test_first_fault_wins(self, tmp_path, faults, message):
        matrices = [[[{"re": 1.0}]] for _ in range(6)]
        for g, mat in faults.items():
            matrices[g] = mat
        code, report, _ = run(tmp_path, self.job(matrices))
        assert code == 1
        assert report["error"] == {"code": "SchemaError", "message": message}

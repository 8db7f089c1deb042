"""Wandering certificates, the dimension audit, and the complement construction."""

import sys

import numpy as np
import pytest

import wandergen as wg
from wandergen import _linalg, oracle
from wandergen.fibers import fiber_span_angle
from conftest import (
    random_orthonormal_family,
    random_riesz_family,
    random_robertson_instance,
    random_wandering_subfamily,
)


def space(orders, m=1):
    return wg.SystemSpace(wg.FiniteAbelian(tuple(orders)), m)


class TestVerifyWandering:
    def test_standard_deltas_complete(self):
        sp = space([3], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        cert = wg.verify_wandering(fam)
        assert cert.valid and cert.complete
        assert cert.max_gram_residual <= 1e-15

    def test_single_delta_incomplete(self):
        sp = space([3], 2)
        cert = wg.verify_wandering(wg.Family(sp, (wg.delta(sp, 0, 0),)))
        assert cert.valid and not cert.complete

    def test_complete_at_the_callers_rank_tolerance(self):
        # Gram eigenvalues 1 and 1e-12 at both points: not Riesz at the
        # default cutoff, so not complete either; complete below 1e-12
        sp = space([2], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), 1e-6 * wg.delta(sp, 0, 1)))
        with pytest.raises(wg.NotRiesz):
            wg.riesz_bounds(fam)
        assert not wg.verify_wandering(fam).complete
        assert not wg.verify_wandering(fam, tol_rank=1e-3).complete
        assert wg.verify_wandering(fam, tol_rank=1e-13).complete

    def test_orthonormalized_random_family(self):
        rng = np.random.default_rng(40)
        fam = random_riesz_family(rng, space([4], 3), 2)
        cert = wg.verify_wandering(wg.orthonormalize(fam))
        assert cert.valid
        assert cert.max_gram_residual <= 1e-9
        # oracle agreement: orbit Gram is the identity densely too
        M = oracle.dense_family_matrix(cert.family)
        assert np.max(np.abs(M.conj().T @ M - np.eye(M.shape[1]))) <= 1e-9

    def test_non_wandering_family(self):
        sp = space([2])
        x = wg.delta(sp, 0) + 0.5 * wg.delta(sp, 1)
        cert = wg.verify_wandering(wg.Family(sp, (x,)))
        assert not cert.valid


class TestBesselDimensionAudit:
    def test_equal_orthonormal_families(self):
        sp = space([4], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        audit = wg.bessel_dimension_audit(fam, fam)
        assert audit.dim_m == audit.dim_k == 2
        assert audit.double_sum == pytest.approx(2.0, abs=1e-12)

    def test_one_delta_inside_two(self):
        sp = space([4], 2)
        M = wg.Family(sp, (wg.delta(sp, 0, 0),))
        K = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        audit = wg.bessel_dimension_audit(M, K)
        assert audit.double_sum == pytest.approx(1.0, abs=1e-12)
        assert audit.dim_m <= audit.dim_k

    def test_random_instance(self):
        rng = np.random.default_rng(41)
        sp = space([6], 3)
        K = random_orthonormal_family(rng, sp, 3)
        M = random_wandering_subfamily(rng, K, 2)
        audit = wg.bessel_dimension_audit(M, K)
        assert abs(audit.double_sum - audit.dim_m) <= 1e-8
        assert audit.dim_m <= audit.dim_k

    def test_shift_mode_overlap_window(self):
        sp = wg.SystemSpace(wg.IntegerShift(32), 2)
        K = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        M = wg.Family(sp, ((wg.delta(sp, 0, 0) + wg.delta(sp, 0, 1)) * (1 / np.sqrt(2)),))
        audit = wg.bessel_dimension_audit(M, K)
        assert abs(audit.double_sum - 1.0) <= 1e-12

    def test_not_wandering_rejected(self):
        sp = space([2])
        bad = wg.Family(sp, (wg.delta(sp, 0) + 0.5 * wg.delta(sp, 1),))
        good = wg.Family(sp, (wg.delta(sp, 0),))
        with pytest.raises(wg.NotWandering):
            wg.bessel_dimension_audit(bad, good)

    def test_not_contained_rejected(self):
        sp = space([2], 2)
        M = wg.Family(sp, (wg.delta(sp, 0, 1),))
        K = wg.Family(sp, (wg.delta(sp, 0, 0),))
        with pytest.raises(wg.NotContained):
            wg.bessel_dimension_audit(M, K)


class TestComplementWandering:
    def test_equal_families_empty(self):
        sp = space([4], 2)
        fam = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        out = wg.complement_wandering(fam, fam)
        assert len(out) == 0

    def test_sizes_z4(self):
        rng = np.random.default_rng(42)
        sp = space([4], 2)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        out = wg.complement_wandering(X, Y)
        assert len(out) == len(Y) - len(X) == 1

    def test_z2_worked_example(self):
        sp = space([2], 2)
        e1, e2 = wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)
        X = wg.Family(sp, ((e1 + e2) * (1 / np.sqrt(2)),))
        Y = wg.Family(sp, (e1, e2))
        out = wg.complement_wandering(X, Y)
        expected = (e1 - e2) * (1 / np.sqrt(2))
        got = out.members[0].dense().reshape(-1)
        want = expected.dense().reshape(-1)
        # equality up to a unimodular phase
        phase = got[np.argmax(np.abs(got))] / want[np.argmax(np.abs(want))]
        assert abs(abs(phase) - 1) <= 1e-12
        np.testing.assert_allclose(got, phase * want, atol=1e-12)
        # dense-oracle check: X' spans the orthocomplement of X's orbit in Y's
        P = oracle.dense_projector(oracle.dense_family_matrix(Y)) - oracle.dense_projector(
            oracle.dense_family_matrix(X)
        )
        np.testing.assert_allclose(P @ got, got, atol=1e-10)

    def test_union_certificate_and_span(self):
        rng = np.random.default_rng(43)
        X, Y = random_robertson_instance(rng)
        out = wg.complement_wandering(X, Y)
        assert len(out) == len(Y) - len(X)
        if len(out):
            union = wg.Family(X.space, X.members + out.members)
            assert wg.gram_fibers(union).identity_deviation() <= 1e-9
            assert fiber_span_angle(union, Y) <= 1e-8
            assert wg.verify_wandering(out).valid

    def test_determinism_bit_for_bit(self):
        rng1, rng2 = np.random.default_rng(44), np.random.default_rng(44)
        X1, Y1 = random_robertson_instance(rng1)
        X2, Y2 = random_robertson_instance(rng2)
        out1 = wg.complement_wandering(X1, Y1)
        out2 = wg.complement_wandering(X2, Y2)
        assert len(out1) == len(out2)
        for a, b in zip(out1.members, out2.members):
            assert a.coeffs == b.coeffs

    def test_not_wandering_rejected(self):
        sp = space([2], 2)
        bad = wg.Family(sp, (wg.delta(sp, 0, 0) + 0.3 * wg.delta(sp, 1, 0),))
        Y = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        with pytest.raises(wg.NotWandering):
            wg.complement_wandering(bad, Y)

    def test_not_contained_rejected(self):
        sp = space([2], 3)
        X = wg.Family(sp, (wg.delta(sp, 0, 2),))
        Y = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        with pytest.raises(wg.NotContained):
            wg.complement_wandering(X, Y)


class TestTransformsOnce:
    def test_complement_transforms_each_member_once(self, monkeypatch):
        rng = np.random.default_rng(61)
        X, Y = random_robertson_instance(rng)
        # fresh families, so no fibers are cached yet
        X, Y = wg.Family(X.space, X.members), wg.Family(Y.space, Y.members)
        original = wg.groups.dft
        calls = []

        def counting(group, a):
            calls.append(a.shape[-1])  # members in this (|G|, channels, members) stack
            return original(group, a)

        for name, module in list(sys.modules.items()):
            if name.startswith("wandergen") and getattr(module, "dft", None) is original:
                monkeypatch.setattr(module, "dft", counting)
        wg.complement_wandering(X, Y)
        # one batched transform per family, covering each member once
        assert sorted(calls) == sorted([len(X), len(Y)])


class TestShiftModeComplement:
    def test_rotating_fiber_complement(self):
        sp = wg.SystemSpace(wg.IntegerShift(32), 2)
        a, b = 0.8, 0.6
        X = wg.Family(sp, (a * wg.delta(sp, 0, 0) + b * wg.delta(sp, 1, 1),))
        Y = wg.Family(sp, (wg.delta(sp, 0, 0), wg.delta(sp, 0, 1)))
        out = wg.complement_wandering(X, Y)
        assert isinstance(out, wg.SampledFamily)
        assert len(out) == 1
        # fiberwise: orthogonal to X, inside Y's span (all channels), unit norm
        FX = X.fibers
        F = out.fibers
        inner = np.einsum("pc,pc->p", FX[:, :, 0].conj(), F[:, :, 0])
        assert np.max(np.abs(inner)) <= 1e-9
        np.testing.assert_allclose(np.linalg.norm(F[:, :, 0], axis=1), 1.0, atol=1e-9)
        # aligned selection is smooth: neighbouring fibers stay close
        diffs = np.linalg.norm(np.diff(F[:, :, 0], axis=0), axis=1)
        assert diffs.max() <= 0.5

    def test_alignment_obstruction_detected(self):
        # hand-built wildly twisting bundle: alignment cannot keep columns close
        rng = np.random.default_rng(45)
        stack = np.empty((8, 4, 1), dtype=np.complex128)
        for p in range(8):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            stack[p, :, 0] = v / np.linalg.norm(v)
        with pytest.raises(wg.SelectionObstruction):
            _linalg.procrustes_align(stack)

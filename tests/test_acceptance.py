"""Acceptance criteria, one test per criterion.

Each criterion runs at its stated tolerance and instance count and prints
one PASS/FAIL line (visible with pytest -s).  Random draws use fixed seeds,
so results replay bit-for-bit on one numerics stack.
"""

import functools
import os
import time

import numpy as np
import pytest

import wandergen as wg
from wandergen import nonabelian as na
from wandergen import oracle, _linalg
from wandergen.cli import main
from wandergen.fibers import fiber_span_angle
from conftest import (
    compress,
    haar_unitary,
    random_commutant_unitary,
    random_family,
    random_frame_instance,
    random_invariant_splitting,
    random_biortho_quadruple,
    random_noninvariant_dense_w0,
    random_oblique_instance,
    random_orthonormal_family,
    random_projection_triple,
    random_robertson_instance,
    random_space,
    random_wandering_subfamily,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def criterion(num, description, budget=None):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:2d}: FAIL - {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nACCEPTANCE {num:2d}: PASS - {description} ({elapsed:.1f}s)")
            if budget is not None:
                assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
        return inner
    return wrap


@criterion(1, "fiber and dense-oracle bounds agree on 200 random families", budget=10)
def test_c01_bound_agreement():
    rng = np.random.default_rng(101)
    for _ in range(200):
        space = random_space(rng)
        k = int(rng.integers(1, space.channels + 1))
        fam = random_family(rng, space, k)
        rb, drb = wg.riesz_bounds(fam), oracle.dense_riesz_bounds(fam)
        assert abs(rb.lower - drb.lower) <= 1e-8
        assert abs(rb.upper - drb.upper) <= 1e-8
        fb, dfb = wg.frame_bounds(fam), oracle.dense_frame_bounds(fam)
        assert abs(fb.lower - dfb.lower) <= 1e-8
        assert abs(fb.upper - dfb.upper) <= 1e-8


@criterion(2, "wandering complement: sizes, union Gram, span equality (100 runs)", budget=20)
def test_c02_wandering_complement():
    rng = np.random.default_rng(102)
    for _ in range(100):
        X, Y = random_robertson_instance(rng)
        Xp = wg.complement_wandering(X, Y)
        assert len(Xp) == len(Y) - len(X)
        union = wg.Family(X.space, X.members + Xp.members)
        M = oracle.dense_family_matrix(union)
        assert np.max(np.abs(M.conj().T @ M - np.eye(M.shape[1]))) <= 1e-9
        assert fiber_span_angle(union, Y) <= 1e-8


@criterion(3, "dimension audit reproduces dim M and respects dim K (100 runs)")
def test_c03_dimension_audit():
    rng = np.random.default_rng(103)
    for _ in range(100):
        X, Y = random_robertson_instance(rng)
        audit = wg.bessel_dimension_audit(X, Y)
        assert abs(audit.double_sum - audit.dim_m) <= 1e-8
        assert audit.dim_m <= audit.dim_k
        assert audit.double_sum <= audit.dim_k + 1e-8


@criterion(4, "oblique Riesz wavelets: 50 orbit splits, 20 non-invariant rejections", budget=20)
def test_c04_oblique_riesz():
    rng = np.random.default_rng(104)
    for _ in range(50):
        X, Y, W0 = random_oblique_instance(rng)
        gamma = wg.oblique_riesz_wavelets(X, Y, W0)
        assert len(gamma) == len(Y) - len(X)
        assert wg.riesz_bounds(gamma).lower > 0
        assert wg.is_contained(gamma, W0)
    for _ in range(20):
        X, Y, _ = random_oblique_instance(rng)
        dense_w0 = random_noninvariant_dense_w0(rng, X, Y)
        with pytest.raises(wg.NotInvariant):
            wg.oblique_riesz_wavelets(X, Y, dense_w0)


@criterion(5, "restricted projection pairs invert within 1e-9 (100 runs)")
def test_c05_projection_pairs():
    rng = np.random.default_rng(105)
    for _ in range(100):
        M, Mp, N = random_projection_triple(rng)
        pair = wg.restricted_projection_pair(M, Mp, N)
        assert pair.inverse_residual <= 1e-9


@criterion(6, "frame wavelets satisfy the frame inequality on 100 vectors x 50 runs")
def test_c06_frame_wavelets():
    rng = np.random.default_rng(106)
    for _ in range(50):
        X, Y, W0 = random_frame_instance(rng)
        gamma = wg.oblique_frame_wavelets(X, Y, W0)
        assert len(gamma) == len(Y)
        bounds = wg.frame_bounds(gamma)
        assert bounds.lower > 0
        # 100 random vectors of W0, dense analysis sums
        B = oracle.dense_orth_basis(oracle.dense_family_matrix(W0))
        coeffs = rng.standard_normal((B.shape[1], 100)) + 1j * rng.standard_normal(
            (B.shape[1], 100)
        )
        W = B @ coeffs
        orbit = oracle.dense_family_matrix(gamma)
        sums = np.sum(np.abs(orbit.conj().T @ W) ** 2, axis=0)
        norms = np.sum(np.abs(W) ** 2, axis=0)
        slack = 1e-8 * np.maximum(1.0, bounds.upper * norms)
        assert np.all(bounds.lower * norms - slack <= sums)
        assert np.all(sums <= bounds.upper * norms + slack)


@criterion(7, "biorthogonal pipeline: duality and union Riesz (25 quadruples)", budget=30)
def test_c07_biorthogonal_pipeline():
    rng = np.random.default_rng(107)
    for _ in range(25):
        X, Xt, Y, Yt = random_biortho_quadruple(rng)
        pair = wg.biorthogonal_wavelets(X, Xt, Y, Yt)
        ok, residual = wg.is_biorthogonal(pair.gamma, pair.gamma_tilde)
        assert ok and residual <= 1e-9
        assert wg.riesz_bounds(wg.Family(X.space, X.members + pair.gamma.members)).lower > 0
        assert wg.riesz_bounds(wg.Family(Xt.space, Xt.members + pair.gamma_tilde.members)).lower > 0
        assert pair.union_residual <= 1e-9


@criterion(8, "cancellation on S3, D4, Q8 for all multiples N <= 3 x 20 bases", budget=30)
def test_c08_cancellation():
    rng = np.random.default_rng(108)
    for make in (na.symmetric_3, na.dihedral_4, na.quaternion_8):
        group = make()
        for multiple in (1, 2, 3):
            lam = na.regular_representation(group, multiple)
            for _ in range(20):
                BS, BP = random_invariant_splitting(rng, lam)
                sigma1 = compress(lam, BS @ haar_unitary(rng, BS.shape[1]))
                sigma2 = compress(lam, BP @ haar_unitary(rng, BP.shape[1]))
                sigma3 = compress(lam, BP @ haar_unitary(rng, BP.shape[1]))
                witness = na.cancel(lam, sigma1, sigma2, sigma3)
                assert witness.residual <= 1e-9
                assert witness.unitary
                eye = np.eye(witness.matrix.shape[0])
                assert np.max(np.abs(witness.matrix.conj().T @ witness.matrix - eye)) <= 1e-9
                assert na.character(sigma2).agrees(na.character(sigma3), 1e-9)


@criterion(9, "non-abelian complement: union Gram; abelian case matches fiber path")
def test_c09_nonabelian_complement():
    rng = np.random.default_rng(109)

    def standard_columns(group, multiplicity, count):
        cols = np.zeros((group.order * multiplicity, count), dtype=np.complex128)
        for b in range(count):
            cols[group.identity * multiplicity + b, b] = 1.0
        return cols

    for make in (na.symmetric_3, na.dihedral_4):
        group = make()
        for multiple in (1, 2):
            for _ in range(5):
                lam = na.regular_representation(group, multiple)
                Y = random_commutant_unitary(rng, lam) @ standard_columns(group, multiple, multiple)
                r = int(rng.integers(0, multiple + 1))
                X = (
                    random_commutant_unitary(rng, lam)
                    @ standard_columns(group, multiple, r)
                    if r
                    else np.zeros((group.order * multiple, 0), dtype=np.complex128)
                )
                Xp = na.wandering_complement_general(X, Y, group, multiple)
                assert Xp.shape[1] == multiple - r
                union = na._orbit_matrix(group, multiple, np.hstack([X, Xp]))
                assert np.max(np.abs(union.conj().T @ union - np.eye(union.shape[1]))) <= 1e-9
    # abelian special case agrees with the fiberized complement
    for orders in ((4,), (6,), (2, 2)):
        spec = wg.FiniteAbelian(orders)
        sp = wg.SystemSpace(spec, 2)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        fiber_out = wg.complement_wandering(X, Y)
        group = na.from_abelian(spec)
        lam = na.regular_representation(group, 2)
        to_cols = lambda fam: np.stack([v.dense().reshape(-1) for v in fam.members], axis=1)
        dense_out = na.wandering_complement_general(to_cols(X), to_cols(Y), group, 2)
        orbit_a = na._orbit_matrix(group, 2, to_cols(fiber_out))
        orbit_b = na._orbit_matrix(group, 2, dense_out)
        assert _linalg.max_principal_angle(_linalg.thin_svd(orbit_a), _linalg.thin_svd(orbit_b)) <= 1e-8


@criterion(10, "golden reports reproduce byte-for-byte under fixed seed")
def test_c10_golden_files(tmp_path):
    for name in ("complement_z2", "oblique_z2", "cancel_s3"):
        out = tmp_path / f"{name}.report.json"
        code = main(
            ["--job", os.path.join(GOLDEN, f"{name}.json"), "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        with open(os.path.join(GOLDEN, f"{name}.report.json"), "rb") as handle:
            assert out.read_bytes() == handle.read()

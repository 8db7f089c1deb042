"""Group model: characters, transforms, translation, modulation, convolution."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wandergen as wg
from wandergen.groups import character_table


def space(orders, m=1):
    return wg.SystemSpace(wg.FiniteAbelian(tuple(orders)), m)


def random_vector(rng, sp):
    n = sp.group.order
    dense = rng.standard_normal((n, sp.channels)) + 1j * rng.standard_normal((n, sp.channels))
    return wg.from_dense(sp, dense)


class TestDualSampling:
    def test_z2_characters(self):
        sampling = wg.dual_sampling(space([2]))
        assert sampling.exact
        vals = [[p.evaluate((g,)) for g in (0, 1)] for p in sampling.points]
        np.testing.assert_allclose(vals, [[1, 1], [1, -1]], atol=1e-15)

    def test_trivial_group(self):
        sampling = wg.dual_sampling(space([1]))
        assert len(sampling) == 1
        assert sampling.points[0].evaluate((0,)) == pytest.approx(1.0)

    def test_z4_imaginary_unit(self):
        sampling = wg.dual_sampling(space([4]))
        assert sampling.points[1].evaluate((1,)) == pytest.approx(1j)

    def test_shift_grid(self):
        sp = wg.SystemSpace(wg.IntegerShift(8), 1)
        sampling = wg.dual_sampling(sp)
        assert not sampling.exact
        angles = [p.angle for p in sampling.points]
        assert angles == sorted(angles)
        assert sampling.points[1].evaluate(1) == pytest.approx(np.exp(2j * np.pi / 8))

    def test_character_multiplicativity(self):
        rng = np.random.default_rng(0)
        group = wg.FiniteAbelian((3, 4))
        sampling = wg.dual_sampling(wg.SystemSpace(group, 1))
        for _ in range(20):
            g = tuple(rng.integers(0, 12, size=2))
            h = tuple(rng.integers(0, 12, size=2))
            for p in sampling.points:
                assert abs(p.evaluate(group.compose(g, h)) - p.evaluate(g) * p.evaluate(h)) <= 1e-12
                assert abs(abs(p.evaluate(g)) - 1.0) <= 1e-12
        assert all(abs(p.evaluate(group.identity) - 1) <= 1e-15 for p in sampling.points)


class TestFourier:
    def test_delta_flat_spectrum(self):
        f = wg.fourier(wg.delta(space([4]), 0))
        np.testing.assert_allclose(f.values.ravel(), 0.5, atol=1e-15)

    def test_character_vector_maps_to_delta(self):
        # the evaluation vector of the g-th character transforms to the
        # indicator of the dual point at index g
        group = wg.FiniteAbelian((4,))
        sp = wg.SystemSpace(group, 1)
        for g in group.elements():
            chars = np.array([[wg.DualPoint(group, g).evaluate(h)] for h in group.elements()])
            v = wg.from_dense(sp, chars / np.sqrt(group.order))
            out = wg.fourier(v).values.ravel()
            expected = np.zeros(4)
            expected[group.index_of(g)] = 1.0
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_parseval_z6_two_channels(self):
        rng = np.random.default_rng(1)
        v = random_vector(rng, space([6], 2))
        vhat = wg.fourier(v)
        assert abs(np.linalg.norm(vhat.values) - v.norm()) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        sp = space([2, 3], 2)
        v = random_vector(rng, sp)
        back = wg.inverse_fourier(wg.fourier(v), sp)
        np.testing.assert_allclose(back.dense(), v.dense(), atol=1e-12)

    def test_shift_mode_exact_evaluation(self):
        sp = wg.SystemSpace(wg.IntegerShift(16), 1)
        v = wg.delta(sp, 2) + 0.5 * wg.delta(sp, -1)
        out = wg.fourier(v)
        for p, point in enumerate(out.sampling.points):
            w = np.exp(1j * point.angle)
            assert abs(out.values[p, 0] - (w**-2 + 0.5 * w)) <= 1e-12

    def test_support_exceeds_grid(self):
        sp = wg.SystemSpace(wg.IntegerShift(8), 1)
        v = wg.delta(sp, 0) + wg.delta(sp, 6)
        with pytest.raises(wg.SupportExceedsGrid):
            wg.fourier(v)


def character_sum(group, dense):
    """|G|^{-1/2} sum_e dense[e] conj(gamma_p(e)) term by term: phases reduced
    mod n in integers, real and imaginary parts summed exactly by fsum."""
    els = np.array(group.elements())
    phase = sum(np.outer(els[:, j], els[:, j]) % n / n for j, n in enumerate(group.orders))
    conj_chars = np.exp(-2j * np.pi * phase)
    out = np.empty(dense.shape, dtype=np.complex128)
    for c in range(dense.shape[1]):
        for p, terms in enumerate(conj_chars * dense[:, c]):
            out[p, c] = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return out / math.sqrt(group.order)


class TestPhaseAccuracy:
    """Phases reduced mod n stay accurate as the group or the support grows;
    a direct character sum (exact mode) or numpy's FFT (sampled mode) is the
    independent reference."""

    @pytest.mark.parametrize("orders", [(1024,), (32, 32)])
    def test_exact_transform_matches_character_sum(self, orders):
        rng = np.random.default_rng(3)
        group = wg.FiniteAbelian(orders)
        dense = rng.standard_normal((group.order, 2)) + 1j * rng.standard_normal((group.order, 2))
        out = wg.fourier(wg.from_dense(wg.SystemSpace(group, 2), dense)).values
        assert np.max(np.abs(out - character_sum(group, dense))) <= 1e-14

    def test_transforms_skip_the_character_table(self, monkeypatch):
        def table(group):
            raise AssertionError("the exact transforms must not build the character table")

        monkeypatch.setattr(wg.groups, "character_table", table)
        sp = space([3, 4], 2)
        v = random_vector(np.random.default_rng(9), sp)
        back = wg.inverse_fourier(wg.fourier(v), sp)
        np.testing.assert_allclose(back.dense(), v.dense(), atol=1e-14)

    def test_evaluate_large_cyclic(self):
        n = 2**20
        k, x = n - 3, n - 5
        ref = np.conj(np.fft.fft(np.eye(1, n, x).ravel()))[k]
        assert abs(wg.DualPoint(wg.FiniteAbelian((n,)), (k,)).evaluate(x) - ref) <= 1e-14

    def test_shift_far_support(self):
        grid, g = 256, 10**9 + 3
        out = wg.fourier(wg.delta(wg.SystemSpace(wg.IntegerShift(grid), 1), g)).values[:, 0]
        ref = np.fft.fft(np.eye(1, grid, g % grid).ravel())
        assert np.max(np.abs(out - ref)) <= 1e-14


class TestTranslate:
    def test_identity_element(self):
        rng = np.random.default_rng(3)
        sp = space([4], 2)
        v = random_vector(rng, sp)
        assert wg.translate((0,), v) == v

    def test_translate_delta(self):
        sp = space([4])
        assert wg.translate((1,), wg.delta(sp, 0)) == wg.delta(sp, 1)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        sp = space([2, 4], 3)
        v = random_vector(rng, sp)
        g = tuple(rng.integers(0, 8, size=2))
        assert abs(wg.translate(g, v).norm() - v.norm()) <= 1e-12


class TestModulate:
    def test_identity_element(self):
        rng = np.random.default_rng(5)
        f = wg.fourier(random_vector(rng, space([6])))
        out = wg.modulate((0,), f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-15)

    def test_intertwining_with_translation(self):
        rng = np.random.default_rng(6)
        sp = space([6], 2)
        v = random_vector(rng, sp)
        for g in [(1,), (4,), (5,)]:
            lhs = wg.fourier(wg.translate(g, v)).values
            rhs = wg.modulate(g, wg.fourier(v)).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_involution_on_z2(self):
        rng = np.random.default_rng(7)
        f = wg.fourier(random_vector(rng, space([2])))
        twice = wg.modulate((1,), wg.modulate((1,), f))
        np.testing.assert_allclose(twice.values, f.values, atol=1e-14)


class TestConvolve:
    def test_delta_is_identity(self):
        group = wg.FiniteAbelian((5,))
        a = {(0,): 1.0 + 2j, (2,): -0.5, (4,): 3.0}
        out = wg.convolve(group, a, {(0,): 1.0})
        assert set(out) == set(a)
        for k, v in a.items():
            assert abs(out[k] - v) <= 1e-15

    def test_delta_composition(self):
        group = wg.FiniteAbelian((6,))
        out = wg.convolve(group, {(2,): 1.0}, {(5,): 1.0})
        assert set(out) == {(1,)}

    def test_product_transforms_to_convolution(self):
        # pointwise product of fiber functions maps, through the dual-side
        # transform, to 1/sqrt(|G|) times the convolution of the transforms
        rng = np.random.default_rng(8)
        group = wg.FiniteAbelian((4,))
        n = group.order
        chars = character_table(group)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def dual_transform(values):
            coeffs = chars.conj().T @ values / np.sqrt(n)
            return {g: coeffs[group.index_of(g)] for g in group.elements()}

        lhs = dual_transform(f * h)
        conv = wg.convolve(group, dual_transform(f), dual_transform(h))
        for g in group.elements():
            assert abs(lhs[g] - conv.get(g, 0j) / np.sqrt(n)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_unitarity_property(orders, seed):
    sp = space(orders, 2)
    v = random_vector(np.random.default_rng(seed), sp)
    assert abs(np.linalg.norm(wg.fourier(v).values) - v.norm()) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_translate_modulate_round_trip_property(orders, seed):
    rng = np.random.default_rng(seed)
    sp = space(orders, 1)
    v = random_vector(rng, sp)
    g = tuple(int(rng.integers(0, n)) for n in sp.group.orders)
    lhs = wg.fourier(wg.translate(g, v)).values
    rhs = wg.modulate(g, wg.fourier(v)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    back = wg.inverse_fourier(wg.fourier(v), sp)
    np.testing.assert_allclose(back.dense(), v.dense(), atol=1e-12)


class TestGroupVector:
    def test_channel_validation(self):
        with pytest.raises(ValueError):
            wg.delta(space([2], 1), 0, channel=1)

    def test_arithmetic(self):
        sp = space([3], 2)
        v = wg.delta(sp, 0, 0) + 2 * wg.delta(sp, 1, 1)
        w = v - wg.delta(sp, 0, 0)
        assert w.coeffs[((1,), 1)] == 2.0
        assert abs(v.norm() - np.sqrt(5)) <= 1e-15

    def test_inner_product(self):
        sp = space([4], 1)
        v = wg.delta(sp, 0) + 1j * wg.delta(sp, 1)
        w = wg.delta(sp, 1)
        assert v.inner(w) == pytest.approx(1j)
        assert w.inner(v) == pytest.approx(-1j)

    def test_elements_canonicalized(self):
        sp = space([4], 1)
        assert wg.delta(sp, 5) == wg.delta(sp, 1)

    def test_dense_matches_entrywise_fill(self):
        rng = np.random.default_rng(10)
        sp = space([3, 5], 3)
        coeffs = {}
        for _ in range(20):  # sparse, out of order, unreduced elements
            g = tuple(int(x) for x in rng.integers(-20, 20, size=2))
            coeffs[(g, int(rng.integers(0, 3)))] = complex(*rng.standard_normal(2))
        v = wg.GroupVector(sp, coeffs)
        ref = np.zeros((sp.group.order, sp.channels), dtype=np.complex128)
        for (g, c), val in v.coeffs.items():
            ref[sp.group.index_of(g), c] = val
        np.testing.assert_array_equal(v.dense(), ref)
        assert wg.GroupVector(sp).dense().shape == (15, 3)

    def test_from_dense_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        sp = space([2, 3], 2)
        dense = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        v = wg.from_dense(sp, dense)
        assert list(v.coeffs) == [(g, c) for g in sp.group.elements() for c in range(2)]
        assert all(type(val) is complex for val in v.coeffs.values())
        np.testing.assert_array_equal(v.dense(), dense)


class TestExactStorage:
    """Exact-mode vectors: a read-only dense array plus a support mask."""

    def test_from_dense_wraps_without_copying(self):
        sp = space([3], 2)
        dense = np.arange(6, dtype=np.complex128).reshape(3, 2)
        v = wg.from_dense(sp, dense)
        assert np.shares_memory(v.dense(), dense)
        assert not v.dense().flags.writeable and dense.flags.writeable
        assert v.support_mask().all()

    def test_coeffs_is_read_only(self):
        v = wg.delta(space([2], 1), 1)
        with pytest.raises(TypeError):
            v.coeffs[((0,), 0)] = 1.0
        with pytest.raises(ValueError):
            v.dense()[0, 0] = 1.0

    def test_explicit_zeros_are_stored(self):
        sp = space([4], 2)
        v = wg.GroupVector(sp, {((2,), 1): 0.0, ((1,), 0): 1.0, ((5,), 0): -1.0})
        assert list(v.coeffs.items()) == [(((1,), 0), 0j), (((2,), 1), 0j)]
        assert v != wg.GroupVector(sp, {((1,), 0): 0.0})
        assert (v + wg.delta(sp, 3, 1)).support_mask().sum() == 3
        assert (2.0 * v).coeffs == v.coeffs

    def test_translate_moves_values_and_support(self):
        rng = np.random.default_rng(12)
        sp = space([3, 4], 2)
        coeffs = {((int(a), int(b)), int(c)): complex(*rng.standard_normal(2))
                  for a, b, c in rng.integers(0, 4, size=(8, 3)) if c < 2}
        v = wg.GroupVector(sp, coeffs)
        for g in [(1, 0), (2, 3), (-1, 5)]:
            expected = {(sp.group.compose(g, e), c): val for (e, c), val in v.coeffs.items()}
            assert wg.translate(g, v).coeffs == expected

    def test_shift_mode_has_no_dense_storage(self):
        v = wg.delta(wg.SystemSpace(wg.IntegerShift(8), 1), 10**30)
        assert v.coeffs == {(10**30, 0): 1.0}
        with pytest.raises(wg.ExactModeRequired):
            v.dense()
        with pytest.raises(wg.ExactModeRequired):
            v.support_mask()


class TestCaches:
    def test_every_cache_is_bounded(self):
        import wandergen.cli  # noqa: F401  (loads every module)

        caches = {
            f"{name}.{attr}": fn
            for name, module in list(sys.modules.items())
            if name.startswith("wandergen")
            for attr, fn in vars(module).items()
            if callable(getattr(fn, "cache_parameters", None))
        }
        assert "wandergen.groups._group_sampling" in caches
        assert [q for q, fn in caches.items() if fn.cache_parameters()["maxsize"] is None] == []

    def test_character_table_is_not_cached(self):
        assert not hasattr(character_table, "cache_info")

    def test_dual_sampling_is_shared(self):
        group = wg.FiniteAbelian((6,))
        assert wg.dual_sampling(wg.SystemSpace(group, 1)) is wg.dual_sampling(wg.SystemSpace(group, 3))

"""Group model: characters, transforms, translation, vector storage."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wandergen as wg
from wandergen import cli, oracle
from wandergen.oracle import character_table


def space(orders, m=1):
    return wg.SystemSpace(wg.FiniteAbelian(tuple(orders)), m)


def random_vector(rng, sp):
    n = sp.group.order
    dense = rng.standard_normal((n, sp.channels)) + 1j * rng.standard_normal((n, sp.channels))
    return wg.from_dense(sp, dense)


def character(group, p, g):
    """The p-th dual point's character at g: the p-th element multi-index
    (exact mode) or grid index (shift mode), phases reduced mod n in integers."""
    if isinstance(group, wg.FiniteAbelian):
        p, g = group.elements()[p], group.canonical(g)
        phase = sum((k * x) % n / n for k, x, n in zip(p, g, group.orders))
        return complex(np.exp(2j * np.pi * phase))
    n = group.grid_size
    return complex(np.exp(2j * np.pi * ((p * g) % n) / n))


class TestDualSampling:
    """The space indexes the dual group; the oracle's character table holds its values."""

    def test_z2_characters(self):
        sp = space([2])
        assert sp.exact and sp.points == 2
        np.testing.assert_allclose(character_table(sp.group), [[1, 1], [1, -1]], atol=1e-15)

    def test_trivial_group(self):
        sp = space([1])
        assert sp.points == 1
        assert character_table(sp.group)[0, 0] == pytest.approx(1.0)

    def test_z4_imaginary_unit(self):
        assert character_table(wg.FiniteAbelian((4,)))[1, 1] == pytest.approx(1j)

    def test_shift_grid(self):
        sp = wg.SystemSpace(wg.IntegerShift(8), 1)
        assert not sp.exact and sp.points == 8
        rows = cli.emit_bound_curve(wg.Family(sp, (wg.delta(sp, 0),))).splitlines()
        angles = [float(row.split("\t")[0]) for row in rows]
        assert len(angles) == 8 and angles == sorted(angles)
        assert angles[0] == 0.0 and angles[1] == pytest.approx(2 * np.pi / 8)

    def test_character_multiplicativity(self):
        rng = np.random.default_rng(0)
        group = wg.FiniteAbelian((3, 4))
        chars = character_table(group)
        for _ in range(20):
            g = tuple(rng.integers(0, 12, size=2))
            h = tuple(rng.integers(0, 12, size=2))
            at = chars[:, [group.index_of(group.compose(g, h)), group.index_of(g), group.index_of(h)]]
            assert np.max(np.abs(at[:, 0] - at[:, 1] * at[:, 2])) <= 1e-12
            assert np.max(np.abs(np.abs(at[:, 1]) - 1.0)) <= 1e-12
        assert np.max(np.abs(chars[:, group.index_of(group.identity)] - 1)) <= 1e-15


class TestFourier:
    def test_delta_flat_spectrum(self):
        f = wg.fourier(wg.delta(space([4]), 0))
        np.testing.assert_allclose(f.ravel(), 0.5, atol=1e-15)

    def test_character_vector_maps_to_delta(self):
        # the evaluation vector of the g-th character transforms to the
        # indicator of the dual point at index g
        group = wg.FiniteAbelian((4,))
        sp = wg.SystemSpace(group, 1)
        for g in group.elements():
            chars = character_table(group)[[group.index_of(g)]].T
            v = wg.from_dense(sp, chars / np.sqrt(group.order))
            out = wg.fourier(v).ravel()
            expected = np.zeros(4)
            expected[group.index_of(g)] = 1.0
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_parseval_z6_two_channels(self):
        rng = np.random.default_rng(1)
        v = random_vector(rng, space([6], 2))
        vhat = wg.fourier(v)
        assert abs(np.linalg.norm(vhat) - v.norm()) <= 1e-12

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
        assert out.shape == (sp.points, 1)
        for p in range(sp.points):
            w = np.exp(1j * 2.0 * np.pi * p / sp.points)
            assert abs(out[p, 0] - (w**-2 + 0.5 * w)) <= 1e-12

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


def shift_character_sum(grid, start, taps):
    """sum_n v(n) omega_t^{-n} at the grid points omega_t, term by term, for
    taps v(start + i) = taps[i]: each position n is reduced mod the grid in
    integers before its phase (t * n) mod grid is formed, and real and
    imaginary parts are summed exactly by fsum."""
    residues = np.array([(start + i) % grid for i in range(len(taps))], dtype=np.int64)
    conj_chars = np.exp(-2j * np.pi * (np.arange(grid)[:, None] * residues % grid) / grid)
    out = np.empty((grid, taps.shape[1]), dtype=np.complex128)
    for c in range(taps.shape[1]):
        for p, terms in enumerate(conj_chars * taps[:, c]):
            out[p, c] = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return out


class TestPhaseAccuracy:
    """Phases reduced mod n stay accurate as the group or the support grows;
    a direct character sum is the independent reference in both modes
    (numpy's FFT is the implementation, so an FFT reference is not)."""

    @pytest.mark.parametrize("orders", [(1024,), (32, 32)])
    def test_exact_transform_matches_character_sum(self, orders):
        rng = np.random.default_rng(3)
        group = wg.FiniteAbelian(orders)
        dense = rng.standard_normal((group.order, 2)) + 1j * rng.standard_normal((group.order, 2))
        out = wg.fourier(wg.from_dense(wg.SystemSpace(group, 2), dense))
        assert np.max(np.abs(out - character_sum(group, dense))) <= 1e-14

    def test_transforms_skip_the_character_table(self, monkeypatch):
        def table(group):
            raise AssertionError("the exact transforms must not build the character table")

        monkeypatch.setattr(oracle, "character_table", table)
        sp = space([3, 4], 2)
        v = random_vector(np.random.default_rng(9), sp)
        back = wg.inverse_fourier(wg.fourier(v), sp)
        np.testing.assert_allclose(back.dense(), v.dense(), atol=1e-14)

    def test_evaluate_large_cyclic(self):
        # the transform of delta(x) at point k is conj(chi_k(x)) / sqrt(n), n a power of 2
        n, x = 2**20, 2**20 - 5
        out = math.sqrt(n) * wg.fourier(wg.delta(space([n]), x))[:, 0]
        ref = np.exp(-2j * np.pi * ((np.arange(n) * x) % n) / n)
        assert np.max(np.abs(out - ref)) <= 1e-14

    def test_shift_far_support(self):
        grid, g = 256, 10**9 + 3
        out = wg.fourier(wg.delta(wg.SystemSpace(wg.IntegerShift(grid), 1), g))[:, 0]
        ref = np.fft.fft(np.eye(1, grid, g % grid).ravel())
        assert np.max(np.abs(out - ref)) <= 1e-14

    @pytest.mark.parametrize("grid", [16, 256, 4096])
    @pytest.mark.parametrize("start", [0, -7, 10**9 + 3, -(10**12), 10**30])
    def test_shift_transform_matches_character_sum(self, grid, start):
        rng = np.random.default_rng(grid)
        width = min(grid // 2, 64)
        taps = rng.standard_normal((width, 2)) + 1j * rng.standard_normal((width, 2))
        sp = wg.SystemSpace(wg.IntegerShift(grid), 2)
        v = wg.GroupVector(sp, {(start + i, c): taps[i, c] for i in range(width) for c in range(2)})
        ref = shift_character_sum(grid, start, taps)
        tol = 1e-14 * np.abs(taps).sum()
        assert np.max(np.abs(wg.fourier(v) - ref)) <= tol
        family = wg.Family(sp, (v, wg.translate(-start, v)))  # one stacked transform
        assert np.max(np.abs(family.fibers[:, :, 0] - ref)) <= tol
        assert np.max(np.abs(family.fibers[:, :, 1] - shift_character_sum(grid, 0, taps))) <= tol


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


def modulate(g, f, group):
    """Transform-side action of translation by g, applied inline: the fiber
    at gamma times conj(gamma(g)), the character value at g^-1."""
    weights = np.array([character(group, p, g) for p in range(len(f))]).conj()
    return f * weights[:, None]


class TestModulate:
    """fourier(translate(g, v)) = fourier(v) * conj(gamma(g)) at every dual point."""

    def test_identity_element(self):
        rng = np.random.default_rng(5)
        v = random_vector(rng, space([6]))
        out = wg.fourier(wg.translate((0,), v))
        np.testing.assert_allclose(out, modulate((0,), wg.fourier(v), v.space.group), atol=1e-15)
        np.testing.assert_allclose(out, wg.fourier(v), atol=1e-15)

    def test_intertwining_with_translation(self):
        rng = np.random.default_rng(6)
        sp = space([6], 2)
        v = random_vector(rng, sp)
        for g in [(1,), (4,), (5,)]:
            lhs = wg.fourier(wg.translate(g, v))
            assert np.max(np.abs(lhs - modulate(g, wg.fourier(v), v.space.group))) <= 1e-12
        shift = wg.SystemSpace(wg.IntegerShift(32), 2)
        taps = rng.standard_normal((2, 5, 2)) @ [1, 1j]
        v = wg.GroupVector(shift, {(n - 2, c): taps[c, n] for c in range(2) for n in range(5)})
        for g in [1, -7, 10**9 + 3, -(10**12), 10**30]:
            lhs = wg.fourier(wg.translate(g, v))
            assert np.max(np.abs(lhs - modulate(g, wg.fourier(v), v.space.group))) <= 1e-12

    def test_involution_on_z2(self):
        rng = np.random.default_rng(7)
        v = random_vector(rng, space([2]))
        f = wg.fourier(wg.translate((1,), v))
        np.testing.assert_allclose(modulate((1,), f, v.space.group), wg.fourier(v), atol=1e-14)
        np.testing.assert_allclose(wg.fourier(wg.translate((1,), wg.translate((1,), v))),
                                   wg.fourier(v), atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_unitarity_property(orders, seed):
    sp = space(orders, 2)
    v = random_vector(np.random.default_rng(seed), sp)
    assert abs(np.linalg.norm(wg.fourier(v)) - v.norm()) <= 1e-12


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
    lhs = wg.fourier(wg.translate(g, v))
    assert np.max(np.abs(lhs - modulate(g, wg.fourier(v), v.space.group))) <= 1e-12
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

    def test_non_finite_scalar_meets_only_stored_cells(self):
        # inner sums over the cells stored in both vectors, and * scales
        # stored cells only, so inf * 0 (nan) never enters a sum
        with np.errstate(invalid="ignore"):
            v = math.inf * wg.delta(space([4], 1), 0)
            shift = wg.SystemSpace(wg.IntegerShift(16), 1)
            w = math.inf * (wg.delta(shift, 0) + 0.0 * wg.delta(shift, 2))
        assert v.inner(wg.delta(space([4], 1), 1)) == 0j
        assert w.inner(wg.delta(shift, 1)) == 0j
        assert not v.dense()[1:].any()

    def test_elements_canonicalized(self):
        sp = space([4], 1)
        assert wg.delta(sp, 5) == wg.delta(sp, 1)

    def test_non_integer_coordinates_are_refused(self):
        # int() would truncate each of these to a neighbouring element
        sp, shift = space([4], 1), wg.SystemSpace(wg.IntegerShift(16), 1)
        v = wg.delta(shift, 3)
        cases = [
            (lambda: wg.GroupVector(sp, {((1.5,), 0): 1.0}), "1.5"),
            (lambda: wg.delta(sp, (True,)), "True"),
            (lambda: wg.delta(shift, 2.9), "2.9"),
            (lambda: wg.translate(0.5, v), "0.5"),
            (lambda: wg.translate(0.5, wg.delta(sp, 0)), "0.5"),
            (lambda: wg.delta(shift, True), "True"),
            (lambda: wg.delta(sp, "1"), "'1'"),
        ]
        for build, shown in cases:
            with pytest.raises(ValueError, match=rf"^group coordinates must be integers, got {shown}$"):
                build()

    def test_numpy_integer_coordinates_are_accepted(self):
        sp, shift = space([4, 3], 1), wg.SystemSpace(wg.IntegerShift(16), 1)
        assert wg.delta(sp, (np.int64(5), np.int8(-1))) == wg.delta(sp, (1, 2))
        assert wg.delta(shift, np.int64(10**18)) == wg.delta(shift, 10**18)
        assert wg.translate(np.int32(2), wg.delta(shift, 3)) == wg.delta(shift, 5)
        assert wg.translate(np.array([1, 1]), wg.delta(sp, (0, 0))) == wg.delta(sp, (1, 1))

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
        assert "wandergen.cli._key_json" in caches
        assert [q for q, fn in caches.items() if fn.cache_parameters()["maxsize"] is None] == []

    def test_character_table_is_not_cached(self):
        assert not hasattr(character_table, "cache_info")


class DictVector:
    """The dict model of a shift-mode vector: {(position, channel): value},
    duplicates summed in input order from 0j, as GroupVector's dict storage
    did.  ``grid`` bounds the support width a vector may have."""

    def __init__(self, grid, items):
        self.grid, self.coeffs = grid, {}
        for key, value in items:
            self.coeffs[key] = self.coeffs.get(key, 0j) + complex(value)
        window = self.support_window()
        if window is not None and window[1] - window[0] + 1 > grid:
            raise wg.SupportExceedsGrid("wider than the grid")

    def support_window(self):
        positions = [g for g, _ in self.coeffs]
        return (min(positions), max(positions)) if positions else None

    def __add__(self, other):
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, 0j) + v
        return DictVector(self.grid, merged.items())

    def __mul__(self, scalar):
        return DictVector(self.grid, [(k, complex(scalar) * v) for k, v in self.coeffs.items()])

    def __sub__(self, other):
        return self + other * -1.0

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def translate(self, g):
        return DictVector(self.grid, [((n + g, c), v) for (n, c), v in self.coeffs.items()])

    def inner(self, other):
        return sum((v * other.coeffs[k].conjugate() for k, v in self.coeffs.items() if k in other.coeffs), 0j)


FAR = [0, -7, 10**9 + 3, -(10**12), 10**30, -(10**30), 2**70]
VALUES = st.one_of(
    st.just(0j), st.just(-0.0),  # stored explicit zeros
    st.sampled_from([1.0, -2.5, 1j, 0.25 - 0.75j]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def shift_items(draw, channels, base):
    """Entries near a base position, possibly duplicated, possibly wider than the grid."""
    span = draw(st.sampled_from([1, 8, 32, 80]))
    entry = st.tuples(st.tuples(st.integers(0, span - 1).map(lambda i: base + i),
                                st.integers(0, channels - 1)), VALUES)
    items = draw(st.lists(entry, max_size=12))
    return items + draw(st.lists(st.sampled_from(items), max_size=4)) if items else items


def outcome(build):
    try:
        return build()
    except wg.SupportExceedsGrid:
        return wg.SupportExceedsGrid


class TestShiftStorageDifferential:
    """Array-backed shift-mode vectors (start + window arrays + mask) against
    the dict model of the storage they replaced."""

    GRID, CHANNELS = 64, 2

    def check(self, v, model, tol=0.0):
        """v against its model: the same keys, values within ``tol`` (0: equal)."""
        if model is wg.SupportExceedsGrid:
            assert v is wg.SupportExceedsGrid
            return
        assert set(v.coeffs) == set(model.coeffs)
        assert all(abs(v.coeffs[k] - model.coeffs[k]) <= tol for k in model.coeffs)
        assert all(type(k[0]) is int and type(x) is complex for k, x in v.coeffs.items())
        assert v.support_window() == model.support_window()
        scale = 1.0 + sum(abs(x) for x in model.coeffs.values()) ** 2
        assert abs(v.norm() ** 2 - model.inner(model).real) <= 1e-12 * scale

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_dict_model(self, data):
        sp = wg.SystemSpace(wg.IntegerShift(self.GRID), self.CHANNELS)
        base = data.draw(st.sampled_from(FAR))  # the second vector near the first, or anywhere
        bases = [base, data.draw(st.one_of(st.just(base), st.sampled_from(FAR)))]
        items = [data.draw(shift_items(self.CHANNELS, b)) for b in bases]
        if data.draw(st.booleans()):  # the same entries again: equal vectors
            items[1] = list(items[0])
        models = [outcome(lambda i=i: DictVector(self.GRID, i)) for i in items]
        vectors = [outcome(lambda i=i: wg.GroupVector(sp, i)) for i in items]
        for v, model in zip(vectors, models):
            self.check(v, model)
        if any(m is wg.SupportExceedsGrid for m in models):
            return
        (x, y), (mx, my) = vectors, models
        scalar = data.draw(st.one_of(st.sampled_from([0.0, -1.0, 2j]), VALUES))
        g = data.draw(st.one_of(st.integers(-100, 100), st.sampled_from(FAR)))
        self.check(outcome(lambda: x + y), outcome(lambda: mx + my))
        self.check(outcome(lambda: x - y), outcome(lambda: mx - my))
        # numpy's complex product may round differently from Python's in the last bit
        largest = max((abs(z) for z in mx.coeffs.values()), default=0.0)
        self.check(scalar * x, mx * scalar, 1e-15 * abs(scalar) * largest)
        self.check(wg.translate(g, x), mx.translate(g))
        assert (x == y) == (mx == my)
        assert (wg.translate(g, x) == wg.translate(g, y)) == (mx == my)
        assert (wg.translate(g, x) == y) == (mx.translate(g) == my)
        assert x == wg.GroupVector(sp, dict(x.coeffs)) == wg.translate(-g, wg.translate(g, x))
        bound = 1e-12 * (1.0 + x.norm() * y.norm())
        assert abs(x.inner(y) - mx.inner(my)) <= bound
        assert abs(x.inner(wg.translate(g, y)) - mx.inner(my.translate(g))) <= bound

    @pytest.mark.parametrize("a,b", [((3, 7), (0, 2)), ((0, 2), (3, 7)), ((-7, -1), (0, 5)),
                                     ((10**30, 10**30 + 3), (10**30 - 20, 10**30))])
    def test_sums_pad_both_to_the_union_window(self, a, b):
        sp = wg.SystemSpace(wg.IntegerShift(self.GRID), 1)
        items = [[((n, 0), complex(n % 5 + 1, -1)) for n in ends] for ends in (a, b)]
        (x, y), (mx, my) = ([wg.GroupVector(sp, i) for i in items], [DictVector(self.GRID, i) for i in items])
        for v, model in [(x + y, mx + my), (y + x, my + mx), (x - y, mx - my), (y - x, my - mx)]:
            self.check(v, model)

    def test_far_apart_sum_is_refused_before_allocating(self):
        sp = wg.SystemSpace(wg.IntegerShift(8), 1)
        a, b = wg.delta(sp, 0), wg.delta(sp, 10**30)
        tracemalloc.start()
        try:
            with pytest.raises(wg.SupportExceedsGrid, match=rf"^support width {10**30 + 1} needs a grid"):
                a + b
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert a.inner(b) == 0j and b.support_window() == (10**30, 10**30)

    def test_storage_bound_is_the_grid(self):
        sp = wg.SystemSpace(wg.IntegerShift(8), 1)
        message = "support width 9 needs a grid of at least 18 points, got 8"
        with pytest.raises(wg.SupportExceedsGrid, match=f"^{message}$"):
            wg.GroupVector(sp, {(0, 0): 1.0, (8, 0): 1.0})
        X = wg.Family(sp, (wg.delta(sp, 0),))
        with pytest.raises(wg.SupportExceedsGrid, match=f"^{message}$"):
            wg.synthesize(X, {(0, 0): 1.0, (8, 0): 1.0})
        wide = wg.synthesize(X, {(0, 0): 1.0, (7, 0): 1.0})  # stored: w <= N
        assert wide.support_window() == (0, 7)
        for transform in (wg.fourier, lambda v: wg.Family(sp, (v,)).fibers):
            with pytest.raises(wg.SupportExceedsGrid, match="^support width 8 needs a grid of at least 16 points, got 8$"):
                transform(wide)

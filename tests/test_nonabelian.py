"""Finite groups, representations, intertwiners, cancellation, dense complement."""

import ast
import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wandergen as wg
from wandergen import nonabelian as na
from wandergen import _linalg
from conftest import (
    benchmark_gen,
    compress,
    haar_unitary,
    intercalate_loop,
    random_commutant_unitary,
    random_invariant_splitting,
    random_orthonormal_family,
    random_wandering_subfamily,
)


def s3_permutation_matrices():
    """Permutation matrices in the same element order as symmetric_3()."""
    ordered = sorted(itertools.permutations(range(3)))
    mats = np.zeros((6, 3, 3), dtype=np.complex128)
    for g, p in enumerate(ordered):
        for i in range(3):
            mats[g, p[i], i] = 1.0
    return ordered, mats


def s3_irreps():
    group = na.symmetric_3()
    ordered, perm = s3_permutation_matrices()

    def parity(p):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        return sign

    triv = na.Representation(group, np.ones((6, 1, 1), dtype=np.complex128))
    sign = na.Representation(
        group, np.array([[[parity(p)]] for p in ordered], dtype=np.complex128)
    )
    # standard rep: permutation action restricted to the sum-zero plane
    B = np.linalg.svd(np.eye(3) - np.ones((3, 3)) / 3)[0][:, :2]
    std = na.Representation(group, B.conj().T @ perm @ B)
    return group, triv, sign, std


def builtin_groups():
    s3 = na.symmetric_3()
    return [
        s3,
        na.dihedral_4(),
        na.quaternion_8(),
        na.cyclic_group(1),
        na.cyclic_group(5),
        na.from_abelian(wg.FiniteAbelian((2, 3))),
        na.direct_product(s3, na.cyclic_group(4)),
    ]


def kron_regular(group, multiplicity):
    """Per-element reference: np.kron of each left-translation matrix with I_N."""
    n = group.order
    mats = np.zeros((n, n * multiplicity, n * multiplicity), dtype=np.complex128)
    for g in range(n):
        L = np.zeros((n, n))
        for h in range(n):
            L[group.compose(g, h), h] = 1.0
        mats[g] = np.kron(L, np.eye(multiplicity))
    return mats


class TestFiniteGroup:
    def test_builtin_orders(self):
        assert na.symmetric_3().order == 6
        assert na.dihedral_4().order == 8
        assert na.quaternion_8().order == 8
        assert na.cyclic_group(5).order == 5
        assert na.direct_product(na.cyclic_group(2), na.cyclic_group(3)).order == 6

    def test_s3_classes(self):
        classes = na.symmetric_3().conjugacy_classes()
        assert sorted(len(c) for c in classes) == [1, 2, 3]
        assert classes[0] == (na.symmetric_3().identity,)

    def test_q8_classes(self):
        # 1, -1, {i,-i}, {j,-j}, {k,-k}
        sizes = sorted(len(c) for c in na.quaternion_8().conjugacy_classes())
        assert sizes == [1, 1, 2, 2, 2]

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            na.FiniteGroup([[0, 1], [0, 1]])  # rows not permutations
        with pytest.raises(ValueError):
            # Latin square whose only row-identity is not a column identity
            na.FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    # one table per check, in the order the checks run; each fails its own
    # check and may fail later ones too, but passes every earlier one
    TABLE_FAULTS = [
        ([], "Cayley table must be square and nonempty"),
        ([[0, 1], [1]], "Cayley table must be square and nonempty"),
        ([[0, 1], [1, 2**70]], "Cayley table rows must permute 0..n-1"),
        ([[0, 1], [1, -(2**70)]], "Cayley table rows must permute 0..n-1"),
        ([[0, 1], [1, 1]], "Cayley table rows must permute 0..n-1"),
        ([[0, 1], [0, 1]], "Cayley table columns must permute 0..n-1"),
        ([[1, 0], [1, 0]], "Cayley table columns must permute 0..n-1"),
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "Cayley table has no two-sided identity"),
        # 2 * 3 = 0 but 3 * 2 = 1; element 1 is its own inverse
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
         "element 2 has no inverse"),
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
         "Cayley table is not associative at (1, 1, 2)"),
    ]

    @pytest.mark.parametrize("table,message", TABLE_FAULTS, ids=range(len(TABLE_FAULTS)))
    def test_table_fault_messages(self, table, message):
        with pytest.raises(ValueError) as info:
            na.FiniteGroup(table)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", True, None, float("inf"), float("nan")], ids=repr)
    def test_table_entries_must_be_integers(self, value):
        # the rule runs before the shape checks, and int() would take "1", True and 1.0 as 1
        for table in ([[0, 1], [value, 0]], [[0, value]]):
            with pytest.raises(ValueError, match="^Cayley table entries must be integers$"):
                na.FiniteGroup(table)

    def test_q8_table_is_the_unit_quaternion_law(self):
        # elements 1, -1, i, -i, j, -j, k, -k; i j = k, j k = i, k i = j
        assert na.quaternion_8().table == (
            (0, 1, 2, 3, 4, 5, 6, 7), (1, 0, 3, 2, 5, 4, 7, 6),
            (2, 3, 1, 0, 6, 7, 5, 4), (3, 2, 0, 1, 7, 6, 4, 5),
            (4, 5, 7, 6, 1, 0, 2, 3), (5, 4, 6, 7, 0, 1, 3, 2),
            (6, 7, 4, 5, 3, 2, 1, 0), (7, 6, 5, 4, 2, 3, 0, 1),
        )
        assert na.quaternion_8().inverse_table == (0, 1, 3, 2, 5, 4, 7, 6)

    def test_s3_table_composes_sorted_permutations(self):
        # elements 012, 021, 102, 120, 201, 210 (images of 0, 1, 2); (pq)(i) = p(q(i))
        assert na.symmetric_3().table == (
            (0, 1, 2, 3, 4, 5), (1, 0, 4, 5, 2, 3), (2, 3, 0, 1, 5, 4),
            (3, 2, 5, 4, 0, 1), (4, 5, 1, 0, 3, 2), (5, 4, 3, 2, 1, 0),
        )
        assert na.symmetric_3().inverse_table == (0, 1, 2, 4, 3, 5)

    def test_d4_table_composes_sorted_square_symmetries(self):
        # elements 0123, 0321, 1032, 1230, 2103, 2301, 3012, 3210: the
        # permutations of the square's corners 0-1-2-3 that keep its edges
        assert na.dihedral_4().table == (
            (0, 1, 2, 3, 4, 5, 6, 7), (1, 0, 6, 7, 5, 4, 2, 3),
            (2, 3, 0, 1, 6, 7, 4, 5), (3, 2, 4, 5, 7, 6, 0, 1),
            (4, 5, 3, 2, 0, 1, 7, 6), (5, 4, 7, 6, 1, 0, 3, 2),
            (6, 7, 1, 0, 2, 3, 5, 4), (7, 6, 5, 4, 3, 2, 1, 0),
        )
        assert na.dihedral_4().inverse_table == (0, 1, 2, 6, 4, 5, 3, 7)

    def test_direct_product_is_componentwise(self):
        for a, b in [(na.symmetric_3(), na.cyclic_group(4)), (na.quaternion_8(), na.symmetric_3())]:
            group, nb = na.direct_product(a, b), b.order
            assert group.name == f"{a.name}x{b.name}"
            assert group.table == tuple(
                tuple(a.table[i // nb][j // nb] * nb + b.table[i % nb][j % nb] for j in range(group.order))
                for i in range(group.order)
            )
            assert all(type(x) is int for row in group.table for x in row)
            assert all(type(x) is int for x in group.inverse_table)

    def test_non_associative_rejected(self):
        # a Latin square with two-sided identity that is not a group law
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match=r"^Cayley table is not associative at \(1, 1, 2\)$"):
            na.FiniteGroup(table)

    def test_associativity_helper_finds_first_triple(self):
        table = np.array(na.symmetric_3().table)
        assert na._first_nonassociative(table) is None
        loop = intercalate_loop()
        expected = next(
            (a, b, c)
            for a, b, c in itertools.product(range(26), repeat=3)
            if loop[loop[a][b]][c] != loop[a][loop[b][c]]
        )
        assert na._first_nonassociative(np.array(loop)) == expected

    def test_generators_generate(self):
        for group in (na.symmetric_3(), na.dihedral_4(), na.quaternion_8()):
            gens = group.generators()
            assert len(group._search(gens)[0]) == group.order

    def test_from_abelian_matches_indexing(self):
        spec = wg.FiniteAbelian((2, 3))
        group = na.from_abelian(spec)
        els = spec.elements()
        for a in range(6):
            for b in range(6):
                assert group.compose(a, b) == spec.index_of(spec.compose(els[a], els[b]))


def direct_products(limit):
    """Every direct product of one or more of Z2..Z6, S3, D4 and Q8, in every
    factor order, of order at most ``limit``."""
    factors = [na.cyclic_group(n) for n in range(2, 7)] + [na.symmetric_3(), na.dihedral_4(), na.quaternion_8()]
    out = []

    def extend(group, order):
        for factor in factors:
            if order * factor.order <= limit:
                product = factor if group is None else na.direct_product(group, factor)
                out.append(product)
                extend(product, product.order)

    extend(None, 1)
    return out


def closure(group, gens):
    """The subgroup ``gens`` generate, and the levels of right products past the identity."""
    reached, level, depth = {group.identity}, {group.identity}, 0
    while level := {group.compose(a, s) for a in level for s in gens} - reached:
        reached |= level
        depth += 1
    return reached, depth


def greedy_generators(group, candidates):
    """Each candidate outside the subgroup of those kept before it is kept."""
    gens = []
    for g in candidates:
        if g not in closure(group, gens)[0]:
            gens.append(g)
    return tuple(gens)


def element_order(group, g):
    """The least k >= 1 with g^k the identity."""
    power, k = g, 1
    while power != group.identity:
        power, k = group.compose(power, g), k + 1
    return k


class TestGeneratingSet:
    @pytest.mark.parametrize("group", direct_products(64), ids=lambda g: g.name)
    def test_order_first_set(self, group):
        gens = group.generators()
        reached, depth = closure(group, gens)
        by_order = sorted(group.elements(), key=lambda g: (-element_order(group, g), g))
        assert gens == greedy_generators(group, by_order)
        assert len(reached) == group.order
        assert len(gens) <= len(greedy_generators(group, group.elements()))
        assert 2 ** len(gens) <= group.order
        assert group._word_depth() == depth


def first_nonassociative_triple(table):
    """The brute-force n^3 loop: the first (a, b, c) with (ab)c != a(bc), or None."""
    n = len(table)
    return next(
        ((a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
         if table[table[a][b]][c] != table[a][table[b][c]]),
        None,
    )


def relabeled(table, perm):
    """The same law with element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, xy in enumerate(row):
            out[perm[x]][perm[y]] = perm[xy]
    return out


SMALL_GROUPS = [na.cyclic_group(1), na.cyclic_group(2), na.cyclic_group(3), na.cyclic_group(4),
                na.symmetric_3(), na.dihedral_4(), na.quaternion_8()]


@st.composite
def cayley_tables(draw):
    """Builtin groups, direct products of them, and intercalate loops of
    orders 4-40 at random (a, b), each under a random relabeling; every table
    passes the checks that run before associativity."""
    kind = draw(st.sampled_from(["builtin", "product", "loop"]))
    if kind == "builtin":
        table = draw(st.sampled_from(builtin_groups())).table
    elif kind == "product":
        a, b = draw(st.sampled_from(SMALL_GROUPS)), draw(st.sampled_from(SMALL_GROUPS))
        table = na.direct_product(a, b).table
    else:
        half = draw(st.integers(2, 20))
        a = draw(st.integers(1, half - 1))
        # half | a + b leaves an element without an inverse once half > 2
        b = draw(st.integers(1, half - 1).filter(lambda b: half == 2 or (a + b) % half))
        table = intercalate_loop(2 * half, a, b)
    return relabeled(table, draw(st.permutations(range(len(table)))))


class TestAssociativity:
    """The constructor's proof, Light's test on the generators, against the
    brute-force triple loop."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(table=cayley_tables())
    def test_accepts_exactly_the_associative_tables(self, table):
        first = first_nonassociative_triple(table)
        if first is not None:
            with pytest.raises(ValueError) as info:
                na.FiniteGroup(table)
            assert str(info.value) == "Cayley table is not associative at ({}, {}, {})".format(*first)
            return
        group = na.FiniteGroup(table)
        n, inv = group.order, group.inverse_table
        classes = {tuple(sorted({table[table[h][g]][inv[h]] for h in range(n)})) for g in range(n)}
        assert group.conjugacy_classes() == tuple(sorted(classes))

    def test_classes_ordered_by_smallest_element(self):
        # Z3 with identity 2: the identity class comes last
        group = na.FiniteGroup([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        assert group.identity == 2
        assert group.conjugacy_classes() == ((0,), (1,), (2,))

    def test_locator_memory_is_quadratic(self):
        # order 256, the CLI's cap: the whole (n, n, n) cube would take 128 MiB per array
        table = intercalate_loop(256, 1, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^Cayley table is not associative at \(1, 1, 1\)$"):
                na.FiniteGroup(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wandergen"


def references(path, name):
    """(enclosing qualified name, line) of every use of ``name`` in a module,
    its definition aside."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
            else:
                if getattr(child, "id", getattr(child, "attr", None)) == name:
                    found.append((".".join(scope), child.lineno))
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return found


def test_reference_finder_sees_names_and_attributes(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f(t):\n    return locate(t)\nclass G:\n    def g(self):\n        x = m.locate\ny = locate\n",
        encoding="utf-8",
    )
    assert references(path, "locate") == [("f", 2), ("G.g", 5), ("", 6)]


def test_associativity_is_proven_only_by_the_constructor():
    """``FiniteGroup.__init__`` is the one caller of the triple locator: no
    second associativity proof downstream."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 8
    callers = {(m.name, scope) for m in modules for scope, _ in references(m, "_first_nonassociative")}
    assert callers == {("nonabelian.py", "FiniteGroup.__init__")}


class TestRegularRepresentation:
    def test_trivial_group_multiple(self):
        group = na.cyclic_group(1)
        rep = na.regular_representation(group, 3)
        np.testing.assert_allclose(rep.matrices[0], np.eye(3), atol=1e-15)

    def test_s3_character(self):
        chi = na.character(na.regular_representation(na.symmetric_3(), 1))
        np.testing.assert_allclose(chi.values, [6, 0, 0], atol=1e-12)

    def test_z2_double_character(self):
        chi = na.character(na.regular_representation(na.cyclic_group(2), 2))
        np.testing.assert_allclose(chi.values, [4, 0], atol=1e-12)


    @pytest.mark.parametrize("multiplicity", [0, 1, 2, 3])
    def test_matches_kron_reference(self, multiplicity):
        for group in builtin_groups():
            rep = na.regular_representation(group, multiplicity)
            ref = kron_regular(group, multiplicity)
            assert rep.matrices.dtype == ref.dtype
            assert np.array_equal(rep.matrices, ref)

    def test_non_associative_loop_rejected_above_table_check(self):
        # order 26: the constructor proves associativity at every order
        table = intercalate_loop()
        assert first_nonassociative_triple(table) == (1, 1, 1)
        with pytest.raises(ValueError, match=r"^Cayley table is not associative at \(1, 1, 1\)$"):
            na.FiniteGroup(table)

    def test_orbit_matrix_matches_loop(self):
        rng = np.random.default_rng(87)
        for group in builtin_groups():
            for multiplicity in (1, 2, 3):
                rep = na.regular_representation(group, multiplicity)
                d = rep.dim
                columns = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
                ref = np.empty((d, group.order * 2), dtype=np.complex128)
                for g in range(group.order):
                    ref[:, 2 * g:2 * g + 2] = rep.matrices[g] @ columns
                assert np.array_equal(na._orbit_matrix(group, multiplicity, columns), ref)


class TestRepresentationChecks:
    def test_wrong_shape(self):
        group = na.symmetric_3()
        with pytest.raises(ValueError, match=r"^expected \(6, d, d\) matrices, got \(5, 2, 2\)$"):
            na.Representation(group, np.zeros((5, 2, 2)))
        with pytest.raises(ValueError, match=r"^expected \(6, d, d\) matrices, got \(6, 2, 3\)$"):
            na.Representation(group, np.zeros((6, 2, 3)))

    def test_identity_must_map_to_identity(self):
        mats = np.tile(-np.eye(2), (6, 1, 1))
        with pytest.raises(ValueError, match="^matrix at the identity is not the identity$"):
            na.Representation(na.symmetric_3(), mats)

    def test_matrices_must_be_unitary(self):
        mats = np.tile(2.0 * np.eye(2), (6, 1, 1))
        mats[0] = np.eye(2)
        with pytest.raises(ValueError, match="^representation matrices are not unitary$"):
            na.Representation(na.symmetric_3(), mats)

    def test_homomorphism_failure_names_element(self):
        # unitary, identity at 0, but rho(1) rho(1) = 1 != rho(2) = -1
        mats = np.array([1.0, 1.0, -1.0]).reshape(3, 1, 1)
        with pytest.raises(ValueError, match="^homomorphism property fails at element 1$"):
            na.Representation(na.cyclic_group(3), mats)

    def test_nan_matrices_rejected(self):
        group = na.symmetric_3()
        with pytest.raises(ValueError, match="^matrix at the identity is not the identity$"):
            na.Representation(group, np.full((6, 2, 2), np.nan))
        _, perm = s3_permutation_matrices()
        perm[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^representation matrices are not unitary$"):
            na.Representation(group, perm)

    def test_nan_row_fails_the_loop_check(self):
        mats = np.ones((3, 1, 1), dtype=np.complex128)
        mats[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^homomorphism property fails at element 0$"):
            na._check_homomorphism(na.cyclic_group(3), mats)

    def test_matrices_read_only_copy(self):
        _, perm = s3_permutation_matrices()
        rep = na.Representation(na.symmetric_3(), perm)
        with pytest.raises(ValueError):
            rep.matrices[0, 0, 0] = 5.0
        assert perm.flags.writeable
        perm[0, 0, 0] = 5.0  # the caller's array is not the representation's
        assert rep.matrices[0, 0, 0] == 1.0
        for built in (na.regular_representation(na.symmetric_3(), 2), na.direct_sum(rep, rep)):
            assert not built.matrices.flags.writeable


class TestProvenRepresentations:
    """direct_sum and regular_representation do not re-run the float checks."""

    @pytest.fixture
    def no_recheck(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Representation checks re-run")

        _, triv, sign, std = s3_irreps()
        monkeypatch.setattr(na.Representation, "__post_init__", refuse)
        return triv, sign, std

    def test_direct_sum_skips_checks(self, no_recheck):
        triv, sign, std = no_recheck
        total = na.direct_sum(triv, sign, std)
        assert total.dim == 4
        assert np.array_equal(total.matrices[:, 2:, 2:], std.matrices)

    def test_regular_representation_skips_checks(self, no_recheck):
        for group in builtin_groups():
            rep = na.regular_representation(group, 2)
            assert np.array_equal(rep.matrices, kron_regular(group, 2))


def loop_verdict(make):
    """None when ``make()`` returns, else the message of its ValueError."""
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


def loop_maximum(group, mats):
    """The largest entry the full homomorphism check computes."""
    return max(np.max(np.abs(na._homomorphism_residual(group, mats, a))) for a in group.elements())


def word_bound(group, mats, unitarity):
    """``_word_bound`` at the generator rows' norm, as the constructor calls it."""
    return na._word_bound(group, mats, unitarity, na._generator_row_norm(group, mats))


class TestGeneratorProof:
    """The homomorphism property proven from the generators' rows."""

    GROUPS = {
        "S3": na.symmetric_3,
        "D4": na.dihedral_4,
        "Q8": na.quaternion_8,
        "S3xZ4": lambda: na.direct_product(na.symmetric_3(), na.cyclic_group(4)),
    }

    @pytest.fixture
    def full_check_calls(self, monkeypatch):
        calls = []
        full = na._check_homomorphism

        def counted(group, mats):
            calls.append(group.order)
            full(group, mats)

        monkeypatch.setattr(na, "_check_homomorphism", counted)
        return calls

    @pytest.fixture
    def no_full_check(self, monkeypatch):
        def refuse(group, mats):
            raise AssertionError("full homomorphism check reached")

        monkeypatch.setattr(na, "_check_homomorphism", refuse)

    def test_word_depth(self):
        expected = {"S3": ((3, 1), 2), "D4": ((3, 1), 3), "Q8": ((2, 4), 3), "S3xZ4": ((13, 5), 6)}
        for name, make in self.GROUPS.items():
            group = make()
            gens = group.generators()
            # products of at most k generators, this time multiplied on the right
            reached, k = {group.identity}, 0
            while len(reached) < group.order:
                reached |= {group.compose(a, s) for a in reached for s in gens}
                k += 1
            assert (gens, group._word_depth()) == expected[name]
            assert k == group._word_depth()
            assert group.generators() is gens  # kept on the group
        assert na.cyclic_group(1)._word_depth() == 0
        assert na.cyclic_group(24)._word_depth() == 23

    @pytest.mark.parametrize("name", list(GROUPS))
    def test_valid_inputs_never_reach_full_check(self, name, no_full_check):
        rng = np.random.default_rng(91)
        group = self.GROUPS[name]()
        for multiplicity in (1, 2):
            exact = kron_regular(group, multiplicity)
            Q = haar_unitary(rng, exact.shape[1])
            for mats in (exact, Q @ exact @ Q.conj().T):
                rep = na.Representation(group, mats)
                assert np.array_equal(rep.matrices, mats)

    def test_large_group_runs_full_check(self, full_check_calls):
        # order 25: N=1 is inside the generator proof's 1e-10, N=2 past it
        group = na.cyclic_group(25)
        for multiplicity, bound, calls in ((1, 2.9e-11, []), (2, 1.1e-10, [25])):
            mats = kron_regular(group, multiplicity)
            na.Representation(group, mats)
            assert full_check_calls == calls
            assert word_bound(group, mats, 0.0) == pytest.approx(bound, rel=0.02)

    @pytest.mark.parametrize("name", ["S3", "D4"])
    @pytest.mark.parametrize("where", ["generator", "deep"])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_perturbation_at_tolerance(self, name, where, side):
        """A phase on one element puts the full check's maximum just inside
        (side -1) or just outside (side 1) 1e-10; the constructor's verdict
        and message are the full check's."""
        group = self.GROUPS[name]()
        if where == "generator":
            x = group.generators()[0]
        else:
            levels = {group.identity}
            while len(levels) < group.order:
                deep = {group.compose(s, a) for a in levels for s in group.generators()} - levels
                levels |= deep
            x = min(deep)
        rng = np.random.default_rng(92)
        exact = kron_regular(group, 1)
        Q = haar_unitary(rng, group.order)
        conjugated = Q @ exact @ Q.conj().T

        def perturbed(theta):
            mats = conjugated.copy()
            mats[x] *= np.exp(1j * theta)
            return mats

        slope = loop_maximum(group, perturbed(1e-10)) / 1e-10
        mats = perturbed(1e-10 * (1 + side * 1e-3) / slope)
        assert (loop_maximum(group, mats) > 1e-10) == (side > 0)
        got = loop_verdict(lambda: na.Representation(group, mats))
        assert got == loop_verdict(lambda: na._check_homomorphism(group, mats))
        assert (got is None) == (side < 0)

    @staticmethod
    def word_built(rng, group, mats, noise):
        """rho(s) exp(i noise H_s) on the generators, extended along
        breadth-first words, so that the error grows with the word length."""
        d, gens = mats.shape[1], group.generators()
        out = np.empty_like(mats)
        out[group.identity] = np.eye(d)
        for s in gens:
            H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            w, V = np.linalg.eigh(H + H.conj().T)
            out[s] = mats[s] @ (V * np.exp(1j * noise * w)) @ V.conj().T
        seen, level = {group.identity, *gens}, list(gens)
        while level:
            nxt = []
            for a in level:
                for s in gens:
                    b = group.compose(s, a)
                    if b not in seen:
                        seen.add(b)
                        out[b] = out[s] @ out[a]
                        nxt.append(b)
            level = nxt
        return out

    @staticmethod
    def drifting_character(n, c):
        """A one-dimensional near-character of Z_n: rho(1) rho(b) - rho(1 + b)
        has modulus about c for every b, but the phase errors add up along
        words, so some rho(a) rho(b) - rho(ab) reaches about n c."""
        steps = np.where(np.arange(n) < n // 2, c, -c)
        steps[0] = 0.0
        phi1 = (2 * np.pi + steps[1:].sum()) / n
        drift = np.concatenate(([0.0, 0.0], np.cumsum(steps[1:n - 1])))
        return np.exp(1j * (np.arange(n) * phi1 - drift)).reshape(n, 1, 1)

    def test_bound_nearly_attained_on_long_words(self):
        for n in (12, 24):
            group = na.cyclic_group(n)
            for c in (1e-14, 1e-13, 1e-12, 2e-12, 3e-12):
                mats = self.drifting_character(n, c)
                unitarity = np.max(np.abs(mats.conj() * mats - 1.0))
                bound = word_bound(group, mats, unitarity)
                assert bound / 4 < loop_maximum(group, mats) <= bound
                assert loop_maximum(group, mats) > 10 * np.max(np.abs(na._homomorphism_residual(group, mats, 1)))
        # past the proof (bound above 1e-10) the full check still accepts
        group, mats = na.cyclic_group(24), self.drifting_character(24, 3e-12)
        assert word_bound(group, mats, 0.0) > 1e-10 >= loop_maximum(group, mats)
        assert loop_verdict(lambda: na.Representation(group, mats)) is None

    def test_bound_dominates_full_check(self):
        """On random near-representations the full check's maximum never
        exceeds the bound the generator proof uses."""
        rng = np.random.default_rng(93)
        groups = dict(self.GROUPS, Z12=lambda: na.cyclic_group(12))
        accepted = refused = 0
        for name, make in groups.items():
            group = make()
            for multiplicity in (1, 2):
                exact = kron_regular(group, multiplicity)
                d = exact.shape[1]
                for noise in (1e-15, 1e-14, 1e-13, 1e-12, 3e-12, 1e-11):
                    Q = haar_unitary(rng, d)
                    E = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
                    noisy = Q @ exact @ Q.conj().T + noise * E
                    noisy[group.identity] = np.eye(d)
                    words = self.word_built(rng, group, Q @ exact @ Q.conj().T, noise)
                    for mats in (noisy, words):
                        unitarity = np.max(np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(d)))
                        bound = word_bound(group, mats, unitarity)
                        if bound == np.inf:  # a row the full check computes failed
                            assert loop_maximum(group, mats) > 1e-10
                            continue
                        assert loop_maximum(group, mats) <= bound
                        accepted += bound <= 1e-10
                        refused += bound > 1e-10
        assert accepted > 40 and refused > 40


def reference_validate(group, mats):
    """The constructor's checks before the generator proof covered unitarity
    and the identity row: the identity, the all-element unitarity product,
    the identity row and the word bound at the computed unitarity, then the
    full check, its loop written out."""
    mats = np.array(mats, dtype=np.complex128)
    d = mats.shape[1]
    if d == 0:
        return
    eye = np.eye(d)
    if not np.max(np.abs(mats[group.identity] - eye)) <= 1e-10:
        raise ValueError("matrix at the identity is not the identity")
    unitarity = np.max(np.abs(mats.conj().transpose(0, 2, 1) @ mats - eye))
    if not unitarity <= 1e-10:
        raise ValueError("representation matrices are not unitary")
    identity_row = np.max(np.abs(mats[group.identity] @ mats - mats))
    if identity_row <= 1e-10 and word_bound(group, mats, unitarity) <= 1e-10:
        return
    for a in group.elements():
        if not np.max(np.abs(mats[a] @ mats - mats[list(group.table[a])])) <= 1e-10:
            raise ValueError(f"homomorphism property fails at element {a}")


def hermitian_direction(rng, d):
    """Eigen-decomposition (w, V) of a random Hermitian matrix of spectral norm 1."""
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, V = np.linalg.eigh(H + H.conj().T)
    return w / np.max(np.abs(w)), V


def unitarity_maximum(mats):
    """The largest entry the all-element unitarity check computes."""
    return np.max(np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(mats.shape[1])))


def ungated_row_norm(group, mats):
    """The generator rows' largest Frobenius norm, with no 1e-10 gate."""
    rows = (np.abs(na._homomorphism_residual(group, mats, s)) for s in group.generators())
    return max((np.sqrt(np.max(np.sum(row * row, axis=(1, 2)))) for row in rows), default=0.0)


def identity_frobenius(group, mats):
    return np.linalg.norm(mats[group.identity] - np.eye(mats.shape[1]))


PROOF_GROUPS = {
    "S3": na.symmetric_3,
    "D4": na.dihedral_4,
    "Q8": na.quaternion_8,
    "S3xZ4": lambda: na.direct_product(na.symmetric_3(), na.cyclic_group(4)),
    "Z12": lambda: na.cyclic_group(12),
}


@st.composite
def near_representations(draw):
    """Conjugated regular representations, perturbed at a non-generator
    element, at the identity, or in unitarity only (S rho S^-1 with S near
    I), scaled so that what the perturbation moves (the full check's
    maximum, or the unitarity check's) sits just inside or just outside
    1e-10, far inside or past it; or with one NaN entry."""
    name = draw(st.sampled_from(sorted(PROOF_GROUPS)))
    group = PROOF_GROUPS[name]()
    multiplicity = draw(st.sampled_from([1, 2] if group.order <= 8 else [1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exact = kron_regular(group, multiplicity)
    d = exact.shape[1]
    Q = haar_unitary(rng, d)
    base = Q @ exact @ Q.conj().T
    kind = draw(st.sampled_from(["element", "identity", "unitarity", "nan"]))
    if kind == "nan":
        mats = base.copy()
        mats[draw(st.sampled_from(range(group.order))), rng.integers(d), rng.integers(d)] = np.nan
        return name, kind, group, mats
    w, V = hermitian_direction(rng, d)
    if kind == "element":
        x = draw(st.sampled_from(sorted(set(group.elements()) - {group.identity, *group.generators()})))
    else:
        x = group.identity

    def perturbed(theta):
        if kind == "unitarity":
            S, S_inv = ((V * np.exp(sign * theta * w)) @ V.conj().T for sign in (1, -1))
            return S @ base @ S_inv
        mats = base.copy()
        mats[x] = base[x] @ (V * np.exp(1j * theta * w)) @ V.conj().T
        return mats

    measure = unitarity_maximum if kind == "unitarity" else (lambda mats: loop_maximum(group, mats))
    scale = draw(st.sampled_from([1 - 1e-3, 1 + 1e-3, 1e-3, 0.5, 2.0]))
    return name, kind, group, perturbed(1e-10 * scale / (measure(perturbed(1e-10)) / 1e-10))


class TestValidationProof:
    """Unitarity and the identity row proven from the generators' rows: the
    same verdicts and messages as the checks, bounds that dominate what the
    checks compute, and no check computed on the benchmark's inputs."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=near_representations())
    def test_verdicts_match_the_reference(self, case):
        _, _, group, mats = case
        got = loop_verdict(lambda: na.Representation(group, mats))
        assert got == loop_verdict(lambda: reference_validate(group, mats))

    def test_bounds_dominate_the_checks(self):
        """On near-representations from rounding-level to large noise, the
        proven unitarity bound is at least every entry of the all-element
        check, and the identity-row bound every entry of the identity's row;
        the rows' norms are taken without the 1e-10 gate."""
        rng = np.random.default_rng(94)
        cases = 0
        for name, make in PROOF_GROUPS.items():
            group = make()
            for multiplicity in (1, 2):
                exact = kron_regular(group, multiplicity)
                d = exact.shape[1]
                for noise in (1e-15, 1e-13, 1e-11, 1e-8, 1e-4, 1e-1):
                    Q = haar_unitary(rng, d)
                    base = Q @ exact @ Q.conj().T
                    E = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
                    w, V = hermitian_direction(rng, d)
                    S, S_inv = ((V * np.exp(sign * noise * w)) @ V.conj().T for sign in (1, -1))
                    words = TestGeneratorProof.word_built(rng, group, base, noise)
                    for mats in (base + noise * E, words, S @ base @ S_inv):
                        e = identity_frobenius(group, mats)
                        bound = na._unitarity_bound(group, mats, e, ungated_row_norm(group, mats))
                        assert unitarity_maximum(mats) <= bound, (name, multiplicity, noise)
                        identity_row = np.abs(na._homomorphism_residual(group, mats, group.identity))
                        assert np.max(identity_row) <= na._identity_row_bound(e, bound, d)
                        cases += 1
        assert cases == 5 * 2 * 6 * 3

    @pytest.mark.parametrize("t", [1e-6, 3.0])
    def test_unitarity_bound_on_a_skew_step(self, t):
        """Z3 with rho(1) = omega unitary and rho(2) = omega^2 (1 - i t):
        rho(2) rho(2)^H - 1 = t^2 comes from Delta^H Delta alone (the cross
        terms cancel), and one step of the induction bounds it by 2t + t^2,
        within a factor 2 of it at t = 3."""
        omega = np.exp(2j * np.pi / 3)
        mats = np.array([1.0, omega, omega**2 * (1 - 1j * t)]).reshape(3, 1, 1)
        group = na.cyclic_group(3)
        bound = na._unitarity_bound(group, mats, 0.0, ungated_row_norm(group, mats))
        assert unitarity_maximum(mats) == pytest.approx(t * t, rel=1e-9)
        assert unitarity_maximum(mats) <= bound <= 2 * t + t * t + 1e-12

    @pytest.fixture
    def checks_refused(self, monkeypatch):
        """The all-element unitarity product, the identity row and the full
        check each raise when reached."""
        residual = na._homomorphism_residual

        def row(group, mats, a):
            if a == group.identity:
                raise AssertionError("identity row computed")
            return residual(group, mats, a)

        def refuse(name):
            def raise_(*args):
                raise AssertionError(f"{name} reached")
            return raise_

        monkeypatch.setattr(na, "_homomorphism_residual", row)
        monkeypatch.setattr(na, "_unitarity_residual", refuse("all-element unitarity"))
        monkeypatch.setattr(na, "_check_homomorphism", refuse("full check"))

    @pytest.mark.parametrize("seed", [1, 2, 7, 611])
    def test_benchmark_representations_take_the_proof(self, seed, checks_refused, monkeypatch):
        """Every representation the dense-paths benchmark builds, round and
        small sets, built as its worker builds them, is proven without any
        of the three checks."""
        built = []
        post_init = na.Representation.__post_init__
        monkeypatch.setattr(na.Representation, "__post_init__", lambda rep: built.append(post_init(rep)))
        gen = benchmark_gen()
        for small in (False, True):
            for _, text, _ in gen.pool("dense-paths", seed, small):
                job = json.loads(text)
                if job.get("kind") == "cancel":
                    group = na.FiniteGroup(job["table"])
                    for block in job["reps"].values():  # cancel builds no representation of its own
                        na.Representation(group, gen.array_from_json(block))
                elif job.get("kind") == "wandering_complement_general":
                    X, Y = gen.array_from_json(job["X"]), gen.array_from_json(job["Y"])
                    # the complement builds no representation of its own
                    na.wandering_complement_general(X, Y, na.FiniteGroup(job["table"]), job["mult"])
        assert len(built) >= 40


def test_checks_are_reached_only_from_the_constructor():
    """``Representation.__post_init__`` is the one caller of the full check
    and of the all-element unitarity product."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 8
    for name in ("_check_homomorphism", "_unitarity_residual"):
        callers = {(m.name, scope) for m in modules for scope, _ in references(m, name)}
        assert callers == {("nonabelian.py", "Representation.__post_init__")}, name


class TestCharacter:
    def test_trivial_all_ones(self):
        group, triv, _, _ = s3_irreps()
        np.testing.assert_allclose(na.character(triv).values, [1, 1, 1], atol=1e-15)

    def test_standard_rep_values(self):
        group, _, _, std = s3_irreps()
        # class order: identity, transpositions, 3-cycles
        np.testing.assert_allclose(na.character(std).values, [2, 0, -1], atol=1e-12)

    def test_inner_products_orthonormal(self):
        group, triv, sign, std = s3_irreps()
        for a in (triv, sign, std):
            assert na.character_inner(na.character(a), na.character(a)) == pytest.approx(1.0, abs=1e-12)
        assert na.character_inner(na.character(triv), na.character(sign)) == pytest.approx(0.0, abs=1e-12)
        assert na.character_inner(na.character(std), na.character(sign)) == pytest.approx(0.0, abs=1e-12)

    def test_trace_off_a_class_is_a_hypothesis_failure(self):
        mats = np.tile(np.eye(6, dtype=np.complex128), (6, 1, 1))
        mats[1] *= np.exp(4.5e-11j)  # homomorphism residual 9e-11, trace spread 2.7e-10
        rep = na.Representation(na.symmetric_3(), mats)
        with pytest.raises(wg.HypothesisFailure, match="^trace is not constant on a conjugacy class$"):
            na.character(rep)


    def test_values_are_the_traces_at_each_class_minimum(self):
        """Bit for bit the per-class loop's values: the trace at the class's
        smallest element, on conjugated representations whose traces differ
        within a class in the last bits."""
        rng = np.random.default_rng(95)
        for group in builtin_groups():
            exact = kron_regular(group, 2)
            Q = haar_unitary(rng, exact.shape[1])
            rep = na.Representation(group, Q @ exact @ Q.conj().T)
            traces = np.trace(rep.matrices, axis1=1, axis2=2)
            expected = tuple(complex(traces[list(cls)][0]) for cls in group.conjugacy_classes())
            assert na.character(rep).values == expected
            assert all(type(v) is complex for v in na.character(rep).values)

    def test_computed_once_per_representation(self, monkeypatch):
        """cancel and the report's two characters take four traces: rho,
        sigma1, sigma2 and sigma3, each once."""
        group = na.symmetric_3()
        lam = na.regular_representation(group, 2)
        sigma = na.regular_representation(group, 1)
        trace, calls = np.trace, []
        monkeypatch.setattr(np, "trace", lambda *a, **k: calls.append(1) or trace(*a, **k))
        sigma2, sigma3 = compress(sigma, np.eye(6)), compress(sigma, np.eye(6))
        na.cancel(lam, sigma, sigma2, sigma3)
        assert na.character(sigma2) is na.character(sigma2)
        na.character(sigma3)
        assert len(calls) == 4

    def test_failure_is_not_cached(self):
        mats = np.tile(np.eye(6, dtype=np.complex128), (6, 1, 1))
        mats[1] *= np.exp(4.5e-11j)
        rep = na.Representation(na.symmetric_3(), mats)
        for _ in range(2):
            with pytest.raises(wg.HypothesisFailure, match="^trace is not constant on a conjugacy class$"):
                na.character(rep)


class TestIntertwinerBasis:
    def test_irreducible_self_schur(self):
        _, _, _, std = s3_irreps()
        basis = na.intertwiner_basis(std, std)
        assert len(basis) == 1
        # the single intertwiner is a scalar multiple of the identity
        T = basis[0].matrix
        off = T - np.trace(T) / 2 * np.eye(2)
        assert np.max(np.abs(off)) <= 1e-9

    def test_distinct_irreducibles_empty(self):
        _, triv, sign, _ = s3_irreps()
        assert na.intertwiner_basis(triv, sign) == []

    def test_regular_self_dimension(self):
        lam = na.regular_representation(na.symmetric_3(), 1)
        basis = na.intertwiner_basis(lam, lam)
        assert len(basis) == 6  # 1^2 + 1^2 + 2^2
        assert max(b.residual for b in basis) <= 1e-9

    def test_q8_regular_self_dimension(self):
        lam = na.regular_representation(na.quaternion_8(), 1)
        assert len(na.intertwiner_basis(lam, lam)) == 8  # 4 * 1^2 + 2^2


class TestAreEquivalent:
    def test_same_object_identity(self):
        lam = na.regular_representation(na.symmetric_3(), 1)
        wit = na.are_equivalent(lam, lam)
        np.testing.assert_allclose(wit.matrix, np.eye(6), atol=1e-15)
        assert wit.residual == 0.0

    def test_block_swap(self):
        _, triv, sign, std = s3_irreps()
        a = na.direct_sum(std, triv)
        b = na.direct_sum(triv, std)
        wit = na.are_equivalent(a, b)
        assert wit is not None and wit.unitary
        assert wit.residual <= 1e-9
        eye = np.eye(3)
        assert np.max(np.abs(wit.matrix.conj().T @ wit.matrix - eye)) <= 1e-9
        # explicit block swap is itself a witness (oracle)
        swap = np.zeros((3, 3), dtype=np.complex128)
        swap[0, 2] = 1.0
        swap[1, 0] = 1.0
        swap[2, 1] = 1.0
        assert np.max(np.abs(swap @ a.matrices - b.matrices @ swap)) <= 1e-12

    def test_one_svd_per_draw(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        _, triv, _, std = s3_irreps()
        a, b = na.direct_sum(std, triv), na.direct_sum(triv, std)
        expected = na.are_equivalent(a, b)
        monkeypatch.setattr(np.linalg, "svd", counted)
        wit = na.are_equivalent(a, b)
        assert calls == [True] * (wit.seed + 1)
        assert np.array_equal(wit.matrix, expected.matrix) and wit.seed == expected.seed

    def test_distinct_characters_none(self):
        _, triv, sign, _ = s3_irreps()
        assert na.are_equivalent(triv, sign) is None

    def test_no_well_conditioned_draw_is_a_genericity_failure(self, monkeypatch):
        _, triv, _, std = s3_irreps()
        monkeypatch.setattr(na, "_COND_LIMIT", 0.5)  # every draw's condition number is at least 1
        with pytest.raises(wg.GenericityFailure, match="^no well-conditioned intertwiner found in 8 seeded attempts$"):
            na.are_equivalent(na.direct_sum(std, triv), na.direct_sum(triv, std))

    def test_zero_dimensional(self):
        group = na.symmetric_3()
        z = na.Representation(group, np.zeros((6, 0, 0), dtype=np.complex128))
        wit = na.are_equivalent(z, z)
        assert wit is not None and wit.matrix.shape == (0, 0)

    def test_witness_composition_transitive(self):
        rng = np.random.default_rng(80)
        for group in (na.symmetric_3(), na.dihedral_4(), na.quaternion_8()):
            lam = na.regular_representation(group, 1)
            d = lam.dim
            Q1, Q2 = haar_unitary(rng, d), haar_unitary(rng, d)
            rho = compress(lam, Q1)
            sigma = compress(lam, Q2)
            w1 = na.are_equivalent(lam, rho)
            w2 = na.are_equivalent(rho, sigma)
            w21 = w2.matrix @ w1.matrix
            assert np.max(np.abs(w21 @ lam.matrices - sigma.matrices @ w21)) <= 1e-8
            # symmetry at the witness level: the adjoint reverses direction
            back = w1.matrix.conj().T
            assert np.max(np.abs(back @ rho.matrices - lam.matrices @ back)) <= 1e-8

    def test_polar_factor_of_invertible_intertwiner(self):
        rng = np.random.default_rng(81)
        lam = na.regular_representation(na.dihedral_4(), 1)
        Q = haar_unitary(rng, 8)
        sigma = compress(lam, Q)
        # generic invertible (non-unitary) intertwiner lam -> sigma
        inv = [lam.group.inverse(g) for g in lam.group.elements()]
        R = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        T = np.mean(sigma.matrices @ R @ lam.matrices[inv], axis=0)
        assert np.max(np.abs(T @ lam.matrices - sigma.matrices @ T)) <= 1e-12
        W, s, Vh = np.linalg.svd(T)
        assert s[-1] > 1e-6  # invertible draw
        U = W @ Vh
        assert np.max(np.abs(U @ lam.matrices - sigma.matrices @ U)) <= 1e-9


def reference_cancel(rho, sigma1, sigma2, sigma3, tol=1e-9):
    """``cancel``'s decisions through ``direct_sum`` and ``character``: rho's
    dimension and character against the regular one, then each sum's."""
    group = rho.group
    n, rest = divmod(rho.dim, group.order)
    regular = [group.order if group.identity in cls else 0 for cls in group.conjugacy_classes()]
    if rest or not all(abs(a - n * b) <= tol for a, b in zip(na.character(rho).values, regular)):
        raise wg.HypothesisFailure("rho is not a finite multiple of the regular representation")
    for sigma, label in ((sigma2, "sigma2"), (sigma3, "sigma3")):
        total = na.direct_sum(sigma1, sigma)
        if not (rho.dim == total.dim and na.character(rho).agrees(na.character(total), tol)):
            raise wg.HypothesisFailure(f"rho is not equivalent to sigma1 + {label}")
    witness = na.are_equivalent(sigma2, sigma3, tol=tol)
    if witness is None:
        raise wg.HypothesisFailure("complement characters disagree; inputs are inconsistent")
    return witness


def cancel_outcome(decide, *reps):
    """(error type, message), or (bytes, the witness's bytes, seed, residual)."""
    try:
        witness = decide(*reps)
    except (wg.HypothesisFailure, ValueError) as exc:
        return type(exc), str(exc)
    return bytes, witness.matrix.tobytes(), witness.seed, witness.residual


class TestCancel:
    def test_zero_dimensional_sigma1(self):
        rng = np.random.default_rng(82)
        group = na.symmetric_3()
        lam = na.regular_representation(group, 1)
        z = na.Representation(group, np.zeros((6, 0, 0), dtype=np.complex128))
        Q1, Q2 = haar_unitary(rng, 6), haar_unitary(rng, 6)
        wit = na.cancel(lam, z, compress(lam, Q1), compress(lam, Q2))
        assert wit.residual <= 1e-9

    def test_only_the_conclusion_is_witnessed(self, monkeypatch):
        rng = np.random.default_rng(82)
        group = na.symmetric_3()
        lam = na.regular_representation(group, 1)
        z = na.Representation(group, np.zeros((6, 0, 0), dtype=np.complex128))
        sigma2, sigma3 = compress(lam, haar_unitary(rng, 6)), compress(lam, haar_unitary(rng, 6))
        calls = []
        are_equivalent = na.are_equivalent
        monkeypatch.setattr(na, "are_equivalent", lambda *a, **k: calls.append(a) or are_equivalent(*a, **k))
        wit = na.cancel(lam, z, sigma2, sigma3)
        assert len(calls) == 1 and calls[0][0] is sigma2 and calls[0][1] is sigma3
        assert wit.residual <= 1e-9

    def test_hypothesis_messages_in_order(self):
        group, triv, sign, std = s3_irreps()
        lam = na.regular_representation(group, 1)
        with pytest.raises(wg.HypothesisFailure, match=r"^rho is not equivalent to sigma1 \+ sigma2$"):
            na.cancel(lam, std, triv, na.direct_sum(triv, sign))
        with pytest.raises(wg.HypothesisFailure, match=r"^rho is not equivalent to sigma1 \+ sigma3$"):
            na.cancel(lam, na.direct_sum(triv, sign), na.direct_sum(std, std), triv)

    def test_s3_standard_complements(self):
        rng = np.random.default_rng(83)
        group = na.symmetric_3()
        lam = na.regular_representation(group, 1)
        # invariant 2-dim subspace carrying the standard character from a
        # commutant Hermitian eigenspace
        for attempt in range(20):
            BS, BP = random_invariant_splitting(rng, lam)
            if BS.shape[1] == 2:
                sigma1 = compress(lam, BS)
                if na.character(sigma1).agrees(
                    na.ClassFunction(group, (2 + 0j, 0j, -1 + 0j)), 1e-9
                ):
                    break
        else:
            pytest.fail("no standard-character eigenspace found")
        np.testing.assert_allclose(na.character(sigma1).values, [2, 0, -1], atol=1e-9)
        sigma2 = compress(lam, BP @ haar_unitary(rng, 4))
        sigma3 = compress(lam, BP @ haar_unitary(rng, 4))
        np.testing.assert_allclose(na.character(sigma2).values, [4, 0, 1], atol=1e-9)
        wit = na.cancel(lam, sigma1, sigma2, sigma3)
        assert wit.residual <= 1e-9
        assert na.character(sigma2).agrees(na.character(sigma3), 1e-9)

    def test_mismatched_characters_rejected(self):
        rng = np.random.default_rng(84)
        group, triv, sign, std = s3_irreps()
        lam = na.regular_representation(group, 1)
        BS, BP = random_invariant_splitting(rng, lam)
        sigma1 = compress(lam, BS)
        sigma2 = compress(lam, BP)
        with pytest.raises(wg.HypothesisFailure):
            na.cancel(lam, sigma1, sigma2, na.direct_sum(triv, sign))

    def test_rho_must_be_regular_multiple(self):
        _, triv, sign, std = s3_irreps()
        rho = na.direct_sum(triv, std)
        with pytest.raises(wg.HypothesisFailure):
            na.cancel(rho, triv, std, std)

    def test_builds_no_direct_sum(self, monkeypatch):
        group, triv, sign, std = s3_irreps()
        lam = na.regular_representation(group, 1)
        sigma1, sigma2 = na.direct_sum(std, std), na.direct_sum(triv, sign)
        sigma3 = na.direct_sum(sign, triv)

        def refuse(*reps):
            raise AssertionError("direct_sum reached")

        monkeypatch.setattr(na, "direct_sum", refuse)
        wit = na.cancel(lam, sigma1, sigma2, sigma3)
        assert wit.residual <= 1e-9

    def test_summands_must_share_one_group(self):
        """The group is checked before the dimensions, for sigma2 and then
        for sigma3; a table-equal group is the same group."""
        group, triv, sign, std = s3_irreps()
        lam = na.regular_representation(group, 1)
        other = na.Representation(na.cyclic_group(6), np.ones((6, 1, 1), dtype=np.complex128))
        same = na.Representation(na.symmetric_3(), np.ones((6, 1, 1), dtype=np.complex128))
        pair, std2 = na.direct_sum(triv, sign), na.direct_sum(std, std)
        with pytest.raises(ValueError, match="^summands must share one group$"):
            na.cancel(lam, std2, other, pair)
        with pytest.raises(ValueError, match="^summands must share one group$"):
            na.cancel(lam, std2, pair, other)
        with pytest.raises(wg.HypothesisFailure, match=r"^rho is not equivalent to sigma1 \+ sigma3$"):
            na.cancel(lam, std2, pair, same)

    def test_rho_must_share_sigma1s_group(self):
        """Q8 and D4 both have five classes and equal regular characters, so
        only the group tells them apart; it is checked before rho is tested
        as a regular multiple."""
        d4 = na.dihedral_4()
        lam = na.regular_representation(d4)
        zero = na.Representation(d4, np.zeros((8, 0, 0), dtype=np.complex128))
        for rho in (na.regular_representation(na.quaternion_8()),
                    na.Representation(na.quaternion_8(), np.ones((8, 1, 1), dtype=np.complex128))):
            with pytest.raises(ValueError, match="^summands must share one group$"):
                na.cancel(rho, zero, lam, lam)

    def test_verdicts_match_the_reference(self):
        """Verdicts, messages and witnesses equal those of the decision
        through direct sums, on regular multiples of the builtin groups
        split into invariant pieces, and on sums of the S3 irreducibles."""
        rng = np.random.default_rng(91)
        cases = []
        for group in builtin_groups():
            for multiplicity in (1, 2):
                lam = na.regular_representation(group, multiplicity)
                if lam.dim < 2:
                    continue
                BS, BP = random_invariant_splitting(rng, lam)
                sigma1, sigma2 = compress(lam, BS), compress(lam, BP)
                sigma3 = compress(lam, BP @ haar_unitary(rng, BP.shape[1]))
                rho = compress(lam, haar_unitary(rng, lam.dim))
                cases += [(rho, sigma1, sigma2, sigma3), (lam, sigma2, sigma1, sigma3), (lam, sigma1, sigma1, sigma2)]
        group, triv, sign, std = s3_irreps()
        zero = na.Representation(group, np.zeros((6, 0, 0), dtype=np.complex128))
        triv_copy = na.Representation(na.symmetric_3(), triv.matrices)  # a table-equal group
        sums = [zero, triv, sign, std, triv_copy, na.direct_sum(triv, sign), na.direct_sum(std, std),
                na.direct_sum(triv, sign, std), na.direct_sum(sign, std, triv, std)]
        rhos = [na.regular_representation(group, 1), na.direct_sum(triv, sign, std, std),
                na.regular_representation(group, 2), na.direct_sum(triv, std),
                na.Representation(group, np.tile(np.eye(6), (6, 1, 1)))]  # dimension 6, not regular
        cases += [(rho, *sigmas) for rho in rhos for sigmas in itertools.product(sums, repeat=3)]
        seen = set()
        for case in cases:
            got, want = cancel_outcome(na.cancel, *case), cancel_outcome(reference_cancel, *case)
            assert got == want
            seen.add(got[1] if got[0] is not bytes else "witness")
        assert seen == {
            "witness",
            "rho is not a finite multiple of the regular representation",
            "rho is not equivalent to sigma1 + sigma2",
            "rho is not equivalent to sigma1 + sigma3",
        }  # the hypotheses leave sigma2's and sigma3's characters within 2 tol


class TestWanderingComplementGeneral:
    def _standard_columns(self, group, multiplicity, count):
        dim = group.order * multiplicity
        cols = np.zeros((dim, count), dtype=np.complex128)
        for b in range(count):
            cols[group.identity * multiplicity + b, b] = 1.0
        return cols

    def test_x_equals_y_empty(self):
        group = na.symmetric_3()
        Y = self._standard_columns(group, 2, 2)
        out = na.wandering_complement_general(Y, Y, group, 2)
        assert out.shape == (12, 0)

    def test_s3_size_hypotheses(self):
        group = na.symmetric_3()
        Y = self._standard_columns(group, 2, 2)
        message = "^a complete wandering family here has exactly 2 members, got 1$"
        with pytest.raises(wg.HypothesisFailure, match=message):
            na.wandering_complement_general(Y[:, :0], Y[:, :1], group, 2)
        X = np.zeros((12, 3), dtype=np.complex128)
        with pytest.raises(wg.HypothesisFailure, match=r"^\|X\| = 3 exceeds \|Y\| = 2$"):
            na.wandering_complement_general(X, Y, group, 2)

    def test_s3_sizes_and_union_gram(self):
        rng = np.random.default_rng(85)
        group = na.symmetric_3()
        lam = na.regular_representation(group, 2)
        U1 = random_commutant_unitary(rng, lam)
        U2 = random_commutant_unitary(rng, lam)
        Y = U1 @ self._standard_columns(group, 2, 2)
        X = U2 @ self._standard_columns(group, 2, 1)
        Xp = na.wandering_complement_general(X, Y, group, 2)
        assert Xp.shape[1] == 1
        union = na._orbit_matrix(group, 2, np.hstack([X, Xp]))
        assert np.max(np.abs(union.conj().T @ union - np.eye(12))) <= 1e-9

    def test_abelian_matches_wandering_complement(self):
        rng = np.random.default_rng(86)
        spec = wg.FiniteAbelian((4,))
        sp = wg.SystemSpace(spec, 2)
        Y = random_orthonormal_family(rng, sp, 2)
        X = random_wandering_subfamily(rng, Y, 1)
        Xp_fam = wg.complement_wandering(X, Y)
        group = na.from_abelian(spec)
        lam = na.regular_representation(group, 2)
        to_cols = lambda fam: np.stack([v.dense().reshape(-1) for v in fam.members], axis=1)
        Xp_cols = na.wandering_complement_general(to_cols(X), to_cols(Y), group, 2)
        orbit_a = na._orbit_matrix(group, 2, to_cols(Xp_fam))
        orbit_b = na._orbit_matrix(group, 2, Xp_cols)
        assert _linalg.max_principal_angle(_linalg.thin_svd(orbit_a), _linalg.thin_svd(orbit_b)) <= 1e-8

    def test_empty_x_returns_the_standard_columns(self):
        rng = np.random.default_rng(89)
        for group in builtin_groups():
            for multiplicity in (1, 2):
                lam = na.regular_representation(group, multiplicity)
                standard = self._standard_columns(group, multiplicity, multiplicity)
                Y = random_commutant_unitary(rng, lam) @ standard
                X = np.zeros((Y.shape[0], 0), dtype=np.complex128)
                out = na.wandering_complement_general(X, Y, group, multiplicity)
                # the witness between two equal arrays is I
                eye = np.eye(Y.shape[0], dtype=np.complex128)
                for ref in (standard, eye @ (eye @ standard)):
                    assert (out.dtype, out.shape, out.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())

    def test_memory_at_the_order_cap(self):
        # Z256, N = 1: lambda as matrices would take 256^3 * 16 B = 256 MiB
        group = na.cyclic_group(256)
        X = np.zeros((256, 0), dtype=np.complex128)
        tracemalloc.start()
        try:
            out = na.wandering_complement_general(X, self._standard_columns(group, 1, 1), group, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (256, 1)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("multiplicity,r", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_regular_representation_built_only_as_the_target(self, monkeypatch, multiplicity, r):
        rng = np.random.default_rng(90)
        group = na.symmetric_3()
        lam = na.regular_representation(group, multiplicity)
        Y = random_commutant_unitary(rng, lam) @ self._standard_columns(group, multiplicity, multiplicity)
        X = random_commutant_unitary(rng, lam) @ self._standard_columns(group, multiplicity, r)
        calls, original = [], na.regular_representation
        monkeypatch.setattr(na, "regular_representation", lambda g, m=1: calls.append(m) or original(g, m))
        assert na.wandering_complement_general(X, Y, group, multiplicity).shape[1] == multiplicity - r
        assert calls == []

    def _s3_inputs(self, multiplicity, r):
        rng = np.random.default_rng(92)
        group = na.symmetric_3()
        lam = na.regular_representation(group, multiplicity)
        Y = random_commutant_unitary(rng, lam) @ self._standard_columns(group, multiplicity, multiplicity)
        X = random_commutant_unitary(rng, lam) @ self._standard_columns(group, multiplicity, r)
        return X, Y, group

    def test_builds_no_svd_representation_or_witness(self, monkeypatch):
        X, Y, group = self._s3_inputs(3, 1)

        def refuse(name):
            def raise_(*args, **kwargs):
                raise AssertionError(f"{name} reached")
            return raise_

        monkeypatch.setattr(na, "Representation", refuse("Representation"))
        monkeypatch.setattr(na, "are_equivalent", refuse("are_equivalent"))
        monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
        Xp = na.wandering_complement_general(X, Y, group, 3)
        union = na._orbit_matrix(group, 3, np.hstack([X, Xp]))
        assert Xp.shape == (18, 2)
        assert np.max(np.abs(union.conj().T @ union - np.eye(18))) <= 1e-9

    def test_union_orbit_and_memory_at_the_order_cap(self):
        # D4 x Z32, N = 2: one dense copy of lambda (256 x 256 x 256) would take 256 MiB
        rng = np.random.default_rng(93)
        group = na.direct_product(na.dihedral_4(), na.cyclic_group(32))
        n, N = group.order, 2
        # exp(iH), H = sum_h R(h) kron A_h made Hermitian (R the right
        # translations), commutes with lambda: H[(x, b), (y, c)] = A_(x^-1 y)[b, c]
        A = rng.standard_normal((n, N, N)) + 1j * rng.standard_normal((n, N, N))
        H = A[np.array(group.table)[list(group.inverse_table)]].transpose(0, 2, 1, 3).reshape(n * N, n * N)
        w, E = np.linalg.eigh(H + H.conj().T)
        C = (E * np.exp(1j * w)) @ E.conj().T
        Y, X = self._standard_columns(group, N, N), C @ self._standard_columns(group, N, 1)
        tracemalloc.start()
        try:
            Xp = na.wandering_complement_general(X, Y, group, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        union = na._orbit_matrix(group, N, np.hstack([X, Xp]))
        assert Xp.shape == (n * N, 1)
        assert np.max(np.abs(union.conj().T @ union - np.eye(n * N))) <= 1e-9
        assert peak < 32 * 2**20

    def test_unorthonormal_conclusion_is_a_genericity_failure(self, monkeypatch):
        X, Y, group = self._s3_inputs(3, 1)
        eigh = np.linalg.eigh

        def skewed(H):
            w, V = eigh(H)
            V[:, 0] *= 1.01
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(wg.GenericityFailure, match="^the orbit of X and its complement is not orthonormal$"):
            na.wandering_complement_general(X, Y, group, 3)

    def test_no_well_conditioned_draw_is_a_genericity_failure(self, monkeypatch):
        X, Y, group = self._s3_inputs(2, 1)
        monkeypatch.setattr(na, "_COND_LIMIT", 0.5)  # every draw's condition number is at least 1
        with pytest.raises(wg.GenericityFailure, match="^no well-conditioned complement found in 8 seeded attempts$"):
            na.wandering_complement_general(X, Y, group, 2)

    def test_nan_gram_skips_every_seed(self, monkeypatch):
        X, Y, group = self._s3_inputs(2, 1)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: (np.full(len(H), np.nan), eigh(H)[1]))
        with pytest.raises(wg.GenericityFailure, match="^no well-conditioned complement found in 8 seeded attempts$"):
            na.wandering_complement_general(X, Y, group, 2)

    def test_bad_inputs_rejected(self):
        group = na.symmetric_3()
        Y = self._standard_columns(group, 2, 2)
        with pytest.raises(wg.HypothesisFailure):
            na.wandering_complement_general(0.5 * Y[:, :1], Y, group, 2)
        with pytest.raises(wg.HypothesisFailure):
            na.wandering_complement_general(Y[:, :1], 0.5 * Y, group, 2)

    def test_nan_y_is_refused(self):
        group = na.symmetric_3()
        Y = np.full((12, 2), np.nan, dtype=np.complex128)
        with pytest.raises(wg.HypothesisFailure, match="^Y's orbit is not an orthonormal basis$"):
            na.wandering_complement_general(np.zeros((12, 0)), Y, group, 2)

    def test_nan_x_is_refused(self):
        group = na.symmetric_3()
        X = np.full((12, 1), np.nan, dtype=np.complex128)
        with pytest.raises(wg.HypothesisFailure, match="^X's orbit is not orthonormal$"):
            na.wandering_complement_general(X, self._standard_columns(group, 2, 2), group, 2)

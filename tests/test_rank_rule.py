"""The one rank rule: a value counts as zero at or below
``tol_rank * max(largest value, 1)``, taken per row, and ``_linalg.cutoff``
is the only place in the library that writes it.

Each decision is probed with its deciding value exactly at the cutoff
(zero) and one ulp above it (nonzero), so a ``<`` turned ``<=`` anywhere
shows.  The values are powers of two, or a value and its ``nextafter``
neighbour, and the matrices diagonal, so every factorization returns them
without rounding.  The last test keeps the rule from being written out
again in another module.
"""

import ast
import pathlib

import numpy as np
import pytest

import wandergen as wg
from wandergen import _linalg
from wandergen import nonabelian as na
from wandergen.oblique import dual_family

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wandergen"

TOL = 2.0**-40
BELOW = np.nextafter(TOL, 0.0)  # as a tolerance, puts TOL one ulp above the cutoff
ABOVE = np.nextafter(TOL, 1.0)


def sampled(columns):
    """A shift-mode family over a 4-point grid, 2 channels, normalization 1,
    whose fibers are the given (points, 2, k) array."""
    return wg.SampledFamily(wg.SystemSpace(wg.IntegerShift(4), 2), np.asarray(columns, dtype=np.complex128))


def diagonal(small, large=1.0):
    """Two members whose Gram fiber at each point is diag(large**2, small**2)."""
    return sampled([np.diag([large, s]) for s in small])


class TestCutoff:
    def test_rows_in_either_order(self):
        values = np.array([[4.0, 4 * TOL], [4 * TOL, 4.0], [0.5, TOL], [TOL, 0.5]])
        np.testing.assert_array_equal(_linalg.cutoff(values, TOL), [4 * TOL, 4 * TOL, TOL, TOL])
        np.testing.assert_array_equal(_linalg._rank(values, TOL), [1, 1, 1, 1])
        np.testing.assert_array_equal(_linalg._rank(values, np.nextafter(TOL, 0.0)), [2, 2, 2, 2])

    def test_one_ulp_above_counts(self):
        descending = np.array([[1.0, ABOVE, TOL, 0.0]])
        assert _linalg._rank(descending, TOL).tolist() == [2]
        assert _linalg._rank(descending[:, ::-1], TOL).tolist() == [2]

    def test_empty_rows_have_rank_zero(self):
        np.testing.assert_array_equal(_linalg.cutoff(np.zeros((3, 0)), TOL), [TOL] * 3)
        np.testing.assert_array_equal(_linalg._rank(np.zeros((3, 0)), TOL), [0, 0, 0])
        assert _linalg._rank(np.zeros(0), TOL) == 0

    def test_tiny_negative_eigenvalues(self):
        # eigvalsh of a singular Gram fiber may return -eps-sized values
        evs = np.array([[-1e-17, 0.5], [-3e-17, -1e-17], [-1e-17, 2.0]])
        np.testing.assert_array_equal(_linalg.cutoff(evs, TOL), [TOL, TOL, 2 * TOL])
        np.testing.assert_array_equal(_linalg._rank(evs, TOL), [1, 0, 1])

    def test_matrix_rank_and_null_space(self):
        M = np.diag([1.0, TOL, 0.0])
        assert _linalg.matrix_rank(M, TOL) == 1
        assert _linalg.matrix_rank(M, BELOW) == 2
        V, r = _linalg.null_space_columns(M, TOL)
        assert r == 1 and V.shape == (3, 3)


class TestGramBounds:
    def test_riesz_bounds_at_and_above_the_cutoff(self):
        with pytest.raises(wg.NotRiesz, match="dual point 0 "):
            wg.riesz_bounds(diagonal([2.0**-20] * 4), TOL)
        assert wg.riesz_bounds(diagonal([2.0**-20] * 4), BELOW).lower == TOL

    def test_riesz_worst_point_is_the_largest_shortfall(self):
        # smallest eigenvalues TOL and 4 TOL at points 1 and 2, whose largest
        # are 1 and 4: at TOL both sit exactly at their cutoffs and the first
        # is named; at 2 TOL point 2 falls short by more
        X = sampled([np.diag(d) for d in ([1.0, 1.0], [1.0, 2.0**-20], [2.0, 2.0**-19], [1.0, 1.0])])
        with pytest.raises(wg.NotRiesz, match=r"dual point 1 is singular \(min eigenvalue 9\.095e-13\)"):
            wg.riesz_bounds(X, TOL)
        with pytest.raises(wg.NotRiesz, match=r"dual point 2 is singular \(min eigenvalue 3\.638e-12\)"):
            wg.riesz_bounds(X, 2 * TOL)
        assert wg.riesz_bounds(X, BELOW).lower == TOL

    def test_scaled_cutoff(self):
        # largest eigenvalue 4: the cutoff is 4 TOL
        X = diagonal([2.0**-19] * 4, large=2.0)
        with pytest.raises(wg.NotRiesz):
            wg.riesz_bounds(X, TOL)
        assert wg.riesz_bounds(X, BELOW).lower == 4 * TOL

    def test_frame_bounds(self):
        X = diagonal([2.0**-20] * 4)
        assert wg.frame_bounds(X, TOL) == wg.Bounds(1.0, 1.0, exact=False)
        assert wg.frame_bounds(X, BELOW) == wg.Bounds(TOL, 1.0, exact=False)
        jump = diagonal([2.0**-20, 2.0**-20, 2.0**-19, 2.0**-20])
        with pytest.raises(wg.RankJump, match="1..2"):
            wg.frame_bounds(jump, TOL)
        assert wg.frame_bounds(jump, BELOW) == wg.Bounds(TOL, 1.0, exact=False)

    def test_verify_wandering_complete(self):
        assert not wg.verify_wandering(diagonal([2.0**-20] * 4), tol_rank=TOL).complete
        assert wg.verify_wandering(diagonal([2.0**-20] * 4), tol_rank=BELOW).complete


class TestPairingAndKernel:
    def test_dual_family_first_singular_point(self):
        # the pairing at point p is the 1x1 matrix [a_p]: cutoff TOL
        gamma = sampled([[[a], [1.0]] for a in (ABOVE, TOL, TOL, ABOVE)])
        w0_tilde = sampled([[[1.0], [0.0]]] * 4)
        with pytest.raises(wg.SingularPairing, match="dual point 1$"):
            dual_family(gamma, w0_tilde, TOL)
        dual = dual_family(gamma, w0_tilde, BELOW)
        np.testing.assert_allclose(np.abs(dual.fibers[:, 0, 0]), 1 / np.array([ABOVE, TOL, TOL, ABOVE]), rtol=1e-15)

    def test_intertwiner_basis(self):
        # on Z2, rho = 1 and sigma(1) = 1 - TOL: the one equation is TOL * T = 0
        group = na.cyclic_group(2)
        rho = na.Representation(group, np.ones((2, 1, 1)))
        sigma = na.Representation(group, np.array([[[1.0]], [[1.0 - TOL]]]))
        assert len(na.intertwiner_basis(rho, sigma, TOL)) == 1
        with pytest.raises(ValueError, match="dimension 0 != character prediction 1"):
            na.intertwiner_basis(rho, sigma, BELOW)


def scale_floors(path: pathlib.Path) -> list[int]:
    """Lines where a product has a max(..., 1.0) or np.maximum(..., 1.0) factor:
    a hand-written rank or singularity cutoff."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            continue
        for call in (n for side in (node.left, node.right) for n in ast.walk(side)):
            if not isinstance(call, ast.Call) or len(call.args) != 2:
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            floor = call.args[1]
            if name in ("max", "maximum") and isinstance(floor, ast.Constant) and floor.value == 1:
                lines.add(call.lineno)
    return sorted(lines)


def test_scale_floor_finder_sees_both_spellings(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "a = rel * max(s[0], 1.0)\nb = rel * np.maximum(s[:, 0], 1)[:, None]\nc = np.maximum(x, 0) * 2\n",
        encoding="utf-8",
    )
    assert scale_floors(path) == [1, 2]


def test_no_module_writes_its_own_cutoff():
    # oracle.py is the independent reference and keeps its own copies
    modules = sorted(set(SRC.rglob("*.py")) - {SRC / "_linalg.py", SRC / "oracle.py"})
    assert len(modules) >= 8
    offenders = {m.name: scale_floors(m) for m in modules if scale_floors(m)}
    assert offenders == {}


def ranked_concatenations(path: pathlib.Path) -> list[str]:
    """Functions that pass a concatenation straight to ``matrix_rank``: a
    joint stack factored for a rank decision alone."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "matrix_rank":
                if any(getattr(n.func, "attr", None) == "concatenate" for n in ast.walk(call.args[0]) if isinstance(n, ast.Call)):
                    found.append(func.name)
    return found


def test_two_subspace_decisions_factor_no_joint_stack():
    # containment and direct sums read the holders' cached factors; the
    # projection pair's three-block test is the one joint rank left
    found = {m.name: ranked_concatenations(m) for m in (SRC / "fibers.py", SRC / "oblique.py")}
    assert found == {"fibers.py": [], "oblique.py": ["restricted_projection_pair"]}

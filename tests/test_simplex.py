"""Simplex core cross-checked against scipy.optimize.linprog, and bit for
bit against the scalar Bland loop it vectorises (oracles.bland_reference)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import bland_reference
from stochprobe import lp, simplex
from stochprobe.constraints import GraphicMatroid, PartitionMatroid, UniformMatroid
from stochprobe.instance import make_instance
from stochprobe.simplex import SimplexError, maximize


def scipy_max(c, a, b):
    res = linprog(-np.asarray(c), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def random_lps():
    rng = np.random.default_rng(12345)
    for trial in range(60):
        n = rng.integers(1, 7)
        m = rng.integers(1, 10)
        c = rng.uniform(-1, 2, n)
        a = rng.uniform(-0.5, 1.5, (m, n))
        b = rng.uniform(0, 3, m)
        # keep it bounded with a box
        a = np.vstack([a, np.eye(n)])
        b = np.concatenate([b, np.full(n, 5.0)])
        yield c, a, b


def sparse_degenerate_lps():
    rng = np.random.default_rng(999)
    for trial in range(40):
        n = rng.integers(2, 6)
        m = rng.integers(2, 8)
        c = np.round(rng.uniform(0, 2, n), 1)
        a = np.round(rng.uniform(0, 1, (m, n)) * (rng.random((m, n)) < 0.6), 1)
        b = np.round(rng.uniform(0, 1, m), 1)
        a = np.vstack([a, np.eye(n)])
        b = np.concatenate([b, np.ones(n)])
        yield c, a, b


def test_small_known_lp():
    # max x + y st x <= 1, y <= 2, x + y <= 2.5
    res = maximize([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 2, 2.5])
    assert res.objective == pytest.approx(2.5)


def test_degenerate_rhs_zero_terminates():
    # chain constraints with zero right-hand sides exercise Bland's rule
    c = [0, 0, 1]
    a = [[1, -1, 0], [0, 1, -1], [0, 0, 1]]
    b = [0, 0, 1]
    res = maximize(c, a, b)
    assert res.objective == pytest.approx(1.0)


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        maximize([1, 0], [[0, 1]], [1])


def test_negative_objective_coefficients():
    res = maximize([-1, 2], [[1, 1]], [1])
    assert res.objective == pytest.approx(2.0)
    assert res.x[0] == pytest.approx(0.0)


def test_random_lps_match_scipy():
    for c, a, b in random_lps():
        res = maximize(c, a, b)
        assert res.objective == pytest.approx(scipy_max(c, a, b), abs=1e-7)
        # returned point is feasible
        assert np.all(a @ res.x <= b + 1e-7)
        assert np.all(res.x >= -1e-12)


def test_sparse_degenerate_random_lps_match_scipy():
    for c, a, b in sparse_degenerate_lps():
        res = maximize(c, a, b)
        assert res.objective == pytest.approx(scipy_max(c, a, b), abs=1e-7)


# ---------------------------------------------------------------------------
# the vectorised pivots against the scalar Bland loop
# ---------------------------------------------------------------------------


def assert_matches_reference(c, a, b):
    res = maximize(c, a, b)
    x, objective, iterations = bland_reference(c, a, b)
    assert res.x.tobytes() == x.tobytes()
    assert res.objective == objective
    assert res.iterations == iterations


@pytest.mark.parametrize("family", [random_lps, sparse_degenerate_lps])
def test_random_lps_match_scalar_reference(family):
    for c, a, b in family():
        assert_matches_reference(c, a, b)


def test_beale_lp_matches_scalar_reference():
    # Beale's example: the textbook largest-coefficient rule cycles on it
    c = [0.75, -20.0, 0.5, -6.0]
    a = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    assert maximize(c, a, b).objective == pytest.approx(scipy_max(c, a, b), abs=1e-9)
    assert_matches_reference(c, a, b)


def _partition_instance(n):
    rng = np.random.default_rng(20130225)
    parts = tuple(tuple(range(i, i + 3)) for i in range(0, n, 3))
    inner = PartitionMatroid(n, parts, (1,) * len(parts))
    return make_instance(
        np.round(rng.uniform(0.1, 3.0, n), 3),
        np.round(rng.uniform(0.4, 1.0, n), 3),
        inner,
        UniformMatroid(n, n),
    )


def _graphic_instance(n):
    rng = np.random.default_rng(20130226)
    vertices = n // 3
    edges = []
    for e in range(n):
        u = e % vertices
        edges.append((u, (u + 1 + int(rng.integers(0, vertices - 1))) % vertices))
    inner = GraphicMatroid(n, vertex_count=vertices, edges=tuple(edges))
    return make_instance(
        np.round(rng.uniform(0.1, 3.0, n), 3),
        np.round(rng.uniform(0.4, 1.0, n), 3),
        inner,
        UniformMatroid(n, n),
    )


@pytest.fixture(scope="module")
def cut_generation_lps():
    """Every (c, A, b) the cut loop hands the simplex on a partition matroid
    (n = 60, parts of 3) and a graphic matroid (n = 36)."""
    seen = []
    solve = simplex.maximize

    def capture(c, a_ub, b_ub, *args, **kwargs):
        seen.append((np.array(c), np.array(a_ub), np.array(b_ub)))
        return solve(c, a_ub, b_ub, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "maximize", capture)
        lp.solve_probing_lp(_partition_instance(60))
        lp.solve_probing_lp(_graphic_instance(36))
    return seen


def test_cut_generation_lps_match_scalar_reference(cut_generation_lps):
    assert len(cut_generation_lps) > 2
    for c, a, b in cut_generation_lps:
        assert_matches_reference(c, a, b)


def test_unbounded_raises_like_reference():
    with pytest.raises(SimplexError, match="unbounded"):
        maximize([1, 0], [[0, 1]], [1])
    with pytest.raises(RuntimeError, match="unbounded"):
        bland_reference([1, 0], [[0, 1]], [1])


def test_iteration_limit_raises_like_reference():
    c, a, b = next(lp for lp in random_lps() if maximize(*lp).iterations >= 2)
    needed = maximize(c, a, b).iterations
    assert maximize(c, a, b, max_iterations=needed).iterations == needed
    assert bland_reference(c, a, b, max_iterations=needed)[2] == needed
    with pytest.raises(SimplexError, match=f"iteration limit {needed - 1} exceeded"):
        maximize(c, a, b, max_iterations=needed - 1)
    with pytest.raises(RuntimeError, match=f"iteration limit {needed - 1} exceeded"):
        bland_reference(c, a, b, max_iterations=needed - 1)

"""Fixture corpus: generators, shipped fractional solutions, blocking math."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stochprobe.constraints import ConstraintError
from stochprobe.fixtures import (
    direct_edge_unblocked_probability,
    load_appendix_fixtures,
    probability_ordering_fixture,
    product_ordering_fixture,
    random_instance,
    random_matroid,
    spm_matching_fixture,
    spm_uniform_fixture,
    weight_ordering_fixture,
)
from stochprobe.lp import solve_probing_lp


def test_random_instance_is_reproducible():
    a = random_instance(99, n=6, weighted=True, with_deadlines=True)
    b = random_instance(99, n=6, weighted=True, with_deadlines=True)
    assert a == b


@pytest.mark.parametrize(
    "kind,least", [("uniform", 1), ("partition", 2), ("laminar", 2), ("graphic", 0)]
)
def test_random_matroid_names_its_least_size(kind, least):
    for n in range(least):
        rng = np.random.default_rng(n)
        with pytest.raises(ConstraintError) as err:
            random_matroid(rng, n, kinds=(kind,))
        assert str(err.value) == f"a random {kind} matroid needs n >= {least}, got {n}"
        # it fails right after drawing the kind, before any draw of its own
        after_kind = np.random.default_rng(n)
        after_kind.choice((kind,))
        assert rng.bit_generator.state == after_kind.bit_generator.state
    for n in range(least, least + 3):
        system = random_matroid(np.random.default_rng(n), n, kinds=(kind,))
        assert system.universe_size == n
        assert all(system.is_independent({e}) for e in range(n))


def test_random_systems_are_loop_free():
    for seed in range(30):
        inst = random_instance(seed, n=5)
        for e in range(5):
            assert inst.inner.is_independent({e})
            assert inst.outer.is_independent({e})


def test_appendix_fixture_shapes():
    g1, g2, h = load_appendix_fixtures(n=4)
    assert g1.instance.n == g2.instance.n == 9
    assert h.instance.n == 8 + 16
    for fix in (g1, g2, h):
        assert fix.order == tuple(range(fix.instance.n))
        assert len(fix.y) == fix.instance.n


def test_baseline_orders_follow_their_sort_keys():
    g1, g2, h = load_appendix_fixtures(n=4)
    w = g1.instance.weights()
    assert all(w[a] >= w[b] for a, b in zip(g1.order, g1.order[1:]))
    p = g2.instance.probabilities()
    assert all(p[a] >= p[b] for a, b in zip(g2.order, g2.order[1:]))
    wp = h.instance.weights() * h.instance.probabilities()
    assert all(wp[a] >= wp[b] + -1e-12 for a, b in zip(h.order, h.order[1:]))


@pytest.mark.parametrize("builder", [weight_ordering_fixture, probability_ordering_fixture])
def test_shipped_solution_is_feasible_and_optimal_small_g(builder):
    fix = builder(3)
    inst = fix.instance
    x = np.array(fix.x)
    y = np.array(fix.y)
    assert inst.inner.separate(x) is None
    assert inst.outer.separate(y) is None
    assert solve_probing_lp(inst).objective == pytest.approx(fix.objective, abs=1e-8)


def test_shipped_solution_is_feasible_and_optimal_small_h():
    fix = product_ordering_fixture(2)
    inst = fix.instance
    assert inst.n == 8
    assert inst.inner.separate(np.array(fix.x)) is None
    assert inst.outer.separate(np.array(fix.y)) is None
    # all-ones y is box-maximal and inside both polytopes, so it is optimal
    assert solve_probing_lp(inst).objective == pytest.approx(fix.objective, abs=1e-8)
    assert fix.objective == pytest.approx(4.0 * 2 / 3.0 + 4.0 / 3.0)


def test_direct_edge_blocking_probability_closed_form():
    n, b = 5, 0.5
    fix = weight_ordering_fixture(n)
    outer = fix.instance.outer
    direct = 2 * n
    coin = b * fix.y[0]
    total_unblocked = 0.0
    for pattern in itertools.product([False, True], repeat=2 * n):
        weight = 1.0
        for included in pattern:
            weight *= coin if included else 1.0 - coin
        checker = outer.checker()
        for e in range(direct):
            if pattern[e] and checker.can_add(e):
                checker.add(e)
        if checker.can_add(direct):
            total_unblocked += weight
    closed = direct_edge_unblocked_probability(n, b)
    assert total_unblocked == pytest.approx(closed, abs=1e-12)
    assert closed == pytest.approx((1 - 1 / 16) ** 5, abs=1e-12)
    assert closed == pytest.approx(0.7242, abs=5e-4)


def test_weight_ordering_fixture_objective_form():
    fix = weight_ordering_fixture(10)
    # direct edge worth 1 plus n paths at weight*prob*y = 100 * (1e-4/10) * 1/2 * 2n
    assert fix.objective == pytest.approx(1.0 + 10 * 100.0 * 1e-5)
    assert fix.instance.n == 21


def test_probability_ordering_fixture_objective_form():
    fix = probability_ordering_fixture(10)
    assert fix.objective == pytest.approx(500.0 / 2 + 10)


def test_spm_uniform_fixture_shape():
    spec = spm_uniform_fixture(0, agents=4, max_value=4, rank=2)
    assert spec.n == 4 and spec.B == 4
    assert spec.feasibility.k_parameter() == 1
    assert spec == spm_uniform_fixture(0, agents=4, max_value=4, rank=2)
    for i in range(4):
        assert sum(spec.distributions[i]) == pytest.approx(1.0, abs=1e-12)
        assert min(spec.distributions[i]) > 0.0


def test_spm_matching_fixture_is_a_two_system():
    spec = spm_matching_fixture(1, left=2, right=3, max_value=3)
    assert spec.n == 6
    assert spec.feasibility.k_parameter() == 2
    # a matching: two agents sharing a row or column conflict
    assert spec.feasibility.is_independent({0, 4})
    assert not spec.feasibility.is_independent({0, 1})
    assert not spec.feasibility.is_independent({0, 3})

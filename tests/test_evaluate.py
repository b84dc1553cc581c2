"""Simulation, exact permutation evaluation, and the adaptive optimum."""

from __future__ import annotations

import numpy as np
import pytest

from stochprobe.constraints import CapabilityError, ConstraintError, UniformMatroid
from stochprobe.evaluate import (
    Z99,
    PolicyValueReport,
    optimal_adaptive,
    permutation_policy,
    simulate,
)
from stochprobe.fixtures import random_instance
from stochprobe.greedy import exact_greedy_value, greedy_order, run_greedy
from stochprobe.instance import make_instance

from oracles import exact_nonadaptive_value, optimal_adaptive_reference


def two_element_fixture():
    return make_instance([1, 1], [0.9, 0.5], UniformMatroid(2, 1), UniformMatroid(2, 2))


def greedy_policy(instance, rng):
    return run_greedy(instance, rng).realized_value(instance.weights())


def test_simulate_zero_variance_when_deterministic():
    inst = make_instance(
        [2, 3], [1.0, 1.0], UniformMatroid(2, 2), UniformMatroid(2, 2)
    )
    report = simulate(greedy_policy, inst, trials=50, seed=0)
    assert report.mean == pytest.approx(5.0)
    assert report.radius == 0.0
    assert report.method == "monte_carlo"


def test_report_from_samples():
    single = PolicyValueReport.from_samples(np.array([4.0]))
    assert (single.mean, single.radius, single.trials) == (4.0, 0.0, 1)
    values = np.array([1.0, 2.0, 4.0, 7.0])
    report = PolicyValueReport.from_samples(values)
    assert report.mean == 3.5
    assert report.radius == pytest.approx(Z99 * np.std(values, ddof=1) / 2.0)
    assert report.method == "monte_carlo"


def test_simulate_bernoulli_mean():
    inst = make_instance([2], [0.5], UniformMatroid(1, 1), UniformMatroid(1, 1))
    report = simulate(permutation_policy([0]), inst, trials=4000, seed=11)
    assert abs(report.mean - 1.0) <= report.radius


def test_simulate_greedy_two_element_fixture():
    report = simulate(greedy_policy, two_element_fixture(), trials=4000, seed=5)
    assert abs(report.mean - 0.95) <= report.radius


def test_simulate_is_deterministic_in_seed_and_trials():
    inst = two_element_fixture()
    a = simulate(greedy_policy, inst, trials=300, seed=42)
    b = simulate(greedy_policy, inst, trials=300, seed=42)
    assert a == b
    c = simulate(greedy_policy, inst, trials=300, seed=43)
    assert a.mean != c.mean


def test_exact_value_empty_instance():
    inst = make_instance([], [], UniformMatroid(0, 0), UniformMatroid(0, 0))
    assert exact_nonadaptive_value([], inst) == 0.0


def test_exact_value_single_element():
    inst = make_instance([10], [0.3], UniformMatroid(1, 1), UniformMatroid(1, 1))
    assert exact_nonadaptive_value([0], inst) == pytest.approx(3.0)


def test_exact_value_matches_greedy_enumeration():
    inst = two_element_fixture()
    assert exact_nonadaptive_value(greedy_order(inst), inst) == pytest.approx(0.95)


@pytest.mark.parametrize("seed", range(6))
def test_exact_value_agrees_with_path_enumeration(seed):
    inst = random_instance(seed, n=7, weighted=True)
    value = exact_nonadaptive_value(greedy_order(inst), inst)
    assert value == pytest.approx(exact_greedy_value(inst), abs=1e-12)


def test_exact_value_with_coin_single_element():
    inst = make_instance([3], [1.0], UniformMatroid(1, 1), UniformMatroid(1, 1))
    assert exact_nonadaptive_value([0], inst, [0.5]) == pytest.approx(1.5)


def _brute_coin_value(order, instance, coins):
    probs = instance.probabilities()
    weights = instance.weights()

    def rec(i, q, s):
        if i == len(order):
            return 0.0
        e = order[i]
        skip = rec(i + 1, q, s)
        if not (
            instance.outer.is_independent(q | {e})
            and instance.inner.is_independent(s | {e})
        ):
            return skip
        probe = probs[e] * (weights[e] + rec(i + 1, q | {e}, s | {e}))
        probe += (1 - probs[e]) * rec(i + 1, q | {e}, s)
        return coins[e] * probe + (1 - coins[e]) * skip

    return rec(0, frozenset(), frozenset())


@pytest.mark.parametrize("seed", range(5))
def test_exact_coin_value_matches_brute_recursion(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n=5, weighted=True)
    coins = [float(c) for c in rng.uniform(0, 1, size=5)]
    order = [int(e) for e in rng.permutation(5)]
    value = exact_nonadaptive_value(order, inst, coins)
    assert value == pytest.approx(_brute_coin_value(order, inst, coins), abs=1e-12)


def test_simulated_coin_policy_matches_exact():
    inst = random_instance(3, n=6, weighted=True)
    coins = [0.4] * 6
    order = list(range(6))
    exact = exact_nonadaptive_value(order, inst, coins)
    report = simulate(permutation_policy(order, coins), inst, trials=6000, seed=9)
    assert abs(report.mean - exact) <= 4 * report.radius


def test_order_must_be_permutation():
    inst = two_element_fixture()
    with pytest.raises(ConstraintError):
        exact_nonadaptive_value([0, 0], inst)


NAN = float("nan")


@pytest.mark.parametrize(
    "order, coins, message",
    [
        # on uniform rank-2 systems with weights (1, 2) and p = 1, these
        # scored 2.0 by choosing 0 twice, probed element 1, and admitted 0
        ([0, 0], None, "distinct non-negative"),
        ([-1], None, "distinct non-negative"),
        ([0, 1], [NAN, 1.0], "finite"),
        ([0, 1], [float("inf"), 1.0], "finite"),
        ([0, 1], [1.0, 1.5], "lie in"),
        ([0, 1], [-0.25, 1.0], "lie in"),
        # these ended in an IndexError inside simulate
        ([0, 1], [0.5], "cover 1 elements, the order needs 2"),
        ([3], [1.0, 1.0, 1.0], "cover 3 elements, the order needs 4"),
    ],
)
def test_permutation_policy_rejects_bad_inputs_when_built(order, coins, message):
    with pytest.raises(ConstraintError, match=message):
        permutation_policy(order, coins)
    permutation_policy([1, 0], [0.0, 1.0])  # the ends of [0, 1] are coins too


@pytest.mark.parametrize("coins", [None, [1.0] * 6])
def test_permutation_policy_rejects_elements_outside_the_universe(coins):
    policy = permutation_policy([1, 5], coins)
    with pytest.raises(ConstraintError, match="order element 5 outside universe of size 2"):
        simulate(policy, two_element_fixture(), 3, 0)
    # an order inside the universe may skip elements, and may be empty
    assert simulate(permutation_policy([1], coins), two_element_fixture(), 3, 0).trials == 3
    assert simulate(permutation_policy([]), two_element_fixture(), 3, 0).mean == 0.0


def test_optimal_adaptive_examples():
    single = make_instance([1], [0.5], UniformMatroid(1, 1), UniformMatroid(1, 1))
    assert optimal_adaptive(single) == pytest.approx(0.5)
    assert optimal_adaptive(two_element_fixture()) == pytest.approx(0.95)


@pytest.mark.parametrize("seed", range(8))
def test_optimum_dominates_permutation_policies(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n=6, weighted=True)
    opt = optimal_adaptive(inst)
    assert opt >= exact_nonadaptive_value(greedy_order(inst), inst) - 1e-9
    order = [int(e) for e in rng.permutation(6)]
    assert opt >= exact_nonadaptive_value(order, inst) - 1e-9


def _adaptive_draw(i):
    """Draw i of the level-DP check: n = i mod 11, deadlines on in alternate
    blocks of four draws, one or two members per side, and on every third
    draw one element with p = 0 and one with p = 1."""
    rng = np.random.default_rng((11, i))
    n = i % 11
    # below two elements only graphic draws are defined
    kinds = {} if n >= 2 else {"inner_kinds": ("graphic",), "outer_kinds": ("graphic",)}
    inst = random_instance(
        rng, n, inner_members=1 + i % 2, outer_members=1 + (i // 2) % 2,
        weighted=i % 3 != 0, with_deadlines=(i // 4) % 2 == 1, **kinds,
    )
    if i % 3 != 2 or n == 0:
        return inst
    probs = inst.probabilities().copy()
    probs[rng.integers(n)] = 0.0
    probs[rng.integers(n)] = 1.0
    deadlines = list(inst.deadlines()) if inst.has_deadlines() else None
    return make_instance(inst.weights(), probs, inst.inner, inst.outer, deadlines)


def test_optimal_adaptive_keeps_the_recursion_bits():
    draws = [_adaptive_draw(i) for i in range(132)]
    assert {inst.n for inst in draws} == set(range(11))
    assert any(inst.has_deadlines() for inst in draws)
    assert any(0.0 in inst.probabilities() for inst in draws)
    assert any(1.0 in inst.probabilities() for inst in draws)
    for i, inst in enumerate(draws):
        assert optimal_adaptive(inst).hex() == optimal_adaptive_reference(inst).hex(), i


def test_optimal_adaptive_with_nothing_probeable():
    inst = make_instance([1, 2, 3], [0.5, 0.5, 0.5], UniformMatroid(3, 3), UniformMatroid(3, 0))
    assert optimal_adaptive(inst) == 0.0
    assert optimal_adaptive(inst).hex() == optimal_adaptive_reference(inst).hex()


def test_optimal_adaptive_loose_twelve_elements():
    rng = np.random.default_rng(12)
    weights = np.round(rng.uniform(0.1, 3.0, size=12), 3)
    probs = np.round(rng.uniform(0.05, 1.0, size=12), 3)
    inst = make_instance(weights, probs, UniformMatroid(12, 4), UniformMatroid(12, 12))
    assert optimal_adaptive(inst).hex() == optimal_adaptive_reference(inst).hex()


def test_capability_limits():
    big = random_instance(0, n=13, weighted=True)
    with pytest.raises(CapabilityError) as err:
        optimal_adaptive(big)
    assert str(err.value) == "adaptive optimum capped at 12 elements here"
    deadline = random_instance(1, n=11, weighted=False, with_deadlines=True)
    with pytest.raises(CapabilityError) as err:
        optimal_adaptive(deadline)
    assert str(err.value) == "adaptive optimum capped at 10 elements here"
    wide = random_instance(2, n=16, weighted=True)
    with pytest.raises(CapabilityError):
        exact_nonadaptive_value(list(range(16)), wide)
    with pytest.raises(CapabilityError):
        exact_nonadaptive_value(list(range(13)), random_instance(3, n=13), [0.5] * 13)


def test_optimal_adaptive_needs_every_deadline_or_none():
    base = random_instance(4, n=5, weighted=True)
    for deadlines in ([2, None, None, None, None], [None, 1, 3, 3, 5]):
        partial = make_instance(
            base.weights(), base.probabilities(), base.inner, base.outer, deadlines
        )
        with pytest.raises(ConstraintError, match="all elements need deadlines"):
            optimal_adaptive(partial)
    full = make_instance(
        base.weights(), base.probabilities(), base.inner, base.outer, [2, 1, 3, 3, 5]
    )
    assert optimal_adaptive(full).hex() == optimal_adaptive_reference(full).hex()


def test_trials_must_be_positive():
    with pytest.raises(ConstraintError):
        simulate(greedy_policy, two_element_fixture(), trials=0, seed=0)

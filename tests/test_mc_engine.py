"""The Monte Carlo engine against the per-trial loops it replaced.

Every estimator report must equal, with == and as pickled bytes, the report
of the loop kept in oracles.py, at 1, 2 and 300 trials: the engine moves
where the trial streams are made, not which numbers they give.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from oracles import (
    estimate_policy_value_reference,
    evaluate_spm_reference,
    run_greedy_deadline_reference,
    run_greedy_reference,
    simulate_reference,
    verify_monotonicity_reference,
    verify_scheme_reference,
)
from stochprobe.auction import build_spm, evaluate_spm, solve_lp_p
from stochprobe.constraints import ConstraintError, PartitionMatroid
from stochprobe.crschemes import CrSchemeSpec, verify_monotonicity, verify_scheme
from stochprobe.evaluate import (
    Z99,
    binomial_radius,
    monte_carlo,
    permutation_policy,
    simulate,
    trial_rngs,
)
from stochprobe.fixtures import (
    random_instance,
    random_system,
    spm_matching_fixture,
    spm_uniform_fixture,
)
from stochprobe.greedy import greedy_order, run_greedy, run_greedy_deadline
from stochprobe.instance import make_instance
from stochprobe.lp import solve_probing_lp
from stochprobe.rounding import RoundingConfig, default_config, estimate_policy_value

TRIALS = (1, 2, 300)
KINDS = ("partition", "laminar", "graphic", "intersection")
ORDERS = ("by-index", "by-weight-desc", "random")


def assert_same(new, old):
    assert new == old
    assert pickle.dumps(new) == pickle.dumps(old)


def instance_of(kind: str, seed: int, n: int = 8, with_deadlines: bool = False):
    if kind == "intersection":
        return random_instance(
            seed, n, inner_members=2, outer_members=2, with_deadlines=with_deadlines
        )
    return random_instance(
        seed, n, inner_kinds=(kind,), outer_kinds=(kind,), with_deadlines=with_deadlines
    )


def system_of(kind: str, seed: int, n: int = 8):
    rng = np.random.default_rng(seed)
    if kind == "intersection":
        return random_system(rng, n, members=2)
    return random_system(rng, n, kinds=(kind,))


def caps_one_instance(seed: int):
    """Outer partition with unit capacities, so random choice can resolve it."""
    base = random_instance(seed, 8)
    outer = PartitionMatroid(8, parts=((0, 3, 5), (1, 2), (4, 6, 7)), capacities=(1, 1, 1))
    return make_instance(base.weights(), base.probabilities(), base.inner, outer)


# ---------------------------------------------------------------------------
# the engine itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trials", [0, -3])
def test_trial_rngs_rejects_counts_below_one_before_iterating(trials):
    with pytest.raises(ConstraintError, match="trials must be at least 1"):
        trial_rngs(0, trials)


def test_trial_rngs_are_the_per_trial_streams():
    for t, rng in enumerate(trial_rngs(11, 5)):
        expected = np.random.default_rng((11, t)).random(4)
        assert rng.random(4).tobytes() == expected.tobytes()
    assert len(list(trial_rngs(11, 5))) == 5


def test_monte_carlo_reports_the_draws():
    report = monte_carlo(lambda rng: rng.random(), trials=50, seed=3)
    values = np.array([np.random.default_rng((3, t)).random() for t in range(50)])
    assert report.mean == float(values.mean())
    assert report.radius == float(Z99 * values.std(ddof=1) / np.sqrt(50))
    assert (report.trials, report.method) == (50, "monte_carlo")
    with pytest.raises(ConstraintError):
        monte_carlo(lambda rng: 0.0, trials=0, seed=3)


def test_max_of_binomial_radii_is_radius_of_max_variance():
    grid = [h / 17 for h in range(18)] + [0.5, 1e-9, 1 - 1e-9]
    for n in (1, 2, 7, 300, 10_000):
        for p1 in grid:
            for p2 in grid:
                old = Z99 * math.sqrt(max(p1 * (1 - p1), p2 * (1 - p2)) / n)
                assert max(binomial_radius(p1, n), binomial_radius(p2, n)) == old


# ---------------------------------------------------------------------------
# the five estimators against the loops they replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("kind", KINDS)
def test_simulate_greedy_matches_loop(kind, trials):
    instance = instance_of(kind, seed=10)
    weights = instance.weights()
    policy = lambda inst, rng: run_greedy(inst, rng).realized_value(weights)
    assert_same(
        simulate(policy, instance, trials, seed=4),
        simulate_reference(policy, instance, trials, seed=4),
    )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("kind", KINDS)
def test_simulate_deadline_and_coin_policies_match_loop(kind, trials):
    instance = instance_of(kind, seed=20, with_deadlines=True)
    weights = instance.weights()
    policies = (
        lambda inst, rng: run_greedy_deadline(inst, rng).realized_value(weights),
        permutation_policy(greedy_order(instance), [0.7] * instance.n),
    )
    for policy in policies:
        assert_same(
            simulate(policy, instance, trials, seed=8),
            simulate_reference(policy, instance, trials, seed=8),
        )


def rounding_configs(b: float):
    for outer_order in ORDERS:
        for inner_order in ORDERS:
            yield RoundingConfig(
                b=b,
                outer_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy=outer_order),
                inner_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy=inner_order),
            )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("kind", KINDS)
def test_estimate_policy_value_matches_loop(kind, trials):
    instance = instance_of(kind, seed=30)
    solution = solve_probing_lp(instance)
    configs = [default_config(instance)] + list(rounding_configs(0.3))
    for config in configs:
        assert_same(
            estimate_policy_value(instance, config, trials, 6, solution=solution),
            estimate_policy_value_reference(instance, config, trials, 6, solution=solution),
        )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("inner_order", ORDERS)
def test_estimate_policy_value_random_choice_matches_loop(inner_order, trials):
    instance = caps_one_instance(seed=31)
    config = RoundingConfig(
        b=0.4,
        outer_scheme=CrSchemeSpec("partition_random_choice", 0.4),
        inner_scheme=CrSchemeSpec("ordered_ksystem", 0.4, order_policy=inner_order),
    )
    assert_same(
        estimate_policy_value(instance, config, trials, 2),
        estimate_policy_value_reference(instance, config, trials, 2),
    )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("kind", KINDS)
def test_verify_scheme_matches_loop(kind, trials):
    instance = instance_of(kind, seed=40)
    solution = solve_probing_lp(instance)
    weights = instance.weights()
    sides = ((instance.outer, solution.y), (instance.inner, solution.x))
    for system, z in sides:
        b = 0.9 / system.k_parameter()
        for order in ORDERS:
            spec = CrSchemeSpec("ordered_ksystem", b, order_policy=order)
            assert_same(
                verify_scheme(spec, system, z, trials, 5, weights=weights),
                verify_scheme_reference(spec, system, z, trials, 5, weights=weights),
            )


@pytest.mark.parametrize("trials", TRIALS)
def test_verify_scheme_random_choice_matches_loop(trials):
    system = caps_one_instance(seed=0).outer
    z = [0.5, 0.6, 0.4, 0.2, 0.3, 0.3, 0.3, 0.3]
    spec = CrSchemeSpec("partition_random_choice", 0.8)
    assert_same(
        verify_scheme(spec, system, z, trials, 9),
        verify_scheme_reference(spec, system, z, trials, 9),
    )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("kind", KINDS)
def test_verify_monotonicity_matches_loop(kind, trials):
    system = system_of(kind, seed=50)
    weights = np.random.default_rng(51).uniform(0.1, 3.0, size=system.universe_size)
    small, big = {0, 2}, {0, 1, 2, 3, 5}
    for order in ORDERS:
        spec = CrSchemeSpec("ordered_ksystem", 0.2, order_policy=order)
        for e in small:
            args = (spec, system, small, big, e, trials, 3, weights)
            assert_same(verify_monotonicity(*args), verify_monotonicity_reference(*args))


def test_verify_monotonicity_random_choice_matches_loop():
    system = caps_one_instance(seed=0).outer
    spec = CrSchemeSpec("partition_random_choice", 0.2)
    for small, big, e in (({0}, {0, 3}, 0), ({1, 4}, {1, 2, 4, 6}, 4)):
        assert_same(
            verify_monotonicity(spec, system, small, big, e),
            verify_monotonicity_reference(spec, system, small, big, e),
        )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("fixture", [spm_uniform_fixture, spm_matching_fixture])
def test_evaluate_spm_matches_loop(fixture, trials):
    spec = fixture(seed=3)
    solution = solve_lp_p(spec)
    for draw in range(3):
        mechanism = build_spm(spec, seed=draw, solution=solution)
        for mode in ("monte_carlo", "exact"):
            assert_same(
                evaluate_spm(mechanism, spec, mode=mode, trials=trials, seed=7),
                evaluate_spm_reference(mechanism, spec, mode=mode, trials=trials, seed=7),
            )


# ---------------------------------------------------------------------------
# the merged greedy scan against the two scans it replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_greedy_scans_match_separate_scans(kind):
    for seed in range(6):
        instance = instance_of(kind, seed=60 + seed, with_deadlines=True)
        flags = [bool(v) for v in np.random.default_rng(seed).random(instance.n) < 0.5]
        cases = (
            (run_greedy, run_greedy_reference),
            (run_greedy_deadline, run_greedy_deadline_reference),
        )
        for run, reference in cases:
            assert_same(run(instance, flags), reference(instance, flags))
            assert_same(
                run(instance, np.random.default_rng((seed, 1))),
                reference(instance, np.random.default_rng((seed, 1))),
            )


def test_greedy_deadline_scan_still_needs_deadlines():
    instance = instance_of("graphic", seed=70)
    with pytest.raises(ConstraintError):
        run_greedy_deadline(instance, [True] * instance.n)
    with pytest.raises(ConstraintError):
        run_greedy_deadline_reference(instance, [True] * instance.n)

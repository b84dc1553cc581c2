"""Tests for rounding fractional solutions into non-adaptive policies."""

import numpy as np
import pytest

from stochprobe.constraints import (
    CapabilityError,
    ConstraintError,
    IntersectionSystem,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.crschemes import CrSchemeSpec
from stochprobe.evaluate import Z99
from stochprobe.fixtures import random_instance, random_matroid
from stochprobe.instance import make_instance
from stochprobe.lp import solve_probing_lp
from stochprobe.rounding import (
    EXACT_MARGINAL_LIMIT,
    NonAdaptivePolicy,
    RoundingConfig,
    default_config,
    estimate_policy_value,
    exact_chosen_marginals,
    execute,
    round_solution,
)


def ordered_config(b, seed=0):
    return RoundingConfig(
        b=b,
        outer_scheme=CrSchemeSpec("ordered_ksystem", b),
        inner_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy="by-weight-desc"),
        seed=seed,
    )


def partition_outer_config(b, seed=0):
    return RoundingConfig(
        b=b,
        outer_scheme=CrSchemeSpec("partition_random_choice", b),
        inner_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy="by-weight-desc"),
        seed=seed,
    )


def free_instance(weights, probs):
    n = len(weights)
    free = UniformMatroid(n, n)
    return make_instance(weights, probs, free, free)


class TestRoundingConfig:
    def test_inner_scheme_must_be_ordered(self):
        with pytest.raises(ConstraintError):
            RoundingConfig(
                b=0.25,
                outer_scheme=CrSchemeSpec("ordered_ksystem", 0.25),
                inner_scheme=CrSchemeSpec("partition_random_choice", 0.25),
            )

    def test_scheme_b_must_match(self):
        with pytest.raises(ConstraintError):
            RoundingConfig(
                b=0.25,
                outer_scheme=CrSchemeSpec("ordered_ksystem", 0.2),
                inner_scheme=CrSchemeSpec("ordered_ksystem", 0.25),
            )

    def test_b_range(self):
        with pytest.raises(ConstraintError):
            ordered_config(0.0)

    def test_guarantee_on_two_matroids(self):
        # b = 1/4, both schemes keep 3/4: guarantee 1/4 * (3/4 + 3/4 - 1)
        instance = free_instance([1.0, 1.0], [1.0, 1.0])
        config = ordered_config(0.25)
        assert config.guarantee(instance) == pytest.approx(0.125)

    def test_guarantee_rejects_vacuous_config(self):
        instance = free_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConstraintError):
            ordered_config(0.6).guarantee(instance)

    def test_default_config_uses_corollary_b(self):
        inner = IntersectionSystem(members=(UniformMatroid(3, 2), UniformMatroid(3, 1)))
        instance = make_instance([1.0] * 3, [1.0] * 3, inner, UniformMatroid(3, 3))
        config = default_config(instance)
        assert config.b == pytest.approx(1.0 / 6.0)
        assert config.inner_scheme.order_policy == "by-weight-desc"
        # 1/6 * (1 - 3/6) = 1/12, the 1/(4(k + l)) corollary constant
        assert config.guarantee(instance) == pytest.approx(1.0 / 12.0)


class TestRoundSolution:
    def test_all_zero_solution_gives_empty_policy(self):
        instance = free_instance([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        policy = round_solution(instance, [0.0, 0.0, 0.0], ordered_config(0.25))
        assert policy.probe_sequence == ()

    def test_certain_single_element_is_kept(self):
        # b = 1 is runnable even though no guarantee can be claimed for it
        instance = free_instance([1.0], [1.0])
        policy = round_solution(instance, [1.0], ordered_config(1.0))
        assert policy.probe_sequence == (0,)

    def test_zero_mass_elements_consume_no_randomness(self):
        instance = free_instance([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        config = ordered_config(0.5)
        probe = np.random.default_rng(5)
        draws = [probe.random() for _ in range(2)]
        y = [1.0, 0.0, 1.0]
        expected = tuple(
            e for e, r in zip((0, 2), draws) if r < 0.5
        )
        policy = round_solution(instance, y, config, np.random.default_rng(5))
        assert policy.probe_sequence == expected

    def test_sequence_is_outer_independent_and_inner_ordered(self):
        for seed in range(8):
            instance = random_instance(seed, 7, inner_members=1, outer_members=1)
            config = default_config(instance)
            solution = solve_probing_lp(instance)
            rng = np.random.default_rng(seed)
            for _ in range(5):
                policy = round_solution(instance, solution, config, rng)
                assert instance.outer.is_independent(policy.probe_sequence)
                weights = instance.weights()
                keys = [(-weights[e], e) for e in policy.probe_sequence]
                assert keys == sorted(keys)

    def test_rejects_wrong_length_solution(self):
        instance = free_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConstraintError):
            round_solution(instance, [1.0], ordered_config(0.25))

    def test_rejects_out_of_box_solution(self):
        instance = free_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConstraintError):
            round_solution(instance, [1.2, 0.0], ordered_config(0.25))


class TestExecute:
    def test_all_inactive_chooses_nothing(self):
        instance = free_instance([1.0, 1.0], [0.5, 0.5])
        policy = NonAdaptivePolicy((0, 1))
        assert execute(policy, instance, [False, False]) == frozenset()

    def test_rank_one_inner_stops_after_first_active(self):
        instance = make_instance(
            [1.0, 1.0], [1.0, 1.0], UniformMatroid(2, 1), UniformMatroid(2, 2)
        )
        policy = NonAdaptivePolicy((0, 1))
        assert execute(policy, instance, [True, True]) == frozenset({0})

    def test_inactive_probe_does_not_block(self):
        instance = make_instance(
            [1.0, 1.0], [1.0, 1.0], UniformMatroid(2, 1), UniformMatroid(2, 2)
        )
        policy = NonAdaptivePolicy((0, 1))
        assert execute(policy, instance, [False, True]) == frozenset({1})

    def test_chosen_set_is_inner_independent(self):
        for seed in range(8):
            instance = random_instance(seed, 7, inner_members=2, outer_members=1)
            config = default_config(instance)
            solution = solve_probing_lp(instance)
            rng = np.random.default_rng(seed)
            for _ in range(5):
                policy = round_solution(instance, solution, config, rng)
                chosen = execute(policy, instance, rng)
                assert instance.inner.is_independent(chosen)
                assert chosen <= set(policy.probe_sequence)


class TestEstimatePolicyValue:
    def test_deterministic_no_contention_matches_lp_exactly(self):
        weights = [2.0, 0.5, 1.25, 3.0]
        instance = free_instance(weights, [1.0] * 4)
        solution = solve_probing_lp(instance)
        assert solution.objective == pytest.approx(sum(weights))
        report = estimate_policy_value(
            instance, ordered_config(1.0), trials=40, seed=3, solution=solution
        )
        assert report.mean == pytest.approx(sum(weights), abs=1e-12)
        assert report.radius == 0.0

    def test_reports_are_deterministic(self):
        instance = random_instance(11, 6)
        config = default_config(instance)
        a = estimate_policy_value(instance, config, trials=200, seed=7)
        b = estimate_policy_value(instance, config, trials=200, seed=7)
        assert a == b
        c = estimate_policy_value(instance, config, trials=200, seed=8)
        assert c.mean != a.mean

    def test_corollary_bound_on_matroid_intersection(self):
        # inner two matroids, outer one: b = 1/6 should keep 1/12 of the LP
        rng = np.random.default_rng(21)
        inner = IntersectionSystem(
            members=(random_matroid(rng, 8), random_matroid(rng, 8))
        )
        outer = random_matroid(rng, 8)
        weights = np.round(rng.uniform(0.1, 3.0, 8), 3)
        probs = np.round(rng.uniform(0.05, 1.0, 8), 3)
        instance = make_instance(weights, probs, inner, outer)
        solution = solve_probing_lp(instance)
        config = ordered_config(1.0 / 6.0)
        assert config.guarantee(instance) == pytest.approx(1.0 / 12.0)
        report = estimate_policy_value(
            instance, config, trials=4000, seed=0, solution=solution
        )
        assert report.mean >= solution.objective / 12.0 - 3.0 * report.radius

    def test_rejects_solution_outside_relaxation(self):
        instance = make_instance(
            [1.0, 1.0], [1.0, 1.0], UniformMatroid(2, 2), UniformMatroid(2, 1)
        )
        with pytest.raises(ConstraintError):
            estimate_policy_value(
                instance, ordered_config(0.25), trials=5, seed=0, solution=[1.0, 1.0]
            )

    def test_trials_must_be_positive(self):
        instance = free_instance([1.0], [1.0])
        with pytest.raises(ConstraintError):
            estimate_policy_value(instance, ordered_config(0.25), trials=0, seed=0)


def caps_one_partition(rng, n):
    order = [int(e) for e in rng.permutation(n)]
    parts = []
    while order:
        size = min(len(order), int(rng.integers(1, 4)))
        parts.append(tuple(sorted(order[:size])))
        order = order[size:]
    return PartitionMatroid(n, tuple(parts), (1,) * len(parts))


class TestExactChosenMarginals:
    def test_independent_elements_multiply_through(self):
        instance = free_instance([1.0, 1.0], [0.5, 1.0])
        marginals = exact_chosen_marginals(
            instance, ordered_config(0.5), [1.0, 1.0]
        )
        assert marginals == pytest.approx([0.25, 0.5])

    def test_rank_one_inner_contention(self):
        instance = make_instance(
            [1.0, 1.0], [1.0, 1.0], UniformMatroid(2, 1), UniformMatroid(2, 2)
        )
        config = RoundingConfig(
            b=0.5,
            outer_scheme=CrSchemeSpec("ordered_ksystem", 0.5),
            inner_scheme=CrSchemeSpec("ordered_ksystem", 0.5),
        )
        marginals = exact_chosen_marginals(instance, config, [1.0, 1.0])
        # 1 survives only when 0 is not sampled
        assert marginals == pytest.approx([0.5, 0.25])

    def test_partition_outer_splits_contention(self):
        outer = PartitionMatroid(2, ((0, 1),), (1,))
        instance = make_instance([1.0, 1.0], [1.0, 1.0], UniformMatroid(2, 2), outer)
        marginals = exact_chosen_marginals(
            instance, partition_outer_config(0.5), [1.0, 1.0]
        )
        # alone w.p. 1/4, tied coin flip w.p. 1/4
        assert marginals == pytest.approx([0.375, 0.375])

    def test_matches_monte_carlo_frequencies(self):
        rng = np.random.default_rng(3)
        outer = caps_one_partition(rng, 6)
        inner = random_matroid(rng, 6)
        weights = np.round(rng.uniform(0.1, 3.0, 6), 3)
        probs = np.round(rng.uniform(0.05, 1.0, 6), 3)
        instance = make_instance(weights, probs, inner, outer)
        solution = solve_probing_lp(instance)
        config = partition_outer_config(0.25)
        exact = exact_chosen_marginals(instance, config, solution)
        trials = 3000
        counts = np.zeros(6)
        for t in range(trials):
            trial_rng = np.random.default_rng((9, t))
            policy = round_solution(instance, solution, config, trial_rng)
            for e in execute(policy, instance, trial_rng):
                counts[e] += 1
        freq = counts / trials
        radius = Z99 * np.sqrt(np.maximum(freq * (1 - freq), 1e-4) / trials)
        assert np.all(np.abs(freq - exact) <= 4 * radius + 0.01)

    def test_marginal_lower_bound_per_element(self):
        # exact partition scheme outside, ordered scheme inside
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 6
            outer = caps_one_partition(rng, n)
            inner = random_matroid(rng, n)
            weights = np.round(rng.uniform(0.1, 3.0, n), 3)
            probs = np.round(rng.uniform(0.05, 1.0, n), 3)
            instance = make_instance(weights, probs, inner, outer)
            solution = solve_probing_lp(instance)
            b = 0.25
            config = partition_outer_config(b)
            c_out = config.outer_scheme.target_c(outer)
            c_in = config.inner_scheme.target_c(inner)
            bound = b * (c_out + c_in - 1.0)
            assert bound > 0
            marginals = exact_chosen_marginals(instance, config, solution)
            x = instance.probabilities() * np.asarray(solution.y)
            assert np.all(marginals >= bound * x - 1e-9)

    def test_marginal_lower_bound_with_two_inner_matroids(self):
        rng = np.random.default_rng(40)
        n = 8
        outer = caps_one_partition(rng, n)
        inner = IntersectionSystem(
            members=(random_matroid(rng, n), random_matroid(rng, n))
        )
        weights = np.round(rng.uniform(0.1, 3.0, n), 3)
        probs = np.round(rng.uniform(0.05, 1.0, n), 3)
        instance = make_instance(weights, probs, inner, outer)
        solution = solve_probing_lp(instance)
        b = 1.0 / 6.0
        config = partition_outer_config(b)
        bound = b * (
            config.outer_scheme.target_c(outer)
            + config.inner_scheme.target_c(inner)
            - 1.0
        )
        marginals = exact_chosen_marginals(instance, config, solution)
        x = instance.probabilities() * np.asarray(solution.y)
        assert np.all(marginals >= bound * x - 1e-9)

    def test_size_cap(self):
        n = EXACT_MARGINAL_LIMIT + 1
        instance = free_instance([1.0] * n, [1.0] * n)
        with pytest.raises(CapabilityError):
            exact_chosen_marginals(instance, ordered_config(0.25), [1.0] * n)

    def test_random_order_refused(self):
        instance = free_instance([1.0, 1.0], [1.0, 1.0])
        config = RoundingConfig(
            b=0.25,
            outer_scheme=CrSchemeSpec("ordered_ksystem", 0.25),
            inner_scheme=CrSchemeSpec("ordered_ksystem", 0.25, order_policy="random"),
        )
        with pytest.raises(CapabilityError):
            exact_chosen_marginals(instance, config, [1.0, 1.0])

    def test_partition_scheme_needs_partition_outer(self):
        instance = free_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(CapabilityError):
            exact_chosen_marginals(
                instance, partition_outer_config(0.25), [1.0, 1.0]
            )

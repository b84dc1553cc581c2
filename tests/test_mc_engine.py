"""The Monte Carlo engine against the per-trial loops it replaced.

Every estimator report must equal, with == and as pickled bytes, the report
of the loop kept in oracles.py, at 1, 2 and 300 trials and past one block
of trial_uniforms: the engine moves where the trial streams are made, not
which numbers they give. trial_uniforms itself must give default_rng's
doubles byte for byte, and trial_rngs default_rng's generators: state,
draws and spawned children.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from oracles import (
    estimate_policy_value_reference,
    execute_reference,
    round_solution_reference,
    evaluate_spm_reference,
    greedy_order_reference,
    permutation_policy_reference,
    resolve_ordered_reference,
    run_greedy_deadline_reference,
    run_greedy_reference,
    simulate_reference,
    trial_rngs_reference,
    verify_monotonicity_reference,
    verify_scheme_reference,
)
from stochprobe.auction import build_spm, evaluate_spm, solve_lp_p
from stochprobe.constraints import (
    ConstraintError,
    ExplicitSystem,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.crschemes import (
    CrSchemeSpec,
    resolve_ordered,
    verify_monotonicity,
    verify_scheme,
)
from stochprobe.evaluate import (
    BLOCK_DRAWS,
    SEED_TRIALS,
    Z99,
    binomial_radius,
    monte_carlo,
    permutation_policy,
    simulate,
    trial_rngs,
    trial_uniforms,
)
from stochprobe.fixtures import (
    load_appendix_fixtures,
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


# seeds of one to six uint32 words; from 2^96 on the entropy (seed, t) has
# more than the four words of numpy's pool and is mixed in a second pass
UNIFORM_SEEDS = (
    0, 1, 7, 12345, 2**31 - 1, 2**32 + 5, 2**40 + 3,
    2**96, 2**96 + 12345, 2**128 - 1, 2**160 + 7,
)


def stream_of(rng) -> tuple:
    """A generator's state, some draws and its spawned children's first draws."""
    return (
        rng.bit_generator.state,
        rng.random(5).tobytes(),
        rng.integers(0, 1000, 5).tobytes(),
        rng.permutation(7).tobytes(),
        [(child.bit_generator.state, child.random(3).tobytes()) for child in rng.spawn(2)],
        rng.bit_generator.state,
    )


@pytest.mark.parametrize("seed", UNIFORM_SEEDS)
def test_trial_rngs_are_default_rng_generators(seed):
    longest = SEED_TRIALS + 5
    expected = [stream_of(rng) for rng in trial_rngs_reference(seed, longest)]
    for trials in TRIALS + (longest,):
        assert [stream_of(rng) for rng in trial_rngs(seed, trials)] == expected[:trials]


def test_trial_rngs_are_distinct_independent_generators():
    trials = SEED_TRIALS + 5
    rngs = list(trial_rngs(3, trials))
    assert len({id(rng) for rng in rngs}) == trials
    assert len({id(rng.bit_generator) for rng in rngs}) == trials
    # drawing from the later trials first leaves the earlier ones untouched
    draws = [rng.random(2).tobytes() for rng in reversed(rngs)][::-1]
    references = list(trial_rngs_reference(3, trials))
    assert draws == [rng.random(2).tobytes() for rng in references]
    # each spawn gives the next children, as numpy's seed sequence does
    for rng, reference in zip(rngs[-3:], references[-3:]):
        for _ in range(3):
            (child,), (expected,) = rng.spawn(1), reference.spawn(1)
            assert child.random(3).tobytes() == expected.random(3).tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5])
def test_trial_rngs_reject_seeds_lazily_as_default_rng_does(seed):
    with pytest.raises((ValueError, TypeError)) as numpy_error:
        np.random.default_rng((seed, 0))
    rngs = trial_rngs(seed, 3)
    with pytest.raises(numpy_error.type) as ours:
        next(rngs)
    assert str(ours.value) == str(numpy_error.value)


def uniform_rows(seed: int, trials: int, k: int) -> np.ndarray:
    blocks = list(trial_uniforms(seed, trials, k))
    for block in blocks:
        assert block.dtype == np.float64 and block.shape[1] == k
        assert len(block) >= 1 and (len(block) == 1 or block.size <= BLOCK_DRAWS)
    return np.concatenate(blocks)


@pytest.mark.parametrize("seed", UNIFORM_SEEDS)
def test_trial_uniforms_are_default_rng_bytes(seed):
    for trials in TRIALS:
        for k in range(21):
            expected = [np.random.default_rng((seed, t)).random(k) for t in range(trials)]
            got = uniform_rows(seed, trials, k)
            assert got.shape == (trials, k)
            assert got.tobytes() == np.array(expected).reshape(trials, k).tobytes()


def test_trial_uniforms_cross_block_boundaries():
    # rows per block are BLOCK_DRAWS // k; trials are seeded SEED_TRIALS at a time
    cases = ((20, 2 * BLOCK_DRAWS // 20 + 3), (1, SEED_TRIALS + 5), (BLOCK_DRAWS + 7, 3))
    for k, trials in cases:
        assert len(list(trial_uniforms(5, trials, k))) >= 2
        expected = [np.random.default_rng((5, t)).random(k) for t in range(trials)]
        assert uniform_rows(5, trials, k).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5])
def test_trial_uniforms_reject_seeds_as_default_rng_does(seed):
    with pytest.raises((ValueError, TypeError)) as numpy_error:
        np.random.default_rng((seed, 0))
    blocks = trial_uniforms(seed, 3, 4)  # checked on the first block, as trial_rngs does
    with pytest.raises(numpy_error.type) as ours:
        next(blocks)
    assert str(ours.value) == str(numpy_error.value)


@pytest.mark.parametrize("trials", [0, -3])
def test_trial_uniforms_reject_counts_below_one_before_the_seed(trials):
    with pytest.raises(ConstraintError, match="trials must be at least 1"):
        trial_uniforms(-1, trials, 4)


@pytest.mark.parametrize(
    "stream",
    [trial_rngs, lambda seed, trials: trial_uniforms(seed, trials, 4)],
    ids=["trial_rngs", "trial_uniforms"],
)
def test_trial_streams_refuse_counts_that_would_wrap(stream):
    # trial indices are uint32 words; both streams are lazy, so none is drawn
    with pytest.raises(ConstraintError, match=r"trials must be at most 2\*\*32"):
        stream(0, 2**32 + 1)
    stream(0, 2**32)


def test_greedy_order_is_the_sorted_key_order():
    def instance_with(probs):
        n = len(probs)
        return make_instance([1.0] * n, probs, UniformMatroid(n, 1), UniformMatroid(n, 1))

    rng = np.random.default_rng(17)
    levels = np.array([0.0, -0.0, 1.0, 0.5, 0.25])
    cases = [[], [0.0], [-0.0, 0.0, -0.0], [1.0, 1.0, 0.0, -0.0, 0.5]]
    for _ in range(500):
        n = int(rng.integers(1, 30))
        probs = np.where(rng.random(n) < 0.7, rng.choice(levels, n), rng.random(n))
        cases.append(probs.tolist())
    for probs in cases:
        instance = instance_with(probs)
        assert greedy_order(instance) == greedy_order_reference(instance)
    assert greedy_order(instance_with([])) == ()


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


def permutation_cases(family: str):
    """(instance, order, probe coins) triples on one test family.

    On a KINDS family: a full and a partial random order, with no coins and
    with coins that include 0 and 1. On "appendix": criterion 11's naive
    orders, without coins and with its coins b * y.
    """
    if family == "appendix":
        cases = []
        for fixture in load_appendix_fixtures(10):
            b = default_config(fixture.instance).b
            coins = [b * v for v in fixture.y]
            cases += [(fixture.instance, fixture.order, c) for c in (None, coins)]
        return cases
    instance = instance_of(family, seed=30)
    rng = np.random.default_rng(31)
    order = [int(e) for e in rng.permutation(instance.n)]
    coins = [0.0, 1.0] + [float(c) for c in rng.random(instance.n - 2)]
    return [(instance, o, c) for o in (order, order[:5]) for c in (None, coins)]


@pytest.mark.parametrize("trials", TRIALS + (SEED_TRIALS + 3,))
@pytest.mark.parametrize("family", KINDS + ("appendix",))
def test_permutation_policy_matches_loop(family, trials):
    for instance, order, coins in permutation_cases(family):
        assert_same(
            simulate(permutation_policy(order, coins), instance, trials, seed=6),
            simulate(permutation_policy_reference(order, coins), instance, trials, seed=6),
        )


def random_explicit(rng: np.random.Generator, n: int) -> ExplicitSystem:
    """The downward closure of three random sets."""
    tops = [int(m) for m in rng.integers(0, 1 << n, size=3)]
    family = frozenset(m for m in range(1 << n) if any(m & ~top == 0 for top in tops))
    return ExplicitSystem(universe_size=n, family=family)


@pytest.mark.parametrize("kind", ("uniform",) + KINDS + ("explicit",))
def test_resolve_ordered_matches_loop(kind):
    rng = np.random.default_rng(40)
    for n in (1, 4, 10):
        for _ in range(30):
            if kind == "explicit":
                system = random_explicit(rng, n)
            elif kind == "intersection":
                system = random_system(rng, max(n, 2), members=2)
            else:
                system = random_system(rng, max(n, 2), kinds=(kind,))
            size = system.universe_size
            order = [int(e) for e in rng.permutation(size)]
            order = order[: int(rng.integers(0, size + 1))]
            members = [e for e in range(size) if rng.random() < 0.6]
            assert resolve_ordered(system, order, members) == resolve_ordered_reference(
                system, order, members
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
# batched uniforms: large counter systems, edge probabilities, long runs
# ---------------------------------------------------------------------------

COUNTER_PAIRS = (("partition", "laminar"), ("laminar", "uniform"), ("uniform", "partition"))


def edge_instance(inner: str, outer: str, seed: int, n: int = 80):
    """Counter systems on n elements, some with p = 0 and some with p = 1,
    and a point of the relaxation with y_e = 0 on every fifth element.

    The point averages the sparse LP optimum with a constant feasible point,
    so that most elements carry mass; lowering p or y keeps it feasible.
    """
    base = random_instance(seed, n, inner_kinds=(inner,), outer_kinds=(outer,))
    probs = base.probabilities().copy()
    probs[3::11] = 1.0
    instance = make_instance(base.weights(), probs, base.inner, base.outer)
    level = 1.0
    while instance.outer.separate(np.full(n, level)) or instance.inner.separate(probs * level):
        level /= 2
    y = (np.array(solve_probing_lp(instance).y) + level) / 2
    probs[::7] = 0.0
    y[::5] = 0.0
    return make_instance(base.weights(), probs, base.inner, base.outer), y


def reference_chosen_sets(instance, config, y, trials, seed):
    """The chosen set of each trial, drawn by the reference loop's helpers."""
    chosen = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        policy = round_solution_reference(instance, y, config, rng)
        chosen.append(execute_reference(policy, instance, rng))
    return chosen


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("inner,outer", COUNTER_PAIRS)
def test_estimate_policy_value_matches_loop_on_large_edge_instances(inner, outer, trials):
    instance, y = edge_instance(inner, outer, seed=80)
    probs = instance.probabilities()
    positive = y > 0.0
    assert (probs == 0.0).any() and (probs == 1.0).any() and not positive.all()
    assert (positive & (probs == 0.0)).any() and (positive & (probs == 1.0)).any()
    configs = [default_config(instance)] + list(rounding_configs(0.05))
    for config in configs:
        assert_same(
            estimate_policy_value(instance, config, trials, 12, solution=y),
            estimate_policy_value_reference(instance, config, trials, 12, solution=y),
        )


def test_large_edge_instances_keep_each_trial_value():
    """A report can absorb a last-bit change in one trial's value, so here
    each single-trial report, the value itself, must match. w(S) sums over a
    frozenset whose iteration order, for elements past the hash table of a
    small set, depends on how the set was built; some of these trials reach
    sets whose sum changes bits with that order."""
    resummed = 0
    for inner, outer in COUNTER_PAIRS:
        instance, y = edge_instance(inner, outer, seed=80)
        weights = instance.weights()
        config = default_config(instance)
        for seed in range(100):
            assert_same(
                estimate_policy_value(instance, config, 1, seed, solution=y),
                estimate_policy_value_reference(instance, config, 1, seed, solution=y),
            )
            (s,) = reference_chosen_sets(instance, config, y, 1, seed)
            resummed += sum(weights[e] for e in s) != sum(weights[e] for e in sorted(s))
    assert resummed > 0


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("inner,outer", COUNTER_PAIRS)
def test_verify_scheme_matches_loop_on_large_edge_instances(inner, outer, trials):
    instance, y = edge_instance(inner, outer, seed=81)
    weights = instance.weights()
    for system, z in ((instance.outer, y), (instance.inner, instance.probabilities() * y)):
        b = 0.9 / system.k_parameter()
        for order in ORDERS:
            spec = CrSchemeSpec("ordered_ksystem", b, order_policy=order)
            assert_same(
                verify_scheme(spec, system, z, trials, 13, weights=weights),
                verify_scheme_reference(spec, system, z, trials, 13, weights=weights),
            )


def test_estimators_match_loops_past_one_seed_block():
    trials = SEED_TRIALS + 3
    instance = instance_of("intersection", seed=90)
    solution = solve_probing_lp(instance)
    config = default_config(instance)
    assert_same(
        estimate_policy_value(instance, config, trials, 14, solution=solution),
        estimate_policy_value_reference(instance, config, trials, 14, solution=solution),
    )
    spec = config.outer_scheme
    args = (spec, instance.outer, solution.y, trials, 15)
    assert_same(verify_scheme(*args), verify_scheme_reference(*args))
    weights = instance.weights()
    policy = lambda inst, rng: run_greedy(inst, rng).realized_value(weights)
    assert_same(
        simulate(policy, instance, trials, seed=17),
        simulate_reference(policy, instance, trials, seed=17),
    )
    auction = spm_matching_fixture(seed=4)
    mechanism = build_spm(auction, seed=0, solution=solve_lp_p(auction))
    assert_same(
        evaluate_spm(mechanism, auction, mode="monte_carlo", trials=trials, seed=16),
        evaluate_spm_reference(mechanism, auction, mode="monte_carlo", trials=trials, seed=16),
    )


def test_batched_estimators_keep_their_input_checks():
    instance, y = edge_instance("uniform", "partition", seed=82, n=10)
    config = default_config(instance)
    outside = np.ones(instance.n)
    with pytest.raises(ConstraintError, match="outside the relaxation"):
        estimate_policy_value(instance, config, 10, 0, solution=outside)
    with pytest.raises(ConstraintError, match="trials must be at least 1"):
        estimate_policy_value(instance, config, 0, 0, solution=y)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        estimate_policy_value(instance, config, 10, -1, solution=y)
    spec = config.outer_scheme
    with pytest.raises(ConstraintError, match="trials must be at least 1"):
        verify_scheme(spec, instance.outer, outside, 0, 0)
    with pytest.raises(ConstraintError, match="outside the rank polytope"):
        verify_scheme(spec, instance.outer, outside, 10, -1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        verify_scheme(spec, instance.outer, y, 10, -1)
    by_weight = CrSchemeSpec("ordered_ksystem", spec.b, order_policy="by-weight-desc")
    with pytest.raises(ConstraintError, match="needs weights"):
        verify_scheme(by_weight, instance.outer, y, 10, 0)
    auction = spm_uniform_fixture(seed=5)
    mechanism = build_spm(auction, seed=0, solution=solve_lp_p(auction))
    with pytest.raises(ConstraintError, match="trials must be at least 1"):
        evaluate_spm(mechanism, auction, mode="monte_carlo", trials=0, seed=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        evaluate_spm(mechanism, auction, mode="monte_carlo", trials=5, seed=-1)


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

"""Greedy policy, per-path dual certificates, and the deadline variant."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from stochprobe.acceptance import build_ratio_suite, check_dual_certificates
from stochprobe.constraints import (
    CapabilityError,
    ConstraintError,
    IntersectionSystem,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.evaluate import optimal_adaptive, simulate
from stochprobe.fixtures import random_instance, random_system, tightness_instance
from stochprobe.greedy import (
    PathOutcome,
    audit_certificates,
    build_deadline_laminar,
    build_dual_certificate,
    build_expected_certificate,
    enumerate_greedy_deadline_paths,
    enumerate_greedy_paths,
    exact_greedy_deadline_value,
    exact_greedy_value,
    greedy_order,
    greedy_policy,
    run_greedy,
    run_greedy_deadline,
)
from stochprobe.instance import make_instance
from stochprobe.lp import check_dual, solve_probing_lp

from oracles import (
    brute_optimal_adaptive,
    build_expected_certificate_reference,
    certify_reference,
    check_dual_certificates_reference,
    enumerate_paths_reference,
    powerset,
)


def two_element_fixture():
    return make_instance([1, 1], [0.9, 0.5], UniformMatroid(2, 1), UniformMatroid(2, 2))


def test_greedy_order_examples():
    def order_for(probs):
        inst = make_instance(
            [1] * len(probs), probs, UniformMatroid(len(probs), 1),
            UniformMatroid(len(probs), 1),
        )
        return greedy_order(inst)

    assert order_for([0.2, 0.9, 0.5]) == (1, 2, 0)
    assert order_for([0.4, 0.4, 0.4]) == (0, 1, 2)
    assert order_for([0.5, 0.5, 0.9]) == (2, 0, 1)


def test_run_greedy_first_element_active():
    path = run_greedy(two_element_fixture(), activity=[True, True])
    assert path.probed == (0,)
    assert path.chosen == {0}
    assert path.probability == pytest.approx(0.9)


def test_run_greedy_first_element_inactive():
    path = run_greedy(two_element_fixture(), activity=[False, True])
    assert path.probed == (0, 1)
    assert path.chosen == {1}
    assert path.probability == pytest.approx(0.1 * 0.5)


def test_two_element_exact_value():
    # 0.9 + 0.1 * 0.5, hand-enumerated over the four activity outcomes
    assert exact_greedy_value(two_element_fixture()) == pytest.approx(0.95)


def test_contradictory_activity_is_rejected():
    inst = make_instance([1], [1.0], UniformMatroid(1, 1), UniformMatroid(1, 1))
    with pytest.raises(ConstraintError):
        run_greedy(inst, activity=[False])


@pytest.mark.parametrize("seed", range(6))
def test_paths_partition_probability(seed):
    inst = random_instance(seed, n=6, weighted=False)
    paths = list(enumerate_greedy_paths(inst))
    assert sum(p.probability for p in paths) == pytest.approx(1.0, abs=1e-12)
    for path in paths:
        assert inst.outer.is_independent(path.probed)
        assert inst.inner.is_independent(path.chosen)


@pytest.mark.parametrize("seed", range(6))
def test_value_identity_with_probe_mass(seed):
    # expected |S| equals the expected probability mass of probed elements
    inst = random_instance(seed, n=6, weighted=False)
    probs = inst.probabilities()
    mass = sum(
        path.probability * sum(probs[e] for e in path.probed)
        for path in enumerate_greedy_paths(inst)
    )
    assert exact_greedy_value(inst) == pytest.approx(mass, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_ratio_against_adaptive_optimum(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n=6, weighted=False,
        inner_members=int(rng.integers(1, 3)), outer_members=int(rng.integers(1, 3)),
    )
    k_total = inst.inner.k_parameter() + inst.outer.k_parameter()
    opt = optimal_adaptive(inst)
    assert exact_greedy_value(inst) >= opt / k_total - 1e-9


def test_package_optimum_matches_brute_force():
    inst = random_instance(123, n=6, weighted=True)
    opt = optimal_adaptive(inst)
    brute = brute_optimal_adaptive(
        list(inst.weights()),
        list(inst.probabilities()),
        lambda s: inst.inner.is_independent(s),
        lambda s: inst.outer.is_independent(s),
    )
    assert opt == pytest.approx(brute, abs=1e-12)


def test_single_probe_certificate_shape():
    inst = make_instance([1], [0.7], UniformMatroid(1, 1), UniformMatroid(1, 1))
    path = run_greedy(inst, activity=[True])
    cert = build_dual_certificate(inst, path)
    assert dict(cert.alpha) == {frozenset({0}): 1.0}
    assert dict(cert.beta) == {frozenset({0}): pytest.approx(0.7)}
    assert cert.value == pytest.approx(1.0 + 0.7)


@pytest.mark.parametrize("seed", range(10))
def test_per_path_certificates_feasible_and_bounded(seed):
    inst = random_instance(seed, n=6, weighted=False)
    k_in = inst.inner.k_parameter()
    k_out = inst.outer.k_parameter()
    probs = inst.probabilities()
    for path in enumerate_greedy_paths(inst):
        cert = build_dual_certificate(inst, path)
        check = check_dual(cert, inst)
        assert check.feasible
        bound = k_in * len(path.chosen) + k_out * sum(probs[e] for e in path.probed)
        assert cert.value <= bound + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_expected_certificate_sandwich(seed):
    inst = random_instance(seed, n=6, weighted=False)
    cert, expected = build_expected_certificate(inst)
    assert check_dual(cert, inst).feasible
    k_total = inst.inner.k_parameter() + inst.outer.k_parameter()
    assert cert.value <= k_total * expected + 1e-9
    lp = solve_probing_lp(inst)
    assert cert.value >= lp.objective - 1e-6
    assert lp.objective >= optimal_adaptive(inst) - 1e-6
    assert expected == pytest.approx(exact_greedy_value(inst), abs=1e-12)


def test_non_greedy_path_order_rejected():
    inst = make_instance(
        [1, 1], [0.3, 0.8], UniformMatroid(2, 2), UniformMatroid(2, 2)
    )
    fake = PathOutcome(
        probed=(0, 1), chosen=frozenset(), skipped_deadline=frozenset(),
        probability=0.7 * 0.2,
    )
    with pytest.raises(ConstraintError):
        build_dual_certificate(inst, fake)


def test_deadline_laminar_examples():
    inst = make_instance(
        [1, 1], [0.5, 0.5], UniformMatroid(2, 2), UniformMatroid(2, 2),
        deadlines=[1, 2],
    )
    chain = build_deadline_laminar(inst)
    assert chain.sets == ((0,), (0, 1))
    assert chain.capacities == (1, 2)

    loose = make_instance(
        [1] * 3, [0.5] * 3, UniformMatroid(3, 3), UniformMatroid(3, 3),
        deadlines=[3, 3, 3],
    )
    assert build_deadline_laminar(loose).is_independent({0, 1, 2})

    mixed = make_instance(
        [1] * 3, [0.5] * 3, UniformMatroid(3, 3), UniformMatroid(3, 3),
        deadlines=[1, 1, 3],
    )
    chain = build_deadline_laminar(mixed)
    for s in powerset(range(3)):
        expected = len(set(s) & {0, 1}) <= 1
        assert chain.is_independent(s) == expected


def test_deadline_single_element_always_probed():
    inst = make_instance(
        [1], [0.6], UniformMatroid(1, 1), UniformMatroid(1, 1), deadlines=[1]
    )
    path = run_greedy_deadline(inst, activity=[True])
    assert path.probed == (0,)
    assert path.skipped_deadline == frozenset()


def test_deadline_chain_caps_two_certain_elements():
    inst = make_instance(
        [1, 1], [1.0, 1.0], UniformMatroid(2, 2), UniformMatroid(2, 2),
        deadlines=[1, 1],
    )
    path = run_greedy_deadline(inst, activity=[True, True])
    assert path.probed == (0,)
    assert path.skipped_deadline == frozenset()
    assert path.realized_value(inst.weights()) == 1.0


def test_bookkeeping_joins_late_element():
    # order is (1, 0); element 0's deadline has passed once 1 consumed the clock
    inst = make_instance(
        [1, 1], [0.4, 0.9], UniformMatroid(2, 2), UniformMatroid(2, 2),
        deadlines=[1, 2],
    )
    paths = list(enumerate_greedy_deadline_paths(inst))
    assert all(path.probed == (1, 0) for path in paths)
    assert all(path.skipped_deadline == {0} for path in paths)
    assert exact_greedy_deadline_value(inst) == pytest.approx(0.9)
    coupled = sum(
        p.probability * p.coupled_value(inst.weights()) for p in paths
    )
    assert coupled == pytest.approx(1.3)


@pytest.mark.parametrize("seed", range(10))
def test_deadline_per_path_probe_mass_inequality(seed):
    inst = random_instance(seed, n=6, weighted=False, with_deadlines=True)
    probs = inst.probabilities()
    for path in enumerate_greedy_deadline_paths(inst):
        total = sum(probs[e] for e in path.probed)
        real = sum(probs[e] for e in set(path.probed) - path.skipped_deadline)
        assert total <= 2.0 * real + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_deadline_ratio_against_optimum(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n=6, weighted=False, with_deadlines=True,
        inner_members=int(rng.integers(1, 3)), outer_members=int(rng.integers(1, 3)),
    )
    k_total = inst.inner.k_parameter() + inst.outer.k_parameter()
    opt = optimal_adaptive(inst)
    value = exact_greedy_deadline_value(inst)
    assert value >= opt / (2 * (k_total + 1)) - 1e-9


def test_deadline_optimum_matches_brute_force():
    inst = random_instance(7, n=5, weighted=False, with_deadlines=True)
    brute = brute_optimal_adaptive(
        list(inst.weights()),
        list(inst.probabilities()),
        lambda s: inst.inner.is_independent(s),
        lambda s: inst.outer.is_independent(s),
        deadlines=inst.deadlines(),
    )
    assert optimal_adaptive(inst) == pytest.approx(brute, abs=1e-12)


def test_tightness_fixture_ratio_is_one_third():
    fix = tightness_instance()
    inst = fix.instance
    assert inst.n == 28
    assert inst.inner.k_parameter() == 2
    assert inst.outer.k_parameter() == 1
    path = run_greedy(inst, activity=[True] * inst.n)
    assert path.chosen == frozenset(range(7))
    assert path.realized_value(inst.weights()) == fix.greedy_value == 7.0
    # the good triples certify the optimum: feasible on both sides, size 21
    assert inst.inner.is_independent(fix.good_set)
    assert inst.outer.is_independent(fix.good_set)
    assert len(fix.good_set) == fix.optimal_value == 21
    ratio = fix.greedy_value / fix.optimal_value
    assert ratio == pytest.approx(1.0 / 3.0)
    assert ratio <= 1.0 / 3.0 + 0.1


# ---------------------------------------------------------------------------
# the replayed scan and the certificate audit against the code they replaced
# ---------------------------------------------------------------------------


def replay_cases():
    """Random instances (some with deadlines), 0/1 probabilities, tightness."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        yield random_instance(
            rng, n, inner_members=1 + seed % 2, outer_members=1 + (seed // 2) % 2,
            weighted=seed % 3 == 0, with_deadlines=seed % 2 == 0,
        )
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 11))
        probs = np.round(rng.uniform(0.05, 1.0, size=n), 3)
        probs[rng.random(n) < 0.3] = 0.0
        probs[rng.random(n) < 0.3] = 1.0
        deadlines = [int(d) for d in rng.integers(1, n + 1, size=n)]
        yield make_instance(
            rng.uniform(0.1, 3.0, size=n), probs,
            random_system(rng, n, 1 + seed % 2), random_system(rng, n),
            deadlines=deadlines if seed % 2 else None,
        )
    for blocks in (1, 2, 3):
        yield tightness_instance(blocks).instance


@pytest.mark.parametrize("inst", list(replay_cases()))
def test_replayed_paths_match_recursive_enumeration(inst):
    new = list(enumerate_greedy_paths(inst))
    assert pickle.dumps(new) == pickle.dumps(
        list(enumerate_paths_reference(inst, with_deadlines=False))
    )
    if inst.has_deadlines():
        new = list(enumerate_greedy_deadline_paths(inst))
        assert pickle.dumps(new) == pickle.dumps(
            list(enumerate_paths_reference(inst, with_deadlines=True))
        )


def test_zero_and_one_probabilities_fork_once():
    inst = make_instance(
        [1, 1, 1], [1.0, 0.0, 0.5], UniformMatroid(3, 3), UniformMatroid(3, 3)
    )
    paths = list(enumerate_greedy_paths(inst))
    assert [(p.chosen, p.probability) for p in paths] == [
        ({0, 2}, 0.5), ({0}, 0.5),
    ]


@pytest.mark.parametrize(
    "enumerate_paths", [enumerate_greedy_paths, enumerate_greedy_deadline_paths]
)
def test_enumeration_cap_raises_lazily(enumerate_paths):
    n = 16
    inst = make_instance(
        [1] * n, [0.5] * n, UniformMatroid(n, 2), UniformMatroid(n, 3),
        deadlines=[n] * n,
    )
    paths = enumerate_paths(inst)
    with pytest.raises(CapabilityError, match="capped at 15 elements"):
        next(paths)


def test_tightness_fixture_is_past_the_cap_for_both_enumerations():
    inst = tightness_instance(7).instance
    for with_deadlines, enumerate_paths in (
        (False, enumerate_greedy_paths), (True, enumerate_greedy_deadline_paths),
    ):
        with pytest.raises(CapabilityError) as old:
            next(enumerate_paths_reference(inst, with_deadlines))
        with pytest.raises(CapabilityError) as new:
            next(enumerate_paths(inst))
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("inst", list(replay_cases())[::3])
def test_audit_matches_former_certify(inst):
    audit = audit_certificates(inst)
    old = certify_reference(inst)
    rows = [
        {"path": i, "probability": r.probability, "value": r.value, "cap": r.cap,
         "feasible": r.feasible}
        for i, r in enumerate(audit.paths)
    ]
    assert pickle.dumps(rows) == pickle.dumps(old["rows"])
    assert float(audit.worst_path_slack) == old["worst_path_slack"]
    assert audit.expected == old["expected_value"]
    assert pickle.dumps(audit.mixture) == pickle.dumps(old["mixture"])
    assert audit.mixture_check.value == old["mixture_value"]
    assert audit.mixture_cap == old["mixture_cap"]
    assert audit.per_path_feasible is old["per_path_feasible"]
    assert bool(audit.mixture_check.feasible) is old["mixture_feasible"]
    assert audit.mixture_bounded is old["mixture_bounded"]
    cert, expected = build_expected_certificate(inst)
    assert pickle.dumps((cert, expected)) == pickle.dumps(
        build_expected_certificate_reference(inst)
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_two_matches_former_check(seed):
    suite = build_ratio_suite(seed, count=40)
    assert check_dual_certificates(suite) == check_dual_certificates_reference(suite)


def test_audit_flags_a_certificate_over_its_cap():
    inst = random_instance(3, n=6, weighted=False)
    audit = audit_certificates(inst)
    assert audit.holds
    over = dataclasses.replace(audit.paths[0], feasible=False)
    broken = dataclasses.replace(audit, paths=(over,) + audit.paths[1:])
    assert not broken.holds
    assert dataclasses.replace(audit, expected=0.0).mixture_bounded is False


@pytest.mark.parametrize("trials", [1, 2, 300])
@pytest.mark.parametrize("with_deadlines", [False, True])
def test_greedy_policy_matches_per_call_runs(trials, with_deadlines):
    run = run_greedy_deadline if with_deadlines else run_greedy
    for seed in range(4):
        inst = random_instance(seed, n=4 + 2 * seed, with_deadlines=with_deadlines)
        weights = inst.weights()
        per_call = lambda g, rng: run(g, rng).realized_value(weights)
        once = greedy_policy(inst, with_deadlines)
        assert simulate(once, inst, trials, seed) == simulate(per_call, inst, trials, seed)

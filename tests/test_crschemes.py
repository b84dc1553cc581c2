"""Contention resolution schemes: exact marginals, bounds, monotonicity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochprobe.constraints import (
    CapabilityError,
    ConstraintError,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.crschemes import (
    CrSchemeSpec,
    exact_partition_marginal,
    expected_inverse_one_plus,
    partition_marginal_lower_bound,
    SchemeVerification,
    resolve,
    resolve_ordered,
    resolve_partition,
    scheme_order,
    unit_partition,
    verify_monotonicity,
    verify_scheme,
)
from stochprobe.evaluate import THREE_SIGMA_RADII
from stochprobe.fixtures import random_matroid


def caps_one_fixture():
    return PartitionMatroid(5, parts=((0, 1), (2, 3, 4)), capacities=(1, 1))


def test_spec_validation():
    with pytest.raises(ConstraintError):
        CrSchemeSpec("nonsense", 0.5)
    with pytest.raises(ConstraintError):
        CrSchemeSpec("ordered_ksystem", 0.0)
    with pytest.raises(ConstraintError):
        CrSchemeSpec("ordered_ksystem", 0.5, order_policy="sideways")


def test_ordered_target_needs_small_b():
    spec = CrSchemeSpec("ordered_ksystem", 0.2)
    assert spec.target_c(UniformMatroid(3, 2)) == pytest.approx(0.8)
    # b = 0.6 clears a matroid (k=1) but not a 2-system
    one_system = PartitionMatroid(2, parts=((0, 1),), capacities=(1,))
    assert CrSchemeSpec("ordered_ksystem", 0.6).target_c(one_system) == pytest.approx(0.4)
    from stochprobe.constraints import IntersectionSystem

    pair = IntersectionSystem(
        members=(UniformMatroid(2, 1), UniformMatroid(2, 2))
    )
    with pytest.raises(ConstraintError):
        CrSchemeSpec("ordered_ksystem", 0.6).target_c(pair)


def test_partition_target_c():
    spec = CrSchemeSpec("partition_random_choice", 0.25)
    assert spec.target_c(caps_one_fixture()) == pytest.approx(
        (1 - math.exp(-0.25)) / 0.25
    )


def test_resolve_ordered_examples():
    assert resolve_ordered(UniformMatroid(2, 1), (0, 1), ()) == frozenset()
    assert resolve_ordered(UniformMatroid(2, 1), (0, 1), {0, 1}) == {0}
    triangle = GraphicMatroid(3, vertex_count=3, edges=((0, 1), (1, 2), (0, 2)))
    assert resolve_ordered(triangle, (0, 1, 2), {0, 1, 2}) == {0, 1}


def test_resolve_partition_examples():
    system = caps_one_fixture()
    rng = np.random.default_rng(0)
    assert resolve_partition(system, {0}, rng) == {0}
    kept_counts = {0: 0, 1: 0}
    for t in range(2000):
        kept = resolve_partition(system, {0, 1}, np.random.default_rng(t))
        assert len(kept) == 1
        kept_counts[next(iter(kept))] += 1
    assert kept_counts[0] / 2000 == pytest.approx(0.5, abs=0.05)


def test_resolve_partition_keeps_free_elements():
    system = PartitionMatroid(3, parts=((0, 1),), capacities=(1,))
    kept = resolve_partition(system, {0, 1, 2}, np.random.default_rng(1))
    assert 2 in kept
    assert len(kept & {0, 1}) == 1


def test_resolve_partition_rejects_larger_caps():
    wide = PartitionMatroid(3, parts=((0, 1, 2),), capacities=(2,))
    with pytest.raises(CapabilityError):
        resolve_partition(wide, {0, 1}, np.random.default_rng(0))
    with pytest.raises(CapabilityError):
        resolve_partition(UniformMatroid(3, 1), {0, 1}, np.random.default_rng(0))


def test_random_choice_precondition_messages():
    wide = PartitionMatroid(3, parts=((0, 1, 2),), capacities=(2,))
    with pytest.raises(CapabilityError) as caps:
        unit_partition(wide)
    assert str(caps.value) == (
        "random-choice resolution needs all capacities 1; use the ordered scheme"
    )
    with pytest.raises(CapabilityError) as kind:
        unit_partition(UniformMatroid(3, 1))
    assert str(kind.value) == "random-choice resolution needs a partition matroid"
    narrow = caps_one_fixture()
    assert unit_partition(narrow) is narrow


def test_random_choice_monotonicity_refuses_larger_caps():
    # resolve refuses this system, so its monotonicity cannot be claimed
    wide = PartitionMatroid(3, parts=((0, 1, 2),), capacities=(2,))
    spec = CrSchemeSpec("partition_random_choice", 0.2)
    with pytest.raises(CapabilityError, match="capacities 1"):
        resolve(spec, wide, {0, 1}, np.random.default_rng(0))
    with pytest.raises(CapabilityError, match="capacities 1"):
        verify_monotonicity(spec, wide, {0}, {0, 1}, 0)


@pytest.mark.parametrize("seed", range(10))
def test_resolution_outputs_are_independent(seed):
    rng = np.random.default_rng(seed)
    system = random_matroid(rng, 6)
    members = {int(e) for e in rng.choice(6, size=4, replace=False)}
    kept = resolve_ordered(system, scheme_order(
        CrSchemeSpec("ordered_ksystem", 0.2, "random"), system, rng), members)
    assert kept <= members
    assert system.is_independent(kept)


def test_expected_inverse_one_plus_small_cases():
    assert expected_inverse_one_plus([]) == pytest.approx(1.0)
    assert expected_inverse_one_plus([0.4]) == pytest.approx(1 - 0.4 / 2)
    # three mates at q=1/12 each: integral of ((11+t)/12)^3 over [0,1]
    assert expected_inverse_one_plus([1 / 12] * 3) == pytest.approx(
        3 * (1 - (11 / 12) ** 4)
    )


def test_exact_marginal_two_mate_part():
    # part {0,1} with z = 1/2 each at b = 1/3: E[1/(1+Bern(1/6))] = 11/12
    system = caps_one_fixture()
    z = [0.5, 0.5, 0.3, 0.3, 0.4]
    marginal = exact_partition_marginal(system, z, 1 / 3, 0)
    assert marginal == pytest.approx(11 / 12)
    mass = (1 / 3) * 1.0
    assert marginal >= partition_marginal_lower_bound(mass)
    assert partition_marginal_lower_bound(mass) == pytest.approx(0.8504, abs=2e-4)
    assert partition_marginal_lower_bound(mass) >= partition_marginal_lower_bound(1.0)


def test_exact_marginal_free_element():
    assert exact_partition_marginal(caps_one_fixture(), [1] * 5, 0.5, 4) != 1.0
    free_sys = PartitionMatroid(3, parts=((0, 1),), capacities=(1,))
    assert exact_partition_marginal(free_sys, [0.5, 0.5, 1.0], 0.5, 2) == 1.0


def test_verify_scheme_no_contention():
    system = UniformMatroid(3, 1)
    spec = CrSchemeSpec("ordered_ksystem", 0.5)
    report = verify_scheme(spec, system, [0.9, 0.0, 0.0], trials=500, seed=3)
    assert report.estimates[0] == 1.0
    assert report.included[1] == 0 and report.estimates[1] == 1.0


def test_verify_scheme_rejects_infeasible_point():
    with pytest.raises(ConstraintError):
        verify_scheme(
            CrSchemeSpec("ordered_ksystem", 0.25),
            UniformMatroid(2, 1),
            [0.9, 0.9],
            trials=10,
            seed=0,
        )


def test_ordered_scheme_meets_matroid_bound():
    triangle_plus = GraphicMatroid(
        4, vertex_count=3, edges=((0, 1), (1, 2), (0, 2), (0, 2))
    )
    z = [0.6, 0.6, 0.4, 0.4]
    assert triangle_plus.separate(np.array(z)) is None
    spec = CrSchemeSpec("ordered_ksystem", 0.25)
    report = verify_scheme(spec, triangle_plus, z, trials=4000, seed=1)
    assert report.target_c == pytest.approx(0.75)
    assert report.satisfied()


def test_satisfied_allows_a_three_sigma_slack_only():
    radius = 0.01
    target = 0.8

    def verification(gap_radii):
        return SchemeVerification(
            estimates=(0.95, target - gap_radii * radius),
            radii=(radius, radius),
            included=(100, 100),
            trials=100,
            target_c=target,
        )

    assert verification(0.5 * THREE_SIGMA_RADII).satisfied()
    # two 99% radii below the target is 5.2 standard errors short
    assert not verification(2.0).satisfied()


def test_partition_scheme_meets_bound_and_exact_marginals():
    system = caps_one_fixture()
    z = [0.5, 0.5, 0.3, 0.3, 0.4]
    spec = CrSchemeSpec("partition_random_choice", 0.25)
    report = verify_scheme(spec, system, z, trials=4000, seed=2)
    assert report.target_c == pytest.approx((1 - math.exp(-0.25)) / 0.25)
    assert report.satisfied()
    for e in range(5):
        exact = exact_partition_marginal(system, z, 0.25, e)
        assert exact >= report.target_c
        if report.included[e] > 100:
            assert abs(report.estimates[e] - exact) <= max(
                4 * report.radii[e], 0.01
            )


def test_verify_scheme_is_deterministic():
    system = caps_one_fixture()
    z = [0.5, 0.5, 0.3, 0.3, 0.4]
    spec = CrSchemeSpec("partition_random_choice", 0.3)
    a = verify_scheme(spec, system, z, trials=300, seed=7)
    b = verify_scheme(spec, system, z, trials=300, seed=7)
    assert a == b


def test_monotonicity_identical_sets():
    spec = CrSchemeSpec("ordered_ksystem", 0.2)
    system = UniformMatroid(4, 2)
    assert verify_monotonicity(spec, system, {0, 1}, {0, 1}, 0)


def test_monotonicity_partition_exact():
    spec = CrSchemeSpec("partition_random_choice", 0.2)
    assert verify_monotonicity(spec, caps_one_fixture(), {0}, {0, 1}, 0)


def test_monotonicity_requires_nesting():
    spec = CrSchemeSpec("ordered_ksystem", 0.2)
    with pytest.raises(ConstraintError):
        verify_monotonicity(spec, UniformMatroid(3, 1), {0, 2}, {0, 1}, 0)
    with pytest.raises(ConstraintError):
        verify_monotonicity(spec, UniformMatroid(3, 1), {0}, {0, 1}, 1)


@pytest.mark.parametrize("seed", range(8))
def test_monotonicity_fixed_order_on_matroids(seed):
    rng = np.random.default_rng(seed)
    system = random_matroid(rng, 6)
    big = {int(e) for e in rng.choice(6, size=4, replace=False)}
    small = set(list(big)[:2])
    e = next(iter(small))
    spec = CrSchemeSpec("ordered_ksystem", 0.1, order_policy="by-index")
    assert verify_monotonicity(spec, system, small, big, e)


def test_monotonicity_random_order_monte_carlo():
    system = GraphicMatroid(4, vertex_count=3, edges=((0, 1), (1, 2), (0, 2), (0, 2)))
    spec = CrSchemeSpec("ordered_ksystem", 0.2, order_policy="random")
    assert verify_monotonicity(
        spec, system, {0, 1}, {0, 1, 2, 3}, 0, trials=3000, seed=5
    )


@pytest.mark.parametrize("trials", [0, -3])
def test_monotonicity_random_order_rejects_trial_counts_below_one(trials):
    system = GraphicMatroid(4, vertex_count=3, edges=((0, 1), (1, 2), (0, 2), (0, 2)))
    spec = CrSchemeSpec("ordered_ksystem", 0.2, order_policy="random")
    with pytest.raises(ConstraintError, match="trials must be at least 1"):
        verify_monotonicity(spec, system, {0, 1}, {0, 1, 2, 3}, 0, trials=trials)

"""Cut-generation LP solver and dual certificates, cross-checked two ways.

The solver is compared against a scipy LP with every rank constraint
materialized, and against the brute-force optimal adaptive policy (the
relaxation must upper-bound it).
"""

from __future__ import annotations

import numpy as np
import pytest

from stochprobe import lp, simplex
from stochprobe.constraints import (
    GraphicMatroid,
    IntersectionSystem,
    LaminarMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.instance import make_instance
from stochprobe.lp import (
    DualCertificate,
    LpEngineError,
    check_claim_lp_opt,
    check_dual,
    cut_generation,
    solve_probing_lp,
)

from oracles import brute_optimal_adaptive, lp_oracle, powerset


def test_two_elements_inner_bottleneck():
    inst = make_instance([1, 1], [1, 1], UniformMatroid(2, 1), UniformMatroid(2, 2))
    sol = solve_probing_lp(inst)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sum(sol.x) == pytest.approx(1.0, abs=1e-9)


def test_half_probabilities_fill_the_inner_rank():
    inst = make_instance(
        [1, 1], [0.5, 0.5], UniformMatroid(2, 1), UniformMatroid(2, 2)
    )
    sol = solve_probing_lp(inst)
    # both elements can be probed with certainty: expected chosen mass is 1
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.y == pytest.approx((1.0, 1.0), abs=1e-9)


def test_outer_rank_binds_instead():
    inst = make_instance(
        [1, 1], [0.5, 0.5], UniformMatroid(2, 2), UniformMatroid(2, 1)
    )
    sol = solve_probing_lp(inst)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_weighted_tradeoff_prefers_heavy_element():
    inst = make_instance(
        [3, 1], [0.5, 1.0], UniformMatroid(2, 1), UniformMatroid(2, 2)
    )
    sol = solve_probing_lp(inst)
    # y = (1, 1/2): spend the full inner rank on the heavy element first
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.y[1] == pytest.approx(0.5, abs=1e-9)


def test_zero_probability_elements_are_dropped():
    inst = make_instance(
        [5, 1], [0.0, 1.0], UniformMatroid(2, 2), UniformMatroid(2, 2)
    )
    sol = solve_probing_lp(inst)
    assert sol.y[0] == 0.0
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_all_zero_instance():
    inst = make_instance([1, 2], [0.0, 0.0], UniformMatroid(2, 2), UniformMatroid(2, 2))
    sol = solve_probing_lp(inst)
    assert sol.objective == 0.0
    assert sol.cuts == ()
    assert sol.rounds == 0
    assert sol.pivots == 0


def test_rounds_count_solves_not_cuts():
    # the first optimum takes both elements and needs one inner cut
    inst = make_instance([1, 1], [1, 1], UniformMatroid(2, 1), UniformMatroid(2, 2))
    sol = solve_probing_lp(inst)
    assert (sol.rounds, len(sol.cuts)) == (2, 1)


def test_round_cap_is_read_at_call_time(monkeypatch):
    inst = make_instance([1, 1], [1, 1], UniformMatroid(2, 1), UniformMatroid(2, 2))
    monkeypatch.setattr(lp, "MAX_CUT_ROUNDS", 1)
    with pytest.raises(LpEngineError, match="in 1 rounds"):
        solve_probing_lp(inst)


def test_cut_generation_adds_returned_rows_until_none():
    seen = []

    def separate(v):
        seen.append(v.copy())
        return [(np.ones(2), 1.0)] if v.sum() > 1.0 + 1e-9 else []

    result, rounds, pivots = cut_generation(
        np.array([2.0, 1.0]), np.eye(2), [1.0, 1.0], separate
    )
    assert rounds == 2
    # each solve starts from scratch: two pivots to the box corner, then two
    # more with the cut row
    assert pivots == 4
    assert seen[0] == pytest.approx([1.0, 1.0])
    assert result.x == pytest.approx([1.0, 0.0])
    assert result.objective == pytest.approx(2.0)


def _partition_instance():
    """30 elements in parts of 3 with one pick per part, at most 12 probes.

    Weights and probabilities have one decimal, so ratio-test ties (and
    Bland's tie-break) occur along the way.
    """
    rng = np.random.default_rng(2013)
    parts = tuple(tuple(range(i, i + 3)) for i in range(0, 30, 3))
    return make_instance(
        np.round(rng.uniform(0.1, 3.0, 30), 1),
        np.round(rng.uniform(0.4, 1.0, 30), 1),
        PartitionMatroid(30, parts, (1,) * 10),
        UniformMatroid(30, 12),
    )


def test_pivots_sum_every_solve(monkeypatch):
    counts = []
    solve = simplex.maximize

    def counting(*args, **kwargs):
        result = solve(*args, **kwargs)
        counts.append(result.iterations)
        return result

    monkeypatch.setattr(simplex, "maximize", counting)
    sol = solve_probing_lp(_partition_instance())
    assert sol.rounds == len(counts)
    assert sol.pivots == sum(counts)


def test_pivot_sequence_is_pinned():
    # a deterministic work count, not a timing, read off the scalar Bland
    # loop: a change to the pricing, the ratio-test tie-break or the cut
    # order moves these numbers
    sol = solve_probing_lp(_partition_instance())
    assert (sol.rounds, len(sol.cuts), sol.pivots) == (6, 6, 316)


def _random_system(rng, n):
    kind = rng.choice(["uniform", "partition", "laminar", "graphic", "intersection"])
    if kind == "uniform":
        return UniformMatroid(n, int(rng.integers(0, n + 1)))
    if kind == "partition":
        order = list(rng.permutation(n))
        split = sorted(rng.choice(range(1, n), size=min(2, n - 1), replace=False))
        parts, start = [], 0
        for stop in list(split) + [n]:
            parts.append(tuple(order[start:stop]))
            start = stop
        caps = tuple(int(rng.integers(1, 3)) for _ in parts)
        return PartitionMatroid(n, parts=tuple(parts), capacities=caps)
    if kind == "laminar":
        sets = tuple(tuple(range(i + 1)) for i in range(n))
        caps = tuple(min(i + 1, int(rng.integers(1, n + 1))) for i in range(n))
        return LaminarMatroid(n, sets=sets, capacities=caps)
    if kind == "graphic":
        v = max(2, n - 1)
        edges = tuple(
            (int(rng.integers(0, v)), int(rng.integers(0, v))) for _ in range(n)
        )
        return GraphicMatroid(n, vertex_count=v, edges=edges)
    first = PartitionMatroid(n, parts=(tuple(range(n)),), capacities=(2,))
    order = tuple(int(v) for v in rng.permutation(n))
    second = PartitionMatroid(
        n, parts=(order[: n // 2], order[n // 2 :]), capacities=(1, 1)
    )
    return IntersectionSystem(members=(first, second))


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    weights = np.round(rng.uniform(0, 3, size=n), 3)
    probs = np.round(rng.uniform(0, 1, size=n), 3)
    return make_instance(
        weights, probs, _random_system(rng, n), _random_system(rng, n)
    )


@pytest.mark.parametrize("seed", range(20))
def test_cut_generation_matches_enumerated_lp(seed):
    inst = _random_instance(seed)
    sol = solve_probing_lp(inst)
    reference = lp_oracle(
        inst.weights(), inst.probabilities(), inst.inner.rank, inst.outer.rank
    )
    assert sol.objective == pytest.approx(reference, abs=1e-6)
    # the returned point must satisfy every rank constraint, not just the cuts
    for s in powerset(range(inst.n)):
        if not s:
            continue
        assert sum(sol.x[e] for e in s) <= inst.inner.rank(s) + 1e-7
        assert sum(sol.y[e] for e in s) <= inst.outer.rank(s) + 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_lp_upper_bounds_optimal_adaptive(seed):
    inst = _random_instance(seed)
    sol = solve_probing_lp(inst)
    opt = brute_optimal_adaptive(
        list(inst.weights()),
        list(inst.probabilities()),
        lambda s: inst.inner.is_independent(s),
        lambda s: inst.outer.is_independent(s),
    )
    assert check_claim_lp_opt(sol.objective, opt)
    assert sol.objective >= opt - 1e-6


def test_reported_cuts_carry_true_ranks():
    inst = _random_instance(3)
    sol = solve_probing_lp(inst)
    for cut in sol.cuts:
        system = inst.inner if cut.side == "inner" else inst.outer
        assert cut.rank == system.rank(cut.members)


def test_hand_built_certificate_covers_two_elements():
    inst = make_instance([1, 1], [0.6, 0.3], UniformMatroid(2, 1), UniformMatroid(2, 2))
    cert = DualCertificate.build(inst, alpha={frozenset({0, 1}): 1.0}, beta={})
    check = check_dual(cert, inst)
    assert check.feasible
    # value = alpha weight times inner rank of {0,1} = 1
    assert check.value == pytest.approx(1.0)
    assert check.worst_slack >= -1e-12


def test_beta_singletons_cover_at_exact_cost():
    inst = make_instance(
        [1, 1, 1],
        [0.5, 0.25, 1.0],
        UniformMatroid(3, 3),
        UniformMatroid(3, 2),
    )
    beta = {frozenset({e}): p for e, p in enumerate(inst.probabilities())}
    cert = DualCertificate.build(inst, alpha={}, beta=beta)
    check = check_dual(cert, inst)
    assert check.feasible
    assert check.worst_slack == pytest.approx(0.0, abs=1e-12)
    assert check.value == pytest.approx(sum(inst.probabilities()))


def test_empty_certificate_fails_covering():
    inst = make_instance([1], [0.9], UniformMatroid(1, 1), UniformMatroid(1, 1))
    cert = DualCertificate.build(inst, alpha={}, beta={})
    check = check_dual(cert, inst)
    assert not check.feasible
    assert check.worst_slack == pytest.approx(-0.9)


def test_negative_multiplier_is_rejected():
    inst = make_instance([1], [0.9], UniformMatroid(1, 1), UniformMatroid(1, 1))
    cert = DualCertificate.build(
        inst, alpha={frozenset({0}): 2.0}, beta={frozenset({0}): -0.5}
    )
    assert not check_dual(cert, inst).feasible
    cert = DualCertificate.build(
        inst, alpha={frozenset({0}): -0.5}, beta={frozenset({0}): 2.0}
    )
    check = check_dual(cert, inst)
    assert not check.feasible
    assert check.worst_slack == -0.5


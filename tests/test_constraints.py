"""Constraint systems against brute-force oracles and by-hand examples."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochprobe.constraints import (
    ENUMERATION_LIMIT,
    EXPLICIT_UNIVERSE_LIMIT,
    MASK_TABLE_LIMIT,
    SEPARATION_TOL,
    CapabilityError,
    ConstraintError,
    ExplicitSystem,
    GraphicMatroid,
    IndependenceChecker,
    IntersectionSystem,
    LaminarMatroid,
    PartitionMatroid,
    SubsetWitness,
    UniformMatroid,
    _build_tables,
    mask_of,
    mask_tables,
    ordered_scan,
    set_of,
)
from stochprobe.fixtures import random_system
from stochprobe.instance import make_instance
from stochprobe.lp import solve_probing_lp

from oracles import (
    brute_k_parameter,
    closed_form_rank,
    closed_form_span,
    brute_rank,
    brute_separate,
    brute_span,
    build_tables_reference,
    graph_is_forest,
    powerset,
    rank_by_search_reference,
    separate_by_enumeration_reference,
)


def explicit_from_sets(n, sets):
    return ExplicitSystem(universe_size=n, family=frozenset(mask_of(s, n) for s in sets))


def triangle_matchings():
    # K3 edges 0=(a,b) 1=(b,c) 2=(a,c); matchings are the empty set and singletons
    return explicit_from_sets(3, [[], [0], [1], [2]])


def path_matchings():
    # path a-b-c-d with edges 0=(a,b) 1=(b,c) 2=(c,d); {0,2} is the only pair
    return explicit_from_sets(3, [[], [0], [1], [2], [0, 2]])


# ---------------------------------------------------------------------------
# by-hand examples
# ---------------------------------------------------------------------------


def test_uniform_rank_and_membership():
    m = UniformMatroid(universe_size=5, limit=2)
    assert m.is_independent([0, 4])
    assert not m.is_independent([0, 1, 2])
    assert m.rank([0, 1, 2, 3]) == 2
    assert m.rank([4]) == 1


def test_partition_caps_and_free_elements():
    m = PartitionMatroid(universe_size=5, parts=((0, 1), (2, 3)), capacities=(1, 2))
    assert m.is_independent([0, 2, 3])
    assert not m.is_independent([0, 1])
    # element 4 is outside every part and therefore free
    assert m.rank([0, 1, 4]) == 2
    assert m.rank([0, 1, 2, 3, 4]) == 4


def test_graphic_path_rank():
    # path of 3 edges on 4 vertices, all edges -> rank 3
    m = GraphicMatroid(universe_size=3, vertex_count=4, edges=((0, 1), (1, 2), (2, 3)))
    assert m.rank([0, 1, 2]) == 3
    assert m.is_independent([0, 1, 2])


def test_graphic_cycle_dependent():
    m = GraphicMatroid(universe_size=3, vertex_count=3, edges=((0, 1), (1, 2), (0, 2)))
    assert not m.is_independent([0, 1, 2])
    assert m.rank([0, 1, 2]) == 2


def test_intersection_bipartite_matching_rank():
    # 2x2 bipartite matchings: elements are the four edges (i, j); one partition
    # matroid caps each left vertex, the other caps each right vertex
    left = PartitionMatroid(4, parts=((0, 1), (2, 3)), capacities=(1, 1))
    right = PartitionMatroid(4, parts=((0, 2), (1, 3)), capacities=(1, 1))
    system = IntersectionSystem(members=(left, right))
    assert system.rank([0, 1, 2, 3]) == 2
    assert system.k_parameter() == 2
    assert system.is_independent([0, 3])
    assert not system.is_independent([0, 1])


def test_span_empty_set_collects_rank_zero_elements():
    # loops have rank zero, so they sit in the span of the empty set
    m = GraphicMatroid(universe_size=3, vertex_count=2, edges=((0, 0), (0, 1), (1, 1)))
    assert m.span([]) == {0, 2}


def test_span_partition_saturated_part():
    m = PartitionMatroid(universe_size=4, parts=((0, 1, 2),), capacities=(1,))
    assert m.span([0]) == {0, 1, 2}
    assert m.span([3]) == {3}


def test_separate_triangle_witness():
    m = GraphicMatroid(universe_size=3, vertex_count=3, edges=((0, 1), (1, 2), (0, 2)))
    w = m.separate([0.7, 0.7, 0.7])
    assert w is not None
    assert w.members == {0, 1, 2}
    assert w.value == pytest.approx(2.1)
    assert w.rank == m.rank(w.members) == 2


def test_separate_feasible_point_returns_none():
    m = PartitionMatroid(universe_size=4, parts=((0, 1), (2, 3)), capacities=(1, 1))
    assert m.separate([0.5, 0.5, 0.9, 0.1]) is None


def test_separate_rejects_points_outside_box():
    m = UniformMatroid(universe_size=2, limit=1)
    with pytest.raises(ConstraintError):
        m.separate([1.5, 0.0])


def test_laminar_nested_capacities():
    m = LaminarMatroid(
        universe_size=4, sets=((0, 1), (0, 1, 2, 3)), capacities=(1, 2)
    )
    assert m.is_independent([0, 2])
    assert not m.is_independent([0, 1])
    assert not m.is_independent([1, 2, 3])
    assert m.rank([0, 1, 2, 3]) == 2


def test_laminar_separate_bounds_a_set_by_its_rank():
    # the outer set's capacity 4 exceeds its rank 2 (one element per pair)
    m = LaminarMatroid(
        universe_size=4, sets=((0, 1), (2, 3), (0, 1, 2, 3)), capacities=(1, 1, 4)
    )
    w = m.separate([0.6, 0.6, 0.6, 0.6])
    assert w.members == {0, 1, 2, 3}
    assert w.value == pytest.approx(2.4)
    assert w.rank == m.rank(w.members) == 2


def test_separate_sums_violations_each_within_tolerance():
    # each part exceeds its capacity by exactly the tolerance; together by twice it
    m = PartitionMatroid(universe_size=4, parts=((0, 1, 2), (3,)), capacities=(0, 0))
    w = m.separate([0.0, 0.0, 1e-9, 1e-9])
    assert w is not None
    assert w.members == {0, 1, 2, 3}
    assert w.value == pytest.approx(2e-9)
    assert w.rank == 0
    # nested: element 4 gives the outer set rank 1, so only the two inner
    # sets together are violated by more than the tolerance
    lam = LaminarMatroid(
        universe_size=5, sets=((0, 1), (2, 3), (0, 1, 2, 3, 4)), capacities=(0, 0, 5)
    )
    w = lam.separate([1e-9, 0.0, 0.0, 1e-9, 0.0])
    assert w.members == {0, 1, 2, 3}
    assert w.rank == lam.rank(w.members) == 0
    assert lam.separate([1e-9, 0.0, 0.0, 0.0, 0.0]) is None


def test_laminar_rejects_crossing_sets():
    with pytest.raises(ConstraintError):
        LaminarMatroid(universe_size=3, sets=((0, 1), (1, 2)), capacities=(1, 1))


def test_partition_rejects_overlap():
    with pytest.raises(ConstraintError):
        PartitionMatroid(universe_size=3, parts=((0, 1), (1, 2)), capacities=(1, 1))


def test_explicit_rejects_non_downward_closed():
    with pytest.raises(ConstraintError):
        explicit_from_sets(2, [[], [0, 1]])


def test_explicit_k_parameter_exact_values():
    # Matchings as a class are 2-systems, but exact enumeration tells the
    # triangle apart from the path: every maximal matching of K3 has size 1,
    # so K3's matchings form a 1-system; the 3-edge path genuinely needs k=2.
    assert triangle_matchings().k_parameter() == 1
    assert path_matchings().k_parameter() == 2


def test_intersection_k_parameter_counts_members():
    a = UniformMatroid(3, 2)
    b = PartitionMatroid(3, parts=((0, 1),), capacities=(1,))
    c = GraphicMatroid(3, vertex_count=4, edges=((0, 1), (1, 2), (2, 3)))
    assert IntersectionSystem(members=(a, b)).k_parameter() == 2
    assert IntersectionSystem(members=(a, b, c)).k_parameter() == 3
    # nested intersections flatten
    nested = IntersectionSystem(members=(IntersectionSystem(members=(a, b)), c))
    assert len(nested.members) == 3
    assert nested.k_parameter() == 3


def test_uniform_zero_rank_span_is_everything():
    m = UniformMatroid(universe_size=3, limit=0)
    assert m.span([]) == {0, 1, 2}
    assert m.rank([0, 1]) == 0


# ---------------------------------------------------------------------------
# the one fixed-order scan
# ---------------------------------------------------------------------------


class RecordingChecker(IndependenceChecker):
    """Logs every call to a shared log and refuses the elements in refuse."""

    def __init__(self, name, log, refuse=()):
        self.name, self.log, self.refuse = name, log, set(refuse)

    def can_add(self, e):
        self.log.append((self.name, "can_add", e))
        return e not in self.refuse

    def add(self, e):
        self.log.append((self.name, "add", e))


def test_ordered_scan_asks_in_the_contract_order():
    # probe refuses 1, choose refuses 3, and 2's coin comes up tails
    log = []
    heads = {0: True, 2: False, 4: True}

    def order():
        for e in range(5):
            log.append(("order", e))
            yield e

    def coin(e):
        log.append(("coin", e))
        return heads[e]

    probe = RecordingChecker("probe", log, refuse={1})
    choose = RecordingChecker("choose", log, refuse={3})
    assert ordered_scan(order(), choose, coin, probe) == ([0, 2, 4], [0, 4])
    assert log == [
        ("order", 0),
        ("probe", "can_add", 0), ("choose", "can_add", 0), ("probe", "add", 0),
        ("coin", 0), ("choose", "add", 0),
        ("order", 1),
        ("probe", "can_add", 1),
        ("order", 2),
        ("probe", "can_add", 2), ("choose", "can_add", 2), ("probe", "add", 2),
        ("coin", 2),
        ("order", 3),
        ("probe", "can_add", 3), ("choose", "can_add", 3),
        ("order", 4),
        ("probe", "can_add", 4), ("choose", "can_add", 4), ("probe", "add", 4),
        ("coin", 4), ("choose", "add", 4),
    ]


def test_ordered_scan_without_probe_or_coin():
    log = []
    choose = RecordingChecker("choose", log, refuse={1})
    assert ordered_scan(iter(range(3)), choose) == ([0, 2], [0, 2])
    assert log == [
        ("choose", "can_add", 0), ("choose", "add", 0),
        ("choose", "can_add", 1),
        ("choose", "can_add", 2), ("choose", "add", 2),
    ]
    # a coin alone: everything fits, tails are probed but not chosen
    assert ordered_scan(range(4), UniformMatroid(4, 4).checker(), lambda e: e % 2 == 0) == (
        [0, 1, 2, 3], [0, 2]
    )
    # a probe checker alone: every probe is chosen, within both ranks
    inner, outer = UniformMatroid(4, 3).checker(), UniformMatroid(4, 2).checker()
    assert ordered_scan(range(4), inner, probe=outer) == ([0, 1], [0, 1])
    assert ordered_scan([], inner) == ([], [])


# ---------------------------------------------------------------------------
# oracle cross-checks on a fixed zoo of systems
# ---------------------------------------------------------------------------


def zoo():
    yield UniformMatroid(universe_size=5, limit=2)
    yield PartitionMatroid(5, parts=((0, 1), (2, 3)), capacities=(1, 2))
    yield LaminarMatroid(5, sets=((0, 1), (0, 1, 2), (3, 4)), capacities=(1, 2, 1))
    yield GraphicMatroid(5, vertex_count=4, edges=((0, 1), (1, 2), (0, 2), (2, 3), (3, 3)))
    yield IntersectionSystem(
        members=(
            PartitionMatroid(5, parts=((0, 1, 2),), capacities=(1,)),
            PartitionMatroid(5, parts=((0, 3), (1, 4)), capacities=(1, 1)),
        )
    )
    yield explicit_from_sets(4, [[], [0], [1], [2], [3], [0, 2], [0, 3], [2, 3], [0, 2, 3]])


@pytest.mark.parametrize("system", list(zoo()), ids=lambda s: s.variant)
def test_rank_span_match_bruteforce(system):
    universe = range(system.universe_size)
    indep = lambda t: system.is_independent(t)
    for s in powerset(universe):
        assert system.rank(s) == brute_rank(indep, s)
    for t in powerset(universe):
        assert system.span(t) == brute_span(indep, universe, t)


@pytest.mark.parametrize("system", list(zoo()), ids=lambda s: s.variant)
def test_separate_matches_bruteforce(system):
    universe = range(system.universe_size)
    indep = lambda t: system.is_independent(t)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.random(system.universe_size)
        worst = brute_separate(indep, universe, x)
        witness = system.separate(x)
        if worst > 1e-9:
            assert witness is not None
            assert sum(x[e] for e in witness.members) == pytest.approx(witness.value)
            assert witness.rank == system.rank(witness.members)
            assert witness.value > system.rank(witness.members) + 1e-9
            # returned witness is maximally violated for table-backed variants;
            # for closed-form variants any genuine violation is acceptable
            assert witness.value - system.rank(witness.members) <= worst + 1e-9
        else:
            assert witness is None


@pytest.mark.parametrize("system", list(zoo()), ids=lambda s: s.variant)
def test_k_parameter_upper_bounds_exact_ratio(system):
    universe = range(system.universe_size)
    indep = lambda t: system.is_independent(t)
    assert system.k_parameter() >= brute_k_parameter(indep, universe)


@pytest.mark.parametrize("system", list(zoo()), ids=lambda s: s.variant)
def test_mask_tables_agree_with_public_api(system):
    tables = mask_tables(system)
    n = system.universe_size
    for mask in range(1 << n):
        members = [e for e in range(n) if mask >> e & 1]
        assert bool(tables.independent[mask]) == system.is_independent(members)
        assert int(tables.rank[mask]) == system.rank(members)


@pytest.mark.parametrize("system", list(zoo()), ids=lambda s: s.variant)
def test_numpy_integer_elements(system):
    n = system.universe_size
    for s in powerset(range(n)):
        as_numpy = np.array(sorted(s), dtype=np.int64)
        assert system.is_independent(as_numpy) == system.is_independent(s)
        assert system.rank(list(as_numpy)) == system.rank(s)
        assert system.span(as_numpy) == system.span(s)


def test_numpy_integer_elements_past_63():
    m = UniformMatroid(universe_size=80, limit=1)
    assert m.rank(np.array([70, 79])) == 1
    assert m.span(np.array([70])) == frozenset(range(80))
    assert not m.is_independent(np.array([63, 64]))


# ---------------------------------------------------------------------------
# past the mask-table cap: tables over the queried mask or the support, against
# the rank search and support enumeration they replaced
# ---------------------------------------------------------------------------


def span_reference(system, t):
    base = rank_by_search_reference(system, mask_of(t, system.universe_size))
    return frozenset(
        e for e in range(system.universe_size)
        if e in t or rank_by_search_reference(system, mask_of({*t, e}, system.universe_size)) == base
    )


def test_enumeration_past_mask_tables_matches_references():
    rng = np.random.default_rng(20)
    for case in range(40):
        n = int(rng.integers(MASK_TABLE_LIMIT + 1, ENUMERATION_LIMIT + 1))
        system = random_system(rng, n, members=int(rng.integers(2, 4)))
        support = rng.choice(n, int(rng.integers(0, 13)), replace=False)
        x = np.zeros(n)
        # coarse values tie many excesses, so the tie-break decides the witness
        x[support] = rng.integers(1, 5, len(support)) / 4 if case % 2 else rng.random(len(support))
        witness = system.separate(x)
        expected = separate_by_enumeration_reference(system, x, SEPARATION_TOL)
        assert witness == expected
        if witness is not None:
            assert witness.value.hex() == expected.value.hex()
        for size in (0, 1, 5, 12):
            t = [int(e) for e in rng.choice(n, size, replace=False)]
            assert system.rank(t) == rank_by_search_reference(system, mask_of(t, n))
        t = {int(e) for e in rng.choice(n, int(rng.integers(0, 6)), replace=False)}
        assert system.span(t) == span_reference(system, t)


def test_enumeration_past_mask_tables_keeps_its_caps():
    n = ENUMERATION_LIMIT + 2
    system = IntersectionSystem((UniformMatroid(n, 3), UniformMatroid(n, 4)))
    assert system.rank(range(ENUMERATION_LIMIT)) == 3
    with pytest.raises(CapabilityError, match="exact rank by enumeration capped at 20 elements"):
        system.rank(range(ENUMERATION_LIMIT + 1))
    assert system.separate([0.15] * ENUMERATION_LIMIT + [0.0, 0.0]) is None
    witness = system.separate([0.25] * ENUMERATION_LIMIT + [0.0, 0.0])
    assert witness == SubsetWitness(frozenset(range(ENUMERATION_LIMIT)), 5.0, 3)
    with pytest.raises(CapabilityError, match="separation by enumeration capped at support size 20"):
        system.separate([0.25] * n)


@pytest.mark.parametrize("left, right, values, members", [
    # stars {0, 1, 4} and {0, 2, 3} tie at excess 0.5; the lower mask loses
    (((4,), (1,), (0, 2, 3)), ((0, 1, 4), (3,), (2,)), [0.5] * 5, {0, 1, 4}),
    # stars {2, 4} and {3, 4} tie at excess 0.25; the higher mask loses
    (((0, 1, 2), (3, 4)), ((1,), (2, 4), (0, 3)), [0.25, 0.25, 0.5, 0.5, 0.75], {2, 4}),
])
def test_enumeration_past_mask_tables_breaks_ties_as_the_combination_loop(
    left, right, values, members
):
    # bipartite matchings on edges 0..4, elements 5..16 free: the smallest
    # most violated set wins, then the lexicographically first
    n = MASK_TABLE_LIMIT + 1
    system = IntersectionSystem((
        PartitionMatroid(n, parts=left, capacities=(1,) * len(left)),
        PartitionMatroid(n, parts=right, capacities=(1,) * len(right)),
    ))
    x = np.array(values + [0.0] * (n - 5))
    witness = system.separate(x)
    assert witness.members == members and witness.rank == 1
    assert witness == separate_by_enumeration_reference(system, x, SEPARATION_TOL)
    # below zero tolerance the empty set still never wins
    x = np.array([0.25] + [0.0] * (n - 1))
    expected = SubsetWitness(frozenset({0}), 0.25, 1)
    assert system.separate(x, tol=-1.0) == expected
    assert separate_by_enumeration_reference(system, x, -1.0) == expected


def two_partition_instance(n):
    """Inner: blocks of three consecutive elements (capacity 1) intersected
    with the residues mod 4 (capacity 2); outer: free."""
    blocks = tuple(tuple(range(i, min(i + 3, n))) for i in range(0, n, 3))
    residues = tuple(tuple(range(r, n, 4)) for r in range(4))
    inner = IntersectionSystem((
        PartitionMatroid(n, blocks, (1,) * len(blocks)),
        PartitionMatroid(n, residues, (2,) * 4),
    ))
    weights = [1 + (7 * e % 11) / 4 for e in range(n)]
    probs = [0.3 + (5 * e % 7) / 10 for e in range(n)]
    return make_instance(weights, probs, inner, UniformMatroid(n, n))


def test_lp_over_an_18_element_two_partition_intersection():
    inst = two_partition_instance(18)
    sol = solve_probing_lp(inst)
    assert (sol.objective, sol.rounds, sol.pivots) == (16.375000000000007, 9, 245)
    x = np.asarray(sol.x)
    assert ((x >= -SEPARATION_TOL) & (x <= 1 + SEPARATION_TOL)).all()
    # two partition matroids: their part rows describe the intersection
    # polytope, so they prove x feasible without a 2^14-subset reference scan
    for member in inst.inner.members:
        for part, cap in zip(member.parts, member.capacities):
            assert x[list(part)].sum() <= cap + SEPARATION_TOL


# ---------------------------------------------------------------------------
# greedy rank and span against the closed forms they replaced
# ---------------------------------------------------------------------------


def random_uniform(rng, n, seen):
    limit = int(rng.choice([0, n, n + 2, int(rng.integers(0, n + 1))]))
    seen.add("limit 0" if limit == 0 else "limit >= n" if limit >= n else "limit < n")
    return UniformMatroid(n, limit)


def random_partition(rng, n, seen):
    labels = rng.integers(-1, 4, size=n)  # -1: free element
    parts = [tuple(e for e in range(n) if labels[e] == j) for j in range(4)]
    caps = [int(rng.integers(0, 4)) for _ in parts]
    seen.update(k for k, on in [("free", -1 in labels), ("cap 0", 0 in caps)] if on)
    return PartitionMatroid(n, parts=tuple(parts), capacities=tuple(caps))


def random_laminar(rng, n, seen):
    """Nested or disjoint runs of a shuffled universe, some sets repeated."""
    order = [int(e) for e in rng.permutation(n)]
    sets = []

    def split(lo, hi):
        size = hi - lo
        cuts = sorted(rng.choice(np.arange(lo + 1, hi), min(2, size - 1), replace=False))
        for a, b in zip([lo, *cuts], [*cuts, hi]):
            if rng.random() < 0.6:
                sets.append(tuple(sorted(order[a:b])))
            if b - a > 1 and rng.random() < 0.7:
                split(a, b)

    if n:
        split(0, n)
    sets += [sets[int(i)] for i in rng.integers(0, len(sets), size=min(len(sets), 2))]
    caps = [int(rng.integers(0, len(s) + 2)) for s in sets]
    covered = set().union(*sets)
    seen.update(k for k, on in [("free", len(covered) < n), ("cap 0", 0 in caps)] if on)
    return LaminarMatroid(n, sets=tuple(sets), capacities=tuple(caps))


def random_graphic(rng, n, seen):
    vertices = int(rng.integers(1, 6))
    edges = tuple(tuple(int(v) for v in rng.integers(0, vertices, size=2)) for _ in range(n))
    seen.update(k for k, on in [
        ("loop", any(u == v for u, v in edges)),
        ("parallel", len(set(map(frozenset, edges))) < len(edges)),
    ] if on)
    return GraphicMatroid(n, vertex_count=vertices, edges=edges)


@pytest.mark.parametrize("draw, cases", [
    (random_uniform, {"limit 0", "limit >= n", "limit < n"}),
    (random_partition, {"free", "cap 0"}),
    (random_laminar, {"free", "cap 0"}),
    (random_graphic, {"loop", "parallel"}),
], ids=["uniform", "partition", "laminar", "graphic"])
def test_rank_span_equal_closed_forms(draw, cases):
    rng = np.random.default_rng(2013)
    seen = set()
    for _ in range(25):
        n = int(rng.integers(0, 11))
        system = draw(rng, n, seen)
        for mask in range(1 << n):
            s = [e for e in range(n) if mask >> e & 1]
            assert system.rank(s) == closed_form_rank(system, s)
            assert system.span(s) == closed_form_span(system, s)
    assert seen >= cases


def test_closed_forms_agree_with_brute_force():
    rng = np.random.default_rng(7)
    for draw in (random_uniform, random_partition, random_laminar, random_graphic):
        for _ in range(6):
            n = int(rng.integers(0, 6))
            system = draw(rng, n, set())
            indep = system.is_independent
            for s in powerset(range(n)):
                assert closed_form_rank(system, s) == brute_rank(indep, s)
                assert closed_form_span(system, s) == brute_span(indep, range(n), s)


# ---------------------------------------------------------------------------
# whole-array independence tables against the per-subset loop they replaced
# ---------------------------------------------------------------------------


def random_explicit(rng, n, seen):
    """Every subset of three random masks: downward closed by construction."""
    tops = [int(m) for m in rng.integers(0, 1 << n, size=3)]
    family = frozenset(m for m in range(1 << n) if any(m & ~top == 0 for top in tops))
    return ExplicitSystem(n, family)


def random_intersection(rng, n, seen):
    draws = (random_uniform, random_partition, random_laminar, random_graphic)
    members = [draws[int(i)](rng, n, seen) for i in rng.integers(0, 4, size=int(rng.integers(2, 4)))]
    if len(members) == 3 and rng.random() < 0.5:
        seen.add("nested")
        return IntersectionSystem((IntersectionSystem(tuple(members[:2])), members[2]))
    return IntersectionSystem(tuple(members))


def wide_graphic(rng, n, seen):
    """Up to n + 3 vertices, so some stay isolated, with loops and parallel
    edges mixed in."""
    vertices = int(rng.integers(1, n + 4))
    edges = []
    for _ in range(n):
        u, v = (int(w) for w in rng.integers(0, vertices, size=2))
        kind = rng.random()
        if kind < 0.1:
            v = u
        elif kind < 0.2 and edges:
            u, v = edges[-1]
        edges.append((u, v))
    touched = {w for edge in edges for w in edge}
    seen.update(k for k, on in [
        ("loop", any(u == v for u, v in edges)),
        ("parallel", len(set(map(frozenset, edges))) < len(edges)),
        ("isolated", len(touched) < vertices),
    ] if on)
    return GraphicMatroid(n, vertex_count=vertices, edges=tuple(edges))


TABLE_DRAWS = {
    "uniform": random_uniform, "partition": random_partition, "laminar": random_laminar,
    "graphic": wide_graphic, "explicit": random_explicit, "intersection": random_intersection,
}


def assert_tables_equal(got, expected):
    for name in ("independent", "rank"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", TABLE_DRAWS)
def test_indep_tables_equal_the_per_subset_loop(variant):
    rng = np.random.default_rng(22)
    seen = set()
    for n in range(13):
        for _ in range(3):
            system = TABLE_DRAWS[variant](rng, n, seen)
            assert_tables_equal(mask_tables(system), build_tables_reference(system, range(n)))
            # a subset of the universe in a shuffled order
            elements = [int(e) for e in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
            assert_tables_equal(
                _build_tables(system, elements), build_tables_reference(system, elements)
            )
    if variant == "graphic":
        assert seen >= {"loop", "parallel", "isolated"}
    if variant == "intersection":
        assert "nested" in seen


@pytest.mark.parametrize("k", range(MASK_TABLE_LIMIT + 1, ENUMERATION_LIMIT + 1))
def test_indep_tables_over_supports_past_the_universe_cap(k):
    # low ranks keep the per-subset reference fast: about a second for all five
    n = ENUMERATION_LIMIT + 2
    rng = np.random.default_rng(k)
    support = sorted(int(e) for e in rng.choice(n, k, replace=False))
    blocks = tuple(tuple(support[i::5]) for i in range(5))
    systems = [
        UniformMatroid(n, 4),
        PartitionMatroid(n, blocks[:4], (1, 0, 2, 1)),
        LaminarMatroid(n, (blocks[0], blocks[0] + blocks[1], tuple(range(n))), (2, 3, 5)),
        GraphicMatroid(n, 7, tuple((e % 6, e * e % 6) for e in range(n))),
    ]
    systems.append(IntersectionSystem((systems[k % 4], systems[(k + 1) % 4])))
    for system in systems:
        assert_tables_equal(_build_tables(system, support), build_tables_reference(system, support))


def brute_independent(system):
    """Membership from the members' closed-form ranks, no tables."""
    return lambda s: all(closed_form_rank(m, s) == len(s) for m in system.members)


@pytest.mark.parametrize("sizes", [range(0, MASK_TABLE_LIMIT - 3), range(17, 19)],
                         ids=["tables", "scalar"])
def test_intersection_span_and_membership_match_brute_force(sizes):
    rng = np.random.default_rng(2022)
    for _ in range(20):
        n = int(rng.choice(sizes))
        system = random_intersection(rng, n, set())
        indep = brute_independent(system)
        for _ in range(40):
            s = set_of(int(rng.integers(0, 1 << n)))
            assert system.is_independent(s) == indep(s)
        for size in (0, 1, 3, 5):
            t = frozenset(int(e) for e in rng.choice(n, min(size, n), replace=False))
            assert system.span(t) == brute_span(indep, range(n), t)


# every input check and cap of this module, with its exception and message
CHECKS = [
    (lambda: UniformMatroid(-1, 0), ConstraintError,
     "uniform matroid needs universe_size >= 0 and limit >= 0"),
    (lambda: UniformMatroid(3, -1), ConstraintError,
     "uniform matroid needs universe_size >= 0 and limit >= 0"),
    (lambda: PartitionMatroid(3, ((0,),), (1, 1)), ConstraintError,
     "parts and capacities must have equal length"),
    (lambda: PartitionMatroid(3, ((3,),), (1,)), ConstraintError,
     "element 3 outside universe of size 3"),
    (lambda: PartitionMatroid(3, ((0, 1), (1, 2)), (1, 1)), ConstraintError,
     "partition parts overlap"),
    (lambda: PartitionMatroid(3, ((0,),), (-1,)), ConstraintError, "negative capacity"),
    (lambda: LaminarMatroid(3, ((0,),), ()), ConstraintError,
     "sets and capacities must have equal length"),
    (lambda: LaminarMatroid(3, ((0,),), (-1,)), ConstraintError, "negative capacity"),
    (lambda: LaminarMatroid(3, ((0, -1),), (1,)), ConstraintError,
     "element -1 outside universe of size 3"),
    (lambda: LaminarMatroid(3, ((0, 1), (1, 2)), (1, 1)), ConstraintError,
     "laminar family violates nesting"),
    (lambda: GraphicMatroid(2, 3, ((0, 1),)), ConstraintError, "one edge per element required"),
    (lambda: GraphicMatroid(1, 2, ((0, 2),)), ConstraintError,
     "edge endpoint outside vertex range"),
    (lambda: GraphicMatroid(1, 2, ((-1, 0),)), ConstraintError,
     "edge endpoint outside vertex range"),
    (lambda: IntersectionSystem(()), ConstraintError, "intersection needs at least one member"),
    (lambda: IntersectionSystem((UniformMatroid(2, 1), UniformMatroid(3, 1))), ConstraintError,
     "intersection members disagree on universe size"),
    (lambda: ExplicitSystem(EXPLICIT_UNIVERSE_LIMIT + 1, frozenset({0})), CapabilityError,
     "explicit variant capped at universe size 15"),
    (lambda: ExplicitSystem(2, frozenset({1})), ConstraintError,
     "explicit family must contain the empty set"),
    (lambda: ExplicitSystem(2, frozenset({0, 4})), ConstraintError,
     "family mask outside universe"),
    (lambda: ExplicitSystem(2, frozenset({0, 3})), ConstraintError,
     "explicit family is not downward closed"),
    (lambda: mask_tables(UniformMatroid(MASK_TABLE_LIMIT + 1, 1)), CapabilityError,
     "mask tables capped at universe size 16"),
]


@pytest.mark.parametrize("build, error, message", CHECKS)
def test_input_checks_and_caps_name_themselves(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def random_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["uniform", "partition", "graphic", "laminar"]))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(min_value=0, max_value=n)))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        parts = [tuple(e for e in range(n) if labels[e] == j) for j in range(3)]
        parts = [p for p in parts if p]
        caps = tuple(draw(st.integers(0, 2)) for _ in parts)
        return PartitionMatroid(n, parts=tuple(parts), capacities=caps)
    if kind == "graphic":
        vertices = draw(st.integers(min_value=1, max_value=4))
        edges = tuple(
            (draw(st.integers(0, vertices - 1)), draw(st.integers(0, vertices - 1)))
            for _ in range(n)
        )
        return GraphicMatroid(n, vertex_count=vertices, edges=edges)
    # laminar: a chain plus disjoint leftovers is always laminar
    cut = draw(st.integers(min_value=1, max_value=n))
    sets = (tuple(range(cut)), tuple(range(n)))
    caps = (draw(st.integers(0, 2)), draw(st.integers(0, n)))
    return LaminarMatroid(n, sets=sets, capacities=caps)


@given(random_systems(), st.data())
@settings(max_examples=120, deadline=None)
def test_downward_closure(system, data):
    n = system.universe_size
    s = data.draw(st.sets(st.integers(0, n - 1)))
    if system.is_independent(s):
        for e in list(s):
            assert system.is_independent(s - {e})


@given(random_systems(), st.data())
@settings(max_examples=120, deadline=None)
def test_matroid_exchange(system, data):
    n = system.universe_size
    a = data.draw(st.sets(st.integers(0, n - 1)))
    b = data.draw(st.sets(st.integers(0, n - 1)))
    if system.is_independent(a) and system.is_independent(b) and len(a) < len(b):
        assert any(system.is_independent(a | {e}) for e in b - a)


@given(random_systems(), st.data())
@settings(max_examples=120, deadline=None)
def test_rank_is_monotone_and_subadditive_in_size(system, data):
    n = system.universe_size
    s = data.draw(st.sets(st.integers(0, n - 1)))
    t = data.draw(st.sets(st.integers(0, n - 1)))
    rs, rt = system.rank(s), system.rank(t)
    assert system.rank(s | t) >= max(rs, rt)
    assert rs <= len(s)
    if s <= t:
        assert rs <= rt


@given(random_systems(), st.data())
@settings(max_examples=120, deadline=None)
def test_span_rank_bound(system, data):
    # rank(span(T)) <= k * |T| for a k-system
    n = system.universe_size
    t = data.draw(st.sets(st.integers(0, n - 1)))
    k = system.k_parameter()
    assert system.rank(system.span(t)) <= k * len(t)


@given(random_systems(), st.data())
@settings(max_examples=80, deadline=None)
def test_separate_none_iff_all_rank_constraints_hold(system, data):
    n = system.universe_size
    x = [data.draw(st.floats(0, 1)) for _ in range(n)]
    witness = system.separate(x)
    indep = lambda t: system.is_independent(t)
    worst = brute_separate(indep, range(n), x)
    assert (witness is None) == (worst <= 1e-9)
    if witness is not None:
        assert witness.rank == system.rank(witness.members)


def parallel_paths(n_paths):
    # u=0, v=1, middles 2..; per path edges (u,m_i),(m_i,v); one direct (u,v)
    edges = []
    for i in range(n_paths):
        edges.append((0, 2 + i))
        edges.append((2 + i, 1))
    edges.append((0, 1))
    return GraphicMatroid(
        universe_size=len(edges), vertex_count=2 + n_paths, edges=tuple(edges)
    )


def test_graphic_separate_scales_past_enumeration():
    # 21 edges, beyond both the mask tables and the support-enumeration cap
    m = parallel_paths(10)
    x = [0.51] * 20 + [1.0]
    w = m.separate(x)
    assert w is not None
    # worst set is the whole graph: 11.2 mass against a spanning tree of 11
    assert w.rank == m.rank(w.members)
    assert w.value - w.rank == pytest.approx(0.2)
    tight = [0.5] * 20 + [1.0]
    assert m.separate(tight) is None


def test_graphic_separate_weak_violation_in_far_component():
    # two components; the violated triangle must be found from its own roots
    edges = ((0, 1), (2, 3), (3, 4), (2, 4))
    m = GraphicMatroid(universe_size=4, vertex_count=5, edges=edges)
    w = m.separate([0.1, 0.7, 0.7, 0.7])
    assert w is not None
    assert w.members == {1, 2, 3}
    assert w.value == pytest.approx(2.1)
    assert w.rank == m.rank(w.members) == 2


def test_graphic_separate_flags_self_loop_mass():
    m = GraphicMatroid(universe_size=2, vertex_count=2, edges=((0, 1), (1, 1)))
    w = m.separate([0.2, 0.3])
    assert w is not None
    assert w.members == {1}
    assert w.value == pytest.approx(0.3)
    assert w.rank == m.rank(w.members) == 0
    assert m.separate([1.0, 0.0]) is None

"""Posted-price auctions as probing: the copy construction, the two LPs
that bracket truthful revenue, the curve-to-point transform, and the
mechanism extracted from one rounding draw."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_rank, lp_oracle, spm_lp_m_oracle, spm_revenue_oracle
from stochprobe import lp
from stochprobe.auction import (
    AuctionSpec,
    SpmMechanism,
    build_probing_instance,
    build_spm,
    evaluate_spm,
    lift_to_copies,
    mechanism_objective,
    mechanism_to_probing_point,
    probing_point_is_feasible,
    solve_lp_m,
    solve_lp_p,
)
from stochprobe.constraints import (
    CapabilityError,
    ConstraintError,
    ExplicitSystem,
    GraphicMatroid,
    IntersectionSystem,
    LaminarMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.fixtures import spm_matching_fixture, spm_uniform_fixture
from stochprobe.lp import LpEngineError


def uniform12_spec(agents: int = 1, rank: int = 1) -> AuctionSpec:
    """Each agent uniform on {1, 2}; serve at most `rank` of them."""
    return AuctionSpec(
        distributions=((0.0, 0.5, 0.5),) * agents,
        feasibility=UniformMatroid(agents, rank),
    )


def feas_indep(spec):
    return lambda s: spec.feasibility.is_independent(s)


def oracle_lp_p(spec):
    """Independent LP_P value: brute lifted predicates, every copy-subset
    rank row, scipy."""
    instance = build_probing_instance(spec)

    def agents_of(t):
        return [spec.agent_price(e)[0] for e in t]

    def lifted(t):
        agents = agents_of(t)
        if len(set(agents)) != len(agents):
            return False
        return spec.feasibility.is_independent(frozenset(agents))

    def outer(t):
        agents = agents_of(t)
        return len(set(agents)) == len(agents)

    return lp_oracle(
        instance.weights(),
        instance.probabilities(),
        lambda s: brute_rank(lifted, s),
        lambda s: brute_rank(outer, s),
    )


mass_rows = st.lists(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    min_size=1,
    max_size=3,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestAuctionSpec:
    def test_survival_uniform12(self):
        spec = uniform12_spec()
        assert spec.survival(0) == pytest.approx([1.0, 1.0, 0.5], abs=0)

    def test_survival_at_zero_is_one(self):
        spec = AuctionSpec(((0.25, 0.75),), UniformMatroid(1, 1))
        assert spec.survival(0)[0] == 1.0

    def test_deterministic_value_is_a_step(self):
        spec = AuctionSpec(((0.0, 0.0, 1.0, 0.0),), UniformMatroid(1, 1))
        assert spec.survival(0) == pytest.approx([1.0, 1.0, 1.0, 0.0], abs=0)

    @given(mass_rows)
    @settings(max_examples=60, deadline=None)
    def test_survival_is_a_monotone_chain_from_one(self, rows):
        dists = tuple(tuple(m / sum(row) for m in row) for row in rows)
        spec = AuctionSpec(dists, UniformMatroid(len(dists), 1))
        for i in range(spec.n):
            surv = spec.survival(i)
            assert surv[0] == 1.0
            assert np.all(np.diff(surv) <= 1e-12)
            assert np.all((surv >= 0.0) & (surv <= 1.0))

    def test_copy_index_round_trip(self):
        spec = uniform12_spec(agents=3)
        for agent in range(3):
            for price in range(3):
                e = agent * (spec.B + 1) + price
                assert spec.agent_price(e) == (agent, price)

    def test_rejects_bad_masses(self):
        with pytest.raises(ConstraintError):
            AuctionSpec(((0.5, 0.4),), UniformMatroid(1, 1))
        with pytest.raises(ConstraintError):
            AuctionSpec(((1.2, -0.2),), UniformMatroid(1, 1))
        with pytest.raises(ConstraintError):
            AuctionSpec(((0.5, 0.5), (1.0,)), UniformMatroid(2, 1))
        with pytest.raises(ConstraintError):
            AuctionSpec((), UniformMatroid(1, 1))
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConstraintError, match="agent 0 has a non-finite mass"):
                AuctionSpec(((bad, 0.5, 0.5),), UniformMatroid(1, 1))
            with pytest.raises(ConstraintError, match="agent 1 has a non-finite mass"):
                AuctionSpec(((0.5, 0.5), (bad, 1.0)), UniformMatroid(2, 1))

    def test_rejects_mismatched_feasibility_universe(self):
        with pytest.raises(ConstraintError):
            AuctionSpec(((0.5, 0.5),), UniformMatroid(2, 1))


class TestLiftToCopies:
    def check_lift(self, system, copies):
        lifted = lift_to_copies(system, copies)
        n = system.universe_size
        assert lifted.universe_size == n * copies
        for mask in range(1 << (n * copies)):
            chosen = frozenset(e for e in range(n * copies) if mask >> e & 1)
            agents = [e // copies for e in chosen]
            expect = len(set(agents)) == len(agents) and system.is_independent(
                frozenset(agents)
            )
            assert lifted.is_independent(chosen) == expect, chosen

    def test_uniform(self):
        self.check_lift(UniformMatroid(3, 2), 2)

    def test_partition(self):
        system = PartitionMatroid(4, parts=((0, 1), (2, 3)), capacities=(1, 2))
        self.check_lift(system, 2)

    def test_laminar(self):
        system = LaminarMatroid(3, sets=((0, 1), (0, 1, 2)), capacities=(1, 2))
        self.check_lift(system, 3)

    def test_graphic_triangle(self):
        system = GraphicMatroid(3, vertex_count=3, edges=((0, 1), (1, 2), (2, 0)))
        self.check_lift(system, 2)

    def test_intersection(self):
        system = IntersectionSystem(
            members=(
                UniformMatroid(3, 2),
                PartitionMatroid(3, parts=((0, 1), (2,)), capacities=(1, 1)),
            )
        )
        self.check_lift(system, 2)

    def test_rank_aggregates_to_agent_space(self):
        system = LaminarMatroid(3, sets=((0, 1), (0, 1, 2)), capacities=(1, 2))
        lifted = lift_to_copies(system, 3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            mask = int(rng.integers(0, 1 << 9))
            chosen = frozenset(e for e in range(9) if mask >> e & 1)
            agents = frozenset(e // 3 for e in chosen)
            assert lifted.rank(chosen) == system.rank(agents)

    def test_explicit_systems_do_not_lift(self):
        system = ExplicitSystem(2, family=(0, 1))
        with pytest.raises(CapabilityError):
            lift_to_copies(system, 2)


class TestBuildProbingInstance:
    def test_uniform12_weights_and_probabilities(self):
        instance = build_probing_instance(uniform12_spec())
        assert instance.weights() == pytest.approx([0.0, 1.0, 2.0], abs=0)
        assert instance.probabilities() == pytest.approx([1.0, 1.0, 0.5], abs=0)

    def test_outer_allows_one_copy_per_agent(self):
        instance = build_probing_instance(uniform12_spec(agents=2))
        assert instance.outer.is_independent({0, 3})
        assert not instance.outer.is_independent({0, 1})

    def test_inner_enforces_lifted_feasibility(self):
        # two agents, only one may be served
        instance = build_probing_instance(uniform12_spec(agents=2, rank=1))
        assert instance.inner.is_independent({2})
        assert not instance.inner.is_independent({2, 5})
        assert not instance.inner.is_independent({1, 2})


class TestSolveLpP:
    def test_single_agent_uniform12(self):
        assert solve_lp_p(uniform12_spec()).objective == pytest.approx(1.0, abs=1e-9)

    def test_two_identical_agents_rank_one(self):
        # both agents can be half-served at price 2 ex ante
        assert solve_lp_p(uniform12_spec(agents=2)).objective == pytest.approx(
            2.0, abs=1e-9
        )

    def test_all_zero_valuations(self):
        spec = AuctionSpec(((1.0,), (1.0,)), UniformMatroid(2, 1))
        solution = solve_lp_p(spec)
        assert solution.objective == 0.0
        assert solution.y == (0.0, 0.0)

    def test_matches_copy_space_oracle_uniform(self):
        for seed in range(5):
            spec = spm_uniform_fixture(seed, agents=3, max_value=2, rank=1 + seed % 2)
            got = solve_lp_p(spec).objective
            assert got == pytest.approx(oracle_lp_p(spec), abs=1e-7)

    def test_matches_copy_space_oracle_matching(self):
        for seed in range(3):
            spec = spm_matching_fixture(seed, left=2, right=2, max_value=1)
            got = solve_lp_p(spec).objective
            assert got == pytest.approx(oracle_lp_p(spec), abs=1e-7)

    def test_solution_point_is_feasible_and_consistent(self):
        for seed in range(4):
            spec = spm_uniform_fixture(seed, agents=4, max_value=3, rank=2)
            solution = solve_lp_p(spec)
            y = np.array(solution.y)
            assert probing_point_is_feasible(spec, y, tol=1e-7)
            probs = build_probing_instance(spec).probabilities()
            assert np.array(solution.x) == pytest.approx(probs * y, abs=1e-12)


@pytest.mark.parametrize("solve", [solve_lp_p, solve_lp_m])
def test_round_cap_is_read_from_lp(monkeypatch, solve):
    # both agents always value 2 and only one may be served: the first
    # optimum serves both, so a cut is needed
    spec = AuctionSpec(((0.0, 0.0, 1.0),) * 2, UniformMatroid(2, 1))
    assert solve(spec).objective == pytest.approx(2.0, abs=1e-9)
    monkeypatch.setattr(lp, "MAX_CUT_ROUNDS", 1)
    with pytest.raises(LpEngineError, match="in 1 rounds"):
        solve(spec)


class TestSolveLpM:
    def test_single_agent_uniform12(self):
        solution = solve_lp_m(uniform12_spec())
        assert solution.objective == pytest.approx(1.0, abs=1e-9)
        z = np.array(solution.z[0])
        assert np.all(np.diff(z) >= -1e-9)

    def test_two_identical_agents_rank_one(self):
        assert solve_lp_m(uniform12_spec(agents=2)).objective == pytest.approx(
            2.0, abs=1e-9
        )

    def test_matches_mechanism_oracle(self):
        for seed in range(5):
            spec = spm_uniform_fixture(seed, agents=3, max_value=3, rank=1 + seed % 2)
            got = solve_lp_m(spec).objective
            want = spm_lp_m_oracle(spec.distributions, feas_indep(spec))
            assert got == pytest.approx(want, abs=1e-7)
        for seed in range(3):
            spec = spm_matching_fixture(seed, left=2, right=2, max_value=2)
            got = solve_lp_m(spec).objective
            want = spm_lp_m_oracle(spec.distributions, feas_indep(spec))
            assert got == pytest.approx(want, abs=1e-7)

    def test_objective_matches_payment_identity_form(self):
        # raw payment identity: the value-c type pays c*z_c minus the rents
        # sum_{h<c} z_h, weighted by Pr[v=c]; the package collects per point
        def raw_revenue(spec, z):
            total = 0.0
            for i, dist in enumerate(spec.distributions):
                for val, mass in enumerate(dist):
                    total += mass * (val * z[i][val] - sum(z[i][h] for h in range(val)))
            return total

        rng = np.random.default_rng(5)
        for seed in range(4):
            spec = spm_uniform_fixture(seed, agents=4, max_value=4, rank=2)
            solution = solve_lp_m(spec)
            assert raw_revenue(spec, solution.z) == pytest.approx(solution.objective, abs=1e-9)
            assert mechanism_objective(spec, solution.z) == pytest.approx(
                raw_revenue(spec, solution.z), abs=1e-9
            )
            curves = np.sort(rng.uniform(0.0, 1.0, size=(spec.n, spec.B + 1)), axis=1)
            assert mechanism_objective(spec, curves) == pytest.approx(
                raw_revenue(spec, curves), abs=1e-9
            )

    def test_probing_relaxation_dominates_mechanism_relaxation(self):
        specs = [
            spm_uniform_fixture(seed, agents=4, max_value=3, rank=2)
            for seed in range(4)
        ] + [spm_matching_fixture(seed, left=2, right=3, max_value=3) for seed in range(3)]
        for spec in specs:
            assert solve_lp_p(spec).objective >= solve_lp_m(spec).objective - 1e-6


def random_feasible_curves(spec, rng):
    """Monotone curves scaled into the feasibility polytope by bisection."""
    width = spec.B + 1
    z = np.sort(rng.uniform(0.0, 1.0, size=(spec.n, width)), axis=1)
    masses = np.array([list(d) for d in spec.distributions])

    def inside(t):
        served = (masses * (t * z)).sum(axis=1)
        return spec.feasibility.separate(np.minimum(served, 1.0)) is None

    if inside(1.0):
        return z
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.999 * lo * z


class TestMechanismToProbingPoint:
    def test_threshold_curve_maps_to_single_price(self):
        spec = uniform12_spec()
        y = mechanism_to_probing_point(spec, ((0.0, 0.0, 1.0),))
        assert y == pytest.approx([0.0, 0.0, 1.0], abs=0)

    def test_increments_telescope(self):
        spec = uniform12_spec()
        y = mechanism_to_probing_point(spec, ((0.2, 0.2, 0.7),))
        assert y == pytest.approx([0.2, 0.0, 0.5], abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_partial_sums_recover_the_curve(self, levels):
        curve = tuple(sorted(levels))
        spec = AuctionSpec(
            distributions=((1.0 / len(curve),) * len(curve),),
            feasibility=UniformMatroid(1, 1),
        )
        y = mechanism_to_probing_point(spec, (curve,))
        assert np.cumsum(y) == pytest.approx(np.array(curve), abs=1e-9)

    def test_random_curves_transform_feasibly_and_keep_value(self):
        rng = np.random.default_rng(11)
        specs = [
            spm_uniform_fixture(seed, agents=3, max_value=3, rank=1 + seed % 3)
            for seed in range(5)
        ] + [spm_matching_fixture(seed, left=2, right=2, max_value=2) for seed in range(3)]
        checked = 0
        for spec in specs:
            probs = build_probing_instance(spec).probabilities()
            weights = build_probing_instance(spec).weights()
            for _ in range(5):
                z = random_feasible_curves(spec, rng)
                y = mechanism_to_probing_point(spec, z)
                assert probing_point_is_feasible(spec, y, tol=1e-9)
                probing_value = float(np.dot(weights * probs, y))
                assert probing_value == pytest.approx(
                    mechanism_objective(spec, z), abs=1e-9
                )
                checked += 1
        assert checked == 40

    def test_rejects_non_monotone_curves(self):
        spec = uniform12_spec()
        with pytest.raises(ConstraintError):
            mechanism_to_probing_point(spec, ((0.5, 0.2, 0.8),))
        with pytest.raises(ConstraintError):
            mechanism_to_probing_point(spec, ((0.0, 0.5, 1.2),))
        with pytest.raises(ConstraintError):
            mechanism_to_probing_point(spec, ((0.0, 1.0),))


class TestBuildSpm:
    def test_single_agent_offer_has_a_real_price(self):
        spec = uniform12_spec()
        solution = solve_lp_p(spec)
        seen = set()
        for seed in range(30):
            mechanism = build_spm(spec, seed=seed, solution=solution)
            assert len(mechanism.offers) <= 1
            for agent, price in mechanism.offers:
                assert agent == 0
                assert price in (1, 2)
                seen.add(price)
        assert seen  # the b = 1/3 coin lands within 30 seeds

    def test_all_zero_valuations_yield_empty_mechanism(self):
        spec = AuctionSpec(((1.0,), (1.0,)), UniformMatroid(2, 1))
        for seed in range(10):
            assert build_spm(spec, seed=seed).offers == ()

    def test_never_offers_price_zero_or_repeats_agents(self):
        for seed in range(12):
            spec = spm_uniform_fixture(seed, agents=5, max_value=3, rank=2)
            mechanism = build_spm(spec, seed=seed)
            agents = [agent for agent, _ in mechanism.offers]
            assert len(set(agents)) == len(agents)
            assert all(price >= 1 for _, price in mechanism.offers)

    def test_deterministic_in_seed(self):
        spec = spm_uniform_fixture(2, agents=4, max_value=3, rank=2)
        solution = solve_lp_p(spec)
        a = build_spm(spec, seed=7, solution=solution)
        b = build_spm(spec, seed=7, solution=solution)
        assert a == b
        draws = {build_spm(spec, seed=s, solution=solution).offers for s in range(20)}
        assert len(draws) > 1

    def test_provided_solution_matches_internal_solve(self):
        spec = spm_uniform_fixture(4, agents=3, max_value=2, rank=1)
        assert build_spm(spec, seed=3) == build_spm(
            spec, seed=3, solution=solve_lp_p(spec)
        )


class TestSpmMechanism:
    def test_rejects_duplicate_offers(self):
        with pytest.raises(ConstraintError):
            SpmMechanism(offers=((0, 1), (0, 2)))

    def test_rejects_negative_prices(self):
        with pytest.raises(ConstraintError):
            SpmMechanism(offers=((0, -1),))


class TestEvaluateSpm:
    def test_single_offer_at_price_two(self):
        report = evaluate_spm(SpmMechanism(offers=((0, 2),)), uniform12_spec())
        assert report.mean == pytest.approx(1.0, abs=0)
        assert report.radius == 0.0
        assert report.method == "exact"

    def test_price_zero_offer_is_free_but_consumes_capacity(self):
        spec = uniform12_spec(agents=2, rank=1)
        alone = evaluate_spm(SpmMechanism(offers=((0, 0),)), spec)
        assert alone.mean == 0.0
        blocked = evaluate_spm(SpmMechanism(offers=((0, 0), (1, 2))), spec)
        assert blocked.mean == 0.0

    def test_offer_above_the_support_never_sells(self):
        report = evaluate_spm(SpmMechanism(offers=((0, 9),)), uniform12_spec())
        assert report.mean == 0.0

    def test_exact_matches_profile_enumeration(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            spec = spm_uniform_fixture(seed + 20, agents=4, max_value=3, rank=2)
            count = int(rng.integers(1, 5))
            agents = [int(a) for a in rng.permutation(4)[:count]]
            offers = tuple((a, int(rng.integers(0, 5))) for a in agents)
            got = evaluate_spm(SpmMechanism(offers=offers), spec).mean
            want = spm_revenue_oracle(offers, spec.distributions, feas_indep(spec))
            assert got == pytest.approx(want, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        spec = spm_matching_fixture(1, left=2, right=2, max_value=3)
        mechanism = build_spm(spec, seed=5)
        exact = evaluate_spm(mechanism, spec).mean
        mc = evaluate_spm(mechanism, spec, mode="monte_carlo", trials=4000, seed=0)
        assert abs(mc.mean - exact) <= 4.0 * mc.radius + 0.01

    def test_monte_carlo_is_deterministic_in_seed(self):
        spec = spm_uniform_fixture(9, agents=3, max_value=2, rank=1)
        mechanism = SpmMechanism(offers=((0, 1), (2, 2)))
        a = evaluate_spm(mechanism, spec, mode="monte_carlo", trials=500, seed=4)
        b = evaluate_spm(mechanism, spec, mode="monte_carlo", trials=500, seed=4)
        assert (a.mean, a.radius) == (b.mean, b.radius)

    def test_revenue_never_beats_the_mechanism_relaxation(self):
        for seed in range(6):
            spec = spm_uniform_fixture(seed, agents=4, max_value=3, rank=2)
            bound = solve_lp_m(spec).objective
            mechanism = build_spm(spec, seed=seed)
            assert evaluate_spm(mechanism, spec).mean <= bound + 1e-9

    def test_argument_validation(self):
        spec = uniform12_spec()
        mechanism = SpmMechanism(offers=((0, 1),))
        with pytest.raises(ConstraintError):
            evaluate_spm(mechanism, spec, mode="closed_form")
        with pytest.raises(ConstraintError):
            evaluate_spm(mechanism, spec, mode="monte_carlo", trials=0)
        big = AuctionSpec(((0.5, 0.5),) * 13, UniformMatroid(13, 2))
        with pytest.raises(CapabilityError):
            evaluate_spm(SpmMechanism(offers=((0, 1),)), big)


class TestRevenueGuarantee:
    def run_bound(self, spec, k, draws=100):
        solution = solve_lp_p(spec)
        bound = solve_lp_m(spec).objective / (4 * k + 2)
        revenues = [
            evaluate_spm(build_spm(spec, seed=s, solution=solution), spec).mean
            for s in range(draws)
        ]
        return float(np.mean(revenues)), bound

    def test_one_matroid_feasibility(self):
        spec = spm_uniform_fixture(3, agents=4, max_value=3, rank=2)
        mean, bound = self.run_bound(spec, k=1)
        assert mean >= bound - 1e-3

    def test_matching_feasibility(self):
        spec = spm_matching_fixture(5, left=2, right=2, max_value=3)
        mean, bound = self.run_bound(spec, k=2)
        assert mean >= bound - 1e-3

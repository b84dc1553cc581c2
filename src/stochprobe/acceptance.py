"""Acceptance checks: every advertised bound re-verified from scratch.

Each numbered check builds its own fixtures, runs the relevant policy or
scheme, and compares against the stated bound at the stated tolerance:
exact claims get 1e-9 (ratios, duals, transforms) or 1e-6 (LP comparisons)
of slack, Monte Carlo claims get three standard errors. run_all shares the
random-instance suite between the three checks that consume it; every check
also runs standalone. Check 11 reconstructs the bad-ordering examples at
their published size, where the separation does not actually hold yet (the
blocking probabilities are asymptotic); it is expected to fail and the
companion closed forms in fixtures show the same policies separating at
larger n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .auction import (
    AuctionSpec,
    build_probing_instance,
    build_spm,
    evaluate_spm,
    mechanism_objective,
    mechanism_to_probing_point,
    probing_point_is_feasible,
    solve_lp_m,
    solve_lp_p,
)
from .constraints import (
    ConstraintError,
    GraphicMatroid,
    IntersectionSystem,
    PartitionMatroid,
)
from .crschemes import (
    CrSchemeSpec,
    exact_partition_marginal,
    partition_marginal_lower_bound,
    verify_scheme,
)
from .evaluate import THREE_SIGMA_RADII, optimal_adaptive, permutation_policy, simulate
from .fixtures import (
    load_appendix_fixtures,
    random_instance,
    spm_matching_fixture,
    spm_uniform_fixture,
    tightness_instance,
)
from .greedy import (
    audit_certificates,
    enumerate_greedy_deadline_paths,
    exact_greedy_deadline_value,
    exact_greedy_value,
    run_greedy,
)
from .instance import ProbingInstance
from .lp import check_claim_lp_opt, solve_probing_lp
from .rounding import default_config, estimate_policy_value, exact_chosen_marginals

RATIO_COUNT = 200
WEIGHTED_COUNT = 50
DEADLINE_COUNT = 100
TRANSFORM_COUNT = 100
SPM_DRAWS = 100
SCHEME_TRIALS = 100_000
VALUE_TRIALS = 100_000


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number:2d} {self.name}: {flag}"
            f" ({self.details}; {self.elapsed:.1f}s)"
        )


def _sigma3(report) -> float:
    return THREE_SIGMA_RADII * report.radius


# ---------------------------------------------------------------------------
# shared random-instance suite (checks 1, 2, 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioCase:
    instance: ProbingInstance
    k_in: int
    k_out: int
    greedy_value: float
    optimum: float


def build_ratio_suite(seed: int = 0, count: int = RATIO_COUNT) -> tuple[RatioCase, ...]:
    """Unweighted instances, inner partition/graphic members, |V| <= 10."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        idx = len(cases)
        n = int(rng.integers(4, 11))
        k_in = 1 + idx % 2
        k_out = 1 + (idx // 2) % 2
        instance = random_instance(
            rng,
            n,
            inner_members=k_in,
            outer_members=k_out,
            weighted=False,
            inner_kinds=("partition", "graphic"),
        )
        cases.append(
            RatioCase(
                instance=instance,
                k_in=k_in,
                k_out=k_out,
                greedy_value=exact_greedy_value(instance),
                optimum=optimal_adaptive(instance),
            )
        )
    return tuple(cases)


def check_unweighted_ratio(suite: Sequence[RatioCase]) -> tuple[bool, str]:
    worst = np.inf
    for case in suite:
        margin = case.greedy_value - case.optimum / (case.k_in + case.k_out)
        worst = min(worst, margin)
    return worst >= -1e-9, f"{len(suite)} instances, worst margin {worst:.2e}"


def check_dual_certificates(suite: Sequence[RatioCase]) -> tuple[bool, str]:
    paths = 0
    worst_path = np.inf
    worst_mix = np.inf
    ok = True
    for case in suite:
        audit = audit_certificates(case.instance)
        paths += len(audit.paths)
        worst_path = min(worst_path, audit.worst_path_slack)
        worst_mix = min(worst_mix, audit.mixture_cap - audit.mixture_check.value)
        ok = ok and audit.holds
    details = (
        f"{paths} paths, worst path slack {worst_path:.2e}, "
        f"worst mixture slack {worst_mix:.2e}"
    )
    return ok, details


def check_lp_upper_bound(suite: Sequence[RatioCase]) -> tuple[bool, str]:
    worst = np.inf
    ok = True
    for case in suite:
        objective = solve_probing_lp(case.instance).objective
        worst = min(worst, objective - case.optimum)
        if not check_claim_lp_opt(objective, case.optimum, tol=1e-6):
            ok = False
    return ok, f"{len(suite)} fixtures, worst LP - OPT = {worst:.2e}"


# ---------------------------------------------------------------------------
# standalone checks
# ---------------------------------------------------------------------------


def check_tightness() -> tuple[bool, str]:
    fixture = tightness_instance(7)
    instance = fixture.instance
    if instance.n < 27:
        return False, f"fixture too small ({instance.n} elements)"
    if not (
        instance.inner.is_independent(fixture.good_set)
        and instance.outer.is_independent(fixture.good_set)
    ):
        return False, "good set is not feasible"
    # all p = 1: the greedy run is deterministic
    path = run_greedy(instance, [True] * instance.n)
    greedy = path.realized_value(instance.weights())
    ratio = greedy / fixture.optimal_value
    return ratio <= 1.0 / 3.0 + 0.1, f"greedy/OPT = {greedy:.0f}/{fixture.optimal_value:.0f} = {ratio:.4f}"


def _k_system_fixtures():
    k4 = GraphicMatroid(
        6, vertex_count=4, edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    )
    grid = IntersectionSystem(
        members=(
            PartitionMatroid(9, parts=((0, 1, 2), (3, 4, 5), (6, 7, 8)),
                             capacities=(1, 1, 1)),
            PartitionMatroid(9, parts=((0, 3, 6), (1, 4, 7), (2, 5, 8)),
                             capacities=(1, 1, 1)),
        )
    )
    triple = IntersectionSystem(
        members=(
            PartitionMatroid(12, parts=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
                             capacities=(1, 1, 1, 1)),
            PartitionMatroid(12, parts=((0, 3, 6, 9), (1, 4, 7, 10), (2, 5, 8, 11)),
                             capacities=(1, 1, 1)),
            PartitionMatroid(12, parts=(tuple(range(6)), tuple(range(6, 12))),
                             capacities=(2, 2)),
        )
    )
    return (
        (1, k4, (1.0 / 3.0,) * 6),
        (2, grid, (1.0 / 3.0,) * 9),
        (3, triple, (0.25,) * 12),
    )


def check_scheme_retention(seed: int = 0) -> tuple[bool, str]:
    ok = True
    notes = []
    for k, system, z in _k_system_fixtures():
        for b in (0.1, 1.0 / (2 * k + 1)):
            spec = CrSchemeSpec("ordered_ksystem", b)
            verification = verify_scheme(spec, system, z, SCHEME_TRIALS, seed)
            low = min(
                est + THREE_SIGMA_RADII * rad
                for est, rad in zip(verification.estimates, verification.radii)
            )
            notes.append(f"k={k} b={b:.3f} min c {low:.3f}/{1 - k * b:.3f}")
            if not verification.satisfied():
                ok = False
    partition = PartitionMatroid(
        6, parts=((0, 1, 2), (3, 4), (5,)), capacities=(1, 1, 1)
    )
    z = (0.3, 0.3, 0.4, 0.5, 0.5, 1.0)
    spec = CrSchemeSpec("partition_random_choice", 0.25)
    verification = verify_scheme(spec, partition, z, SCHEME_TRIALS, seed)
    if not verification.satisfied():
        ok = False
    target = spec.target_c(partition)
    worst_exact = np.inf
    for e in range(6):
        exact = exact_partition_marginal(partition, z, 0.25, e)
        worst_exact = min(worst_exact, exact - target)
        if exact < target - 1e-12:
            ok = False
        gap = abs(exact - verification.estimates[e])
        if gap > max(THREE_SIGMA_RADII * verification.radii[e], 1e-12):
            ok = False
    notes.append(f"partition exact-target slack {worst_exact:.4f}")
    if partition_marginal_lower_bound(0.25) < target - 1e-12:
        ok = False
    return ok, "; ".join(notes)


def _weighted_fixture(seed_index: int) -> tuple[ProbingInstance, int, int]:
    k_in = 1 + seed_index % 2
    k_out = 1 + (seed_index // 2) % 2
    n = 4 + seed_index % 5
    instance = random_instance(
        1000 + seed_index,
        n,
        inner_members=k_in,
        outer_members=k_out,
        weighted=True,
    )
    return instance, k_in, k_out


def check_rounding_guarantee(seed: int = 0) -> tuple[bool, str]:
    ok = True
    worst_marginal = np.inf
    worst_value = np.inf
    for i in range(WEIGHTED_COUNT):
        instance, _, _ = _weighted_fixture(i)
        solution = solve_probing_lp(instance)
        config = default_config(instance, seed=seed)
        factor = config.guarantee(instance)
        marginals = exact_chosen_marginals(instance, config, solution)
        for e in range(instance.n):
            slack = marginals[e] - factor * solution.x[e]
            worst_marginal = min(worst_marginal, slack)
            if slack < -1e-6:
                ok = False
        report = estimate_policy_value(
            instance, config, VALUE_TRIALS, seed + i, solution=solution
        )
        slack = report.mean - (factor * solution.objective - _sigma3(report))
        worst_value = min(worst_value, slack)
        if slack < 0.0:
            ok = False
    details = (
        f"{WEIGHTED_COUNT} fixtures, worst marginal slack {worst_marginal:.2e}, "
        f"worst value slack {worst_value:.3f}"
    )
    return ok, details


def check_corollary_constant(seed: int = 0) -> tuple[bool, str]:
    ok = True
    worst = np.inf
    count = 12
    for i in range(count):
        instance, k_in, k_out = _weighted_fixture(17 + i)
        total = k_in + k_out
        solution = solve_probing_lp(instance)
        config = default_config(instance, seed=seed)
        if abs(config.guarantee(instance) - 1.0 / (4 * total)) > 1e-12:
            return False, f"guarantee is not 1/(4({k_in}+{k_out}))"
        report = estimate_policy_value(
            instance, config, 20_000, seed + i, solution=solution
        )
        slack = report.mean - (solution.objective / (4 * total) - _sigma3(report))
        worst = min(worst, slack)
        if slack < 0.0:
            ok = False
    return ok, f"{count} fixtures, worst slack {worst:.3f}"


def _spm_fixtures() -> tuple[AuctionSpec, ...]:
    return (
        spm_uniform_fixture(3, agents=4, max_value=3, rank=2),
        spm_uniform_fixture(7, agents=5, max_value=4, rank=1),
        spm_uniform_fixture(11, agents=6, max_value=5, rank=3),
        spm_matching_fixture(5, left=2, right=2, max_value=3),
        spm_matching_fixture(9, left=2, right=3, max_value=3),
    )


def check_spm_revenue() -> tuple[bool, str]:
    ok = True
    notes = []
    for spec in _spm_fixtures():
        mechanism_lp = solve_lp_m(spec)
        probing_lp = solve_lp_p(spec)
        if probing_lp.objective < mechanism_lp.objective - 1e-6:
            ok = False
            notes.append("LP_P < LP_M")
            continue
        k = spec.feasibility.k_parameter()
        revenues = []
        for draw in range(SPM_DRAWS):
            mechanism = build_spm(spec, seed=draw, solution=probing_lp)
            revenues.append(evaluate_spm(mechanism, spec, mode="exact").mean)
        mean = float(np.mean(revenues))
        target = mechanism_lp.objective / (4 * k + 2)
        notes.append(f"k={k} rev {mean:.3f}/{target:.3f}")
        if mean < target - 1e-3:
            ok = False
    return ok, "; ".join(notes)


def _random_mechanism_point(spec: AuctionSpec, rng: np.random.Generator) -> np.ndarray:
    """A random monotone allocation-curve matrix inside the feasibility polytope."""
    curves = np.sort(rng.uniform(size=(spec.n, spec.B + 1)), axis=1)
    masses = np.array(spec.distributions)

    def fits(scale: float) -> bool:
        served = (masses * curves * scale).sum(axis=1)
        return spec.feasibility.separate(np.minimum(served, 1.0)) is None

    scale = 1.0
    if not fits(scale):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if fits(mid):
                lo = mid
            else:
                hi = mid
        scale = lo * 0.999
    return curves * scale


def check_mechanism_transform(seed: int = 0) -> tuple[bool, str]:
    specs = _spm_fixtures()
    worst = 0.0
    ok = True
    per_spec = TRANSFORM_COUNT // len(specs)
    for which, spec in enumerate(specs):
        lifted = build_probing_instance(spec)
        weights = lifted.weights()
        probs = lifted.probabilities()
        for i in range(per_spec):
            rng = np.random.default_rng((seed, which, i))
            z = _random_mechanism_point(spec, rng)
            y = mechanism_to_probing_point(spec, z)
            if not probing_point_is_feasible(spec, y):
                ok = False
                continue
            probing_objective = float(np.sum(weights * probs * y))
            gap = abs(probing_objective - mechanism_objective(spec, z))
            worst = max(worst, gap)
            if gap > 1e-9:
                ok = False
    count = per_spec * len(specs)
    return ok, f"{count} points, worst objective gap {worst:.2e}"


def check_deadline_ratio() -> tuple[bool, str]:
    ok = True
    worst = np.inf
    paths = 0
    for i in range(DEADLINE_COUNT):
        k_in = 1 + i % 2
        k_out = 1 + (i // 2) % 2
        n = 4 + i % 5
        instance = random_instance(
            3000 + i,
            n,
            inner_members=k_in,
            outer_members=k_out,
            weighted=False,
            with_deadlines=True,
        )
        value = exact_greedy_deadline_value(instance)
        optimum = optimal_adaptive(instance)
        margin = value - optimum / (2 * (k_in + k_out + 1))
        worst = min(worst, margin)
        if margin < -1e-9:
            ok = False
        probs = instance.probabilities()
        for path in enumerate_greedy_deadline_paths(instance):
            paths += 1
            total = float(sum(probs[e] for e in path.probed))
            on_time = float(
                sum(probs[e] for e in path.probed if e not in path.skipped_deadline)
            )
            if total > 2.0 * on_time:
                ok = False
    return ok, f"{DEADLINE_COUNT} instances, {paths} paths, worst margin {worst:.2e}"


def check_bad_ordering_separation(seed: int = 0) -> tuple[bool, str]:
    """Naive-ordering values against half the rounding bound at n = 10.

    The published size: every ordering must land below 50% of
    b(c_in + c_out - 1) * LP while the rounded policy meets its bound.
    """
    ok = True
    notes = []
    for fixture in load_appendix_fixtures(10):
        instance = fixture.instance
        solution = solve_probing_lp(instance)
        config = default_config(instance, seed=seed)
        bound = config.guarantee(instance) * solution.objective
        coins = [config.b * v for v in fixture.y]
        naive = simulate(
            permutation_policy(fixture.order, probe_probabilities=coins),
            instance,
            VALUE_TRIALS,
            seed,
        )
        rounded = estimate_policy_value(
            instance, config, VALUE_TRIALS, seed + 1, solution=fixture.y
        )
        separated = naive.mean < 0.5 * bound
        meets = rounded.mean >= bound - _sigma3(rounded)
        notes.append(
            f"{fixture.name}: naive {naive.mean:.3f} vs half-bound {0.5 * bound:.3f},"
            f" rounded {rounded.mean:.3f}"
        )
        if not (separated and meets):
            ok = False
    return ok, "; ".join(notes)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SUITE_CHECKS = {
    1: ("unweighted greedy ratio", check_unweighted_ratio),
    2: ("dual certificates", check_dual_certificates),
    4: ("lp upper-bounds opt", check_lp_upper_bound),
}

_PLAIN_CHECKS = {
    3: ("tightness at one third", lambda seed: check_tightness()),
    5: ("cr scheme retention", check_scheme_retention),
    6: ("rounding marginals and value", check_rounding_guarantee),
    7: ("corollary constant", check_corollary_constant),
    8: ("spm revenue", lambda seed: check_spm_revenue()),
    9: ("mechanism transform", check_mechanism_transform),
    10: ("deadline greedy ratio", lambda seed: check_deadline_ratio()),
    11: ("bad-ordering separation", check_bad_ordering_separation),
}

CRITERIA = tuple(sorted(_SUITE_CHECKS | _PLAIN_CHECKS))


def run_criterion(
    number: int,
    seed: int = 0,
    suite: Optional[Sequence[RatioCase]] = None,
) -> CriterionResult:
    start = time.perf_counter()
    if number in _SUITE_CHECKS:
        name, check = _SUITE_CHECKS[number]
        if suite is None:
            suite = build_ratio_suite(seed)
        passed, details = check(suite)
    elif number in _PLAIN_CHECKS:
        name, check = _PLAIN_CHECKS[number]
        passed, details = check(seed)
    else:
        raise ConstraintError(f"no acceptance criterion numbered {number}")
    return CriterionResult(
        number=number,
        name=name,
        passed=passed,
        details=details,
        elapsed=time.perf_counter() - start,
    )


def run_all(
    seed: int = 0, report: Optional[Callable[[CriterionResult], None]] = None
) -> list[CriterionResult]:
    suite = build_ratio_suite(seed)
    results = []
    for number in CRITERIA:
        result = run_criterion(number, seed=seed, suite=suite)
        results.append(result)
        if report is not None:
            report(result)
    return results

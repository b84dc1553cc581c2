"""Reference implementations that the tests compare the package against.

The brute-force oracles pin expected values independently of the
implementation under test: they enumerate or scan scalar by scalar and share
no code with the package's fast paths. The reference loops at the end are
the package's former Monte Carlo loops, greedy scans, recursive path
enumeration and certificate audits; they reuse its per-trial helpers and
per-path certificate builder."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from stochprobe.auction import (
    EXACT_AGENT_LIMIT,
    AuctionSpec,
    SpmMechanism,
    _exact_revenue,
)
from stochprobe.constraints import CapabilityError, ConstraintError, ConstraintSystem
from stochprobe.crschemes import (
    CrSchemeSpec,
    SchemeVerification,
    _partition_keep_chance,
    resolve,
    resolve_ordered,
    scheme_order,
)
from stochprobe.evaluate import Z99, Policy, PolicyValueReport
from stochprobe.greedy import (
    PATH_ENUMERATION_LIMIT,
    Activity,
    PathOutcome,
    _activity_fn,
    build_deadline_laminar,
    build_dual_certificate,
    greedy_order,
)
from stochprobe.instance import ProbingInstance
from stochprobe.lp import DualCertificate, check_dual, solve_probing_lp
from stochprobe.rounding import (
    RoundingConfig,
    SolutionLike,
    _y_of,
    execute,
    round_solution,
)


def powerset(universe: Iterable[int]):
    items = list(universe)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def brute_rank(is_independent: Callable[[frozenset], bool], s: frozenset) -> int:
    return max(len(t) for t in powerset(s) if is_independent(t))


def brute_span(is_independent, universe: Sequence[int], t: frozenset) -> frozenset:
    base = brute_rank(is_independent, t)
    return frozenset(
        e for e in universe if brute_rank(is_independent, t | {e}) == base
    )


def brute_separate(is_independent, universe: Sequence[int], x) -> float:
    """Largest violation x(S) - rank(S) over all subsets."""
    worst = 0.0
    for s in powerset(universe):
        value = sum(x[e] for e in s)
        worst = max(worst, value - brute_rank(is_independent, s))
    return worst


def graph_is_forest(edges: Sequence[tuple[int, int]], chosen: frozenset) -> bool:
    parent: dict[int, int] = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in chosen:
        u, v = edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_k_parameter(is_independent, universe: Sequence[int]) -> int:
    """Exact k-system parameter: worst max/min maximal ratio over subsets."""
    import math

    worst = 1.0
    for s in powerset(universe):
        independents = [t for t in powerset(s) if is_independent(t)]
        if not independents:
            continue
        max_size = max(len(t) for t in independents)
        maximal_sizes = [
            len(t)
            for t in independents
            if not any(is_independent(t | {e}) for e in s - t)
        ]
        if maximal_sizes and min(maximal_sizes) > 0:
            worst = max(worst, max_size / min(maximal_sizes))
    return math.ceil(worst - 1e-12)


def brute_optimal_adaptive(weights, probs, inner_indep, outer_indep, deadlines=None):
    """Optimal adaptive probing value by exhaustive recursion over (Q, S).

    Independent of the package: systems are passed as set predicates.
    When deadlines are given, probing element e as the (t = |Q|+1)-th probe
    requires t <= deadline[e].
    """
    n = len(weights)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def value(q: frozenset, s: frozenset) -> float:
        best = 0.0
        for e in range(n):
            if e in q:
                continue
            if deadlines is not None and len(q) + 1 > deadlines[e]:
                continue
            if not outer_indep(q | {e}) or not inner_indep(s | {e}):
                continue
            p = probs[e]
            cont = p * (weights[e] + value(q | {e}, s | {e})) + (1 - p) * value(q | {e}, s)
            best = max(best, cont)
        return best

    return value(frozenset(), frozenset())


def spm_lp_m_oracle(distributions, feas_indep):
    """Mechanism-side revenue LP with every agent-subset constraint, by scipy.

    Variables z[i][c]; the objective is written in raw payment-identity form
    sum_c P[v=c] * (c*z_c - sum_{h<c} z_h) rather than collected
    coefficients, so it cannot share an algebra slip with the package.
    """
    import numpy as np
    from scipy.optimize import linprog

    n = len(distributions)
    width = len(distributions[0])
    dim = n * width
    c = np.zeros(dim)
    for i, dist in enumerate(distributions):
        for val, mass in enumerate(dist):
            c[i * width + val] -= mass * val
            for h in range(val):
                c[i * width + h] += mass
    rows = []
    rhs = []
    for i in range(n):
        for val in range(1, width):
            row = np.zeros(dim)
            row[i * width + val - 1] = 1.0
            row[i * width + val] = -1.0
            rows.append(row)
            rhs.append(0.0)
    for members in powerset(range(n)):
        if not members:
            continue
        row = np.zeros(dim)
        for i in members:
            for val, mass in enumerate(distributions[i]):
                row[i * width + val] = mass
        rows.append(row)
        rhs.append(float(brute_rank(feas_indep, frozenset(members))))
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(0, 1))
    assert res.success, res.message
    return -res.fun


def spm_revenue_oracle(offers, distributions, feas_indep):
    """Expected revenue by enumerating full valuation profiles."""
    n = len(distributions)
    width = len(distributions[0])
    total = 0.0
    for profile in itertools.product(range(width), repeat=n):
        prob = 1.0
        for i, val in enumerate(profile):
            prob *= distributions[i][val]
        if prob == 0.0:
            continue
        served: frozenset = frozenset()
        revenue = 0.0
        for agent, price in offers:
            if not feas_indep(served | {agent}):
                continue
            if profile[agent] >= price:
                served |= {agent}
                revenue += price
        total += prob * revenue
    return total


def lp_oracle(weights, probs, inner_rank, outer_rank):
    """Probing LP with every rank constraint written out, solved by scipy.

    inner_rank / outer_rank map a set of elements to an integer rank. All
    2^n constraints per side are materialized, so keep n small.
    """
    import numpy as np
    from scipy.optimize import linprog

    n = len(weights)
    rows = []
    rhs = []
    for mask in range(1, 1 << n):
        members = frozenset(e for e in range(n) if mask >> e & 1)
        inner_row = [probs[e] if e in members else 0.0 for e in range(n)]
        outer_row = [1.0 if e in members else 0.0 for e in range(n)]
        rows.append(inner_row)
        rhs.append(float(inner_rank(members)))
        rows.append(outer_row)
        rhs.append(float(outer_rank(members)))
    c = np.array([-weights[e] * probs[e] for e in range(n)])
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(0, 1))
    assert res.success, res.message
    return -res.fun


def bland_reference(c, a, b, max_iterations: int = 50_000):
    """max{c.x : a x <= b, x >= 0} (b >= 0) by the textbook scalar Bland loop.

    Scans reduced costs and ratios one entry at a time and pivots row by
    row; the vectorised simplex must reproduce it bit for bit. Returns
    (x, objective, iterations) and raises RuntimeError when the LP is
    unbounded or the pivot count exceeds max_iterations.
    """
    import numpy as np

    tol = 1e-9
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = np.maximum(b, 0.0)
    tab[m, :n] = -c
    basis = list(range(n, n + m))
    iterations = 0
    while True:
        entering = -1
        for j in range(n + m):
            if tab[m, j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        leaving_row = -1
        best_ratio = None
        for i in range(m):
            coef = tab[i, entering]
            if coef > tol:
                ratio = tab[i, -1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio - tol
                    or (abs(ratio - best_ratio) <= tol and basis[i] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = i
        if leaving_row < 0:
            raise RuntimeError("LP is unbounded")
        tab[leaving_row] /= tab[leaving_row, entering]
        for i in range(m + 1):
            if i != leaving_row and tab[i, entering] != 0.0:
                tab[i] -= tab[i, entering] * tab[leaving_row]
        basis[leaving_row] = entering
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(f"iteration limit {max_iterations} exceeded")
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i, -1]
    return x, float(tab[m, -1]), iterations


# ---------------------------------------------------------------------------
# per-trial Monte Carlo loops and greedy scans, as they stood before the
# package routed them through evaluate.trial_rngs and evaluate.monte_carlo
# and merged the two scans into greedy._run. Copied verbatim (only renamed)
# so that every report can be checked for equality against them; they call
# the package's per-trial helpers, which that change left alone.
# ---------------------------------------------------------------------------


def simulate_reference(
    policy: Policy, instance: ProbingInstance, trials: int, seed: int
) -> PolicyValueReport:
    """Average realized value over independent runs; deterministic in (seed, trials).

    Each trial gets its own generator derived from (seed, trial index), so
    callers may split the trial range across workers without changing results.
    """
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    values = np.empty(trials)
    for t in range(trials):
        values[t] = policy(instance, np.random.default_rng((seed, t)))
    return PolicyValueReport.from_samples(values)


def estimate_policy_value_reference(
    instance: ProbingInstance,
    config: RoundingConfig,
    trials: int,
    seed: int,
    solution: Optional[SolutionLike] = None,
) -> PolicyValueReport:
    """Mean w(S) over independent (sample, resolution, activity) draws."""
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    if solution is None:
        solution = solve_probing_lp(instance)
    y = _y_of(solution, instance.n)
    witness = instance.outer.separate(y)
    if witness is None:
        witness = instance.inner.separate(instance.probabilities() * y)
    if witness is not None:
        raise ConstraintError(
            f"solution outside the relaxation (violated on {sorted(witness.members)})"
        )
    weights = instance.weights()
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        policy = round_solution(instance, y, config, rng)
        chosen = execute(policy, instance, rng)
        values[t] = sum(weights[e] for e in chosen)
    return PolicyValueReport.from_samples(values)


def verify_scheme_reference(
    spec: CrSchemeSpec,
    system: ConstraintSystem,
    z: Sequence[float],
    trials: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> SchemeVerification:
    """Sample I ~ b*z, resolve, and estimate per-element conditional retention.

    Elements never sampled across all trials report estimate 1 and radius 0
    (their guarantee is vacuous). Deterministic given (seed, trials) and
    safe to partition across workers by trial index.
    """
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    z = np.asarray(z, dtype=float)
    witness = system.separate(z)
    if witness is not None:
        raise ConstraintError(
            f"z lies outside the rank polytope (violated on {sorted(witness.members)})"
        )
    n = system.universe_size
    inclusion = spec.b * z
    sampled = np.zeros(n, dtype=np.int64)
    kept_count = np.zeros(n, dtype=np.int64)
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        mask = rng.random(n) < inclusion
        i_set = [int(e) for e in np.flatnonzero(mask)]
        kept = resolve(spec, system, i_set, rng, weights)
        sampled[mask] += 1
        for e in kept:
            kept_count[e] += 1
    estimates = []
    radii = []
    for e in range(n):
        if sampled[e] == 0:
            estimates.append(1.0)
            radii.append(0.0)
            continue
        p_hat = kept_count[e] / sampled[e]
        estimates.append(float(p_hat))
        radii.append(float(Z99 * math.sqrt(p_hat * (1.0 - p_hat) / sampled[e])))
    return SchemeVerification(
        estimates=tuple(estimates),
        radii=tuple(radii),
        included=tuple(int(v) for v in sampled),
        trials=trials,
        target_c=spec.target_c(system),
    )


def verify_monotonicity_reference(
    spec: CrSchemeSpec,
    system: ConstraintSystem,
    i1: Iterable[int],
    i2: Iterable[int],
    e: int,
    trials: int = 10_000,
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
) -> bool:
    """Check Pr[e kept from i1] >= Pr[e kept from i2] for e in i1, i1 within i2.

    Exact for the random-choice scheme and for fixed scan orders; random scan
    orders are compared by Monte Carlo with a one-sided 3-radius slack.
    """
    set1, set2 = frozenset(i1), frozenset(i2)
    if e not in set1 or not set1 <= set2:
        raise ConstraintError("need e in i1 and i1 contained in i2")
    if spec.kind == "partition_random_choice":
        p1 = _partition_keep_chance(system, set1, e)
        p2 = _partition_keep_chance(system, set2, e)
        return p1 >= p2
    if spec.order_policy != "random":
        order = scheme_order(spec, system, np.random.default_rng(seed), weights)
        kept1 = resolve_ordered(system, order, set1)
        kept2 = resolve_ordered(system, order, set2)
        return e in kept1 or e not in kept2
    hits1 = hits2 = 0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        order = scheme_order(spec, system, rng, weights)
        hits1 += e in resolve_ordered(system, order, set1)
        hits2 += e in resolve_ordered(system, order, set2)
    p1, p2 = hits1 / trials, hits2 / trials
    radius = Z99 * math.sqrt(max(p1 * (1 - p1), p2 * (1 - p2)) / trials)
    return p1 >= p2 - 3.0 * radius


def evaluate_spm_reference(
    mechanism: SpmMechanism,
    spec: AuctionSpec,
    mode: str = "exact",
    trials: int = 10_000,
    seed: int = 0,
) -> PolicyValueReport:
    """Expected revenue: offers accepted iff value clears the price and the
    accepted set stays feasible; infeasible offers are never made.

    Exact mode branches per offer; with one offer per agent the acceptance
    events are independent Bernoullis, so this equals enumerating full
    valuation vectors. Monte Carlo mode samples one valuation per agent per
    trial, honoring any within-agent correlation exactly.
    """
    if mode == "exact":
        if spec.n > EXACT_AGENT_LIMIT:
            raise CapabilityError(
                f"exact revenue evaluation capped at {EXACT_AGENT_LIMIT} agents"
            )
        return PolicyValueReport(_exact_revenue(mechanism, spec), 0.0, 1, "exact")
    if mode != "monte_carlo":
        raise ConstraintError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    cdfs = [np.cumsum(d) for d in spec.distributions]
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        draws = rng.random(spec.n)
        sampled = [
            min(int(np.searchsorted(cdfs[i], draws[i], side="right")), spec.B)
            for i in range(spec.n)
        ]
        checker = spec.feasibility.checker()
        revenue = 0.0
        for agent, price in mechanism.offers:
            if not checker.can_add(agent):
                continue
            if sampled[agent] >= price:
                checker.add(agent)
                revenue += price
        values[t] = revenue
    return PolicyValueReport.from_samples(values)


def run_greedy_reference(instance: ProbingInstance, activity: Activity) -> PathOutcome:
    """Scan greedy_order, probe e iff Q+e fits outer and S+e fits inner."""
    probs = instance.probabilities()
    draw = _activity_fn(activity, probs)
    outer_check = instance.outer.checker()
    inner_check = instance.inner.checker()
    probed: list[int] = []
    chosen: set[int] = set()
    probability = 1.0
    for e in greedy_order(instance):
        if not (outer_check.can_add(e) and inner_check.can_add(e)):
            continue
        outer_check.add(e)
        probed.append(e)
        if draw(e):
            probability *= float(probs[e])
            inner_check.add(e)
            chosen.add(e)
        else:
            probability *= float(1.0 - probs[e])
    return PathOutcome(tuple(probed), frozenset(chosen), frozenset(), probability)


def run_greedy_deadline_reference(instance: ProbingInstance, activity: Activity) -> PathOutcome:
    """Greedy scan with a probe clock; late elements go to the bookkeeping set.

    e enters Q iff Q+e fits outer and the deadline chain and S+e fits inner.
    If the clock has passed d_e the element is only simulated: it joins the
    bookkeeping set, flips its coin into S, and the clock stays put.
    """
    probs = instance.probabilities()
    deadlines = instance.deadlines()
    draw = _activity_fn(activity, probs)
    outer_check = instance.outer.checker()
    chain_check = build_deadline_laminar(instance).checker()
    inner_check = instance.inner.checker()
    probed: list[int] = []
    chosen: set[int] = set()
    skipped: set[int] = set()
    clock = 1
    probability = 1.0
    for e in greedy_order(instance):
        if not (
            outer_check.can_add(e)
            and chain_check.can_add(e)
            and inner_check.can_add(e)
        ):
            continue
        outer_check.add(e)
        chain_check.add(e)
        probed.append(e)
        if clock <= deadlines[e]:
            clock += 1
        else:
            skipped.add(e)
        if draw(e):
            probability *= float(probs[e])
            inner_check.add(e)
            chosen.add(e)
        else:
            probability *= float(1.0 - probs[e])
    return PathOutcome(
        tuple(probed), frozenset(chosen), frozenset(skipped), probability
    )


def enumerate_paths_reference(
    instance: ProbingInstance, with_deadlines: bool
) -> Iterator[PathOutcome]:
    """The former recursive path enumeration, on set-level independence tests."""
    if instance.n > PATH_ENUMERATION_LIMIT:
        raise CapabilityError(
            f"exact path enumeration capped at {PATH_ENUMERATION_LIMIT} elements"
        )
    order = greedy_order(instance)
    probs = instance.probabilities()
    inner = instance.inner
    outer = instance.outer
    chain = build_deadline_laminar(instance) if with_deadlines else None
    deadlines = instance.deadlines() if with_deadlines else None

    def rec(i, probed, chosen, skipped, clock, probability):
        if i == len(order):
            yield PathOutcome(probed, frozenset(chosen), frozenset(skipped), probability)
            return
        e = order[i]
        q_next = set(probed) | {e}
        feasible = (
            outer.is_independent(q_next)
            and inner.is_independent(chosen | {e})
            and (chain is None or chain.is_independent(q_next))
        )
        if not feasible:
            yield from rec(i + 1, probed, chosen, skipped, clock, probability)
            return
        late = with_deadlines and clock > deadlines[e]
        clock_next = clock if (late or not with_deadlines) else clock + 1
        skipped_next = skipped | {e} if late else skipped
        p = float(probs[e])
        if p > 0.0:
            yield from rec(
                i + 1, probed + (e,), chosen | {e}, skipped_next, clock_next,
                probability * p,
            )
        if p < 1.0:
            yield from rec(
                i + 1, probed + (e,), chosen, skipped_next, clock_next,
                probability * (1.0 - p),
            )

    yield from rec(0, (), set(), set(), 1, 1.0)


def build_expected_certificate_reference(
    instance: ProbingInstance,
) -> tuple[DualCertificate, float]:
    """The former probability-weighted mix of per-path certificates."""
    alpha: dict[frozenset[int], float] = {}
    beta: dict[frozenset[int], float] = {}
    expected = 0.0
    weights = instance.weights()
    for path in enumerate_paths_reference(instance, with_deadlines=False):
        certificate = build_dual_certificate(instance, path)
        for members, a in certificate.alpha:
            alpha[members] = alpha.get(members, 0.0) + path.probability * a
        for members, b in certificate.beta:
            beta[members] = beta.get(members, 0.0) + path.probability * b
        expected += path.probability * path.realized_value(weights)
    return DualCertificate.build(instance, alpha, beta), expected


def certify_reference(instance: ProbingInstance) -> dict:
    """The former `stochprobe certify` computation, before rendering."""
    probs = instance.probabilities()
    k_in = instance.inner.k_parameter()
    k_out = instance.outer.k_parameter()
    rows = []
    all_feasible = True
    worst = np.inf
    count = 0
    for path in enumerate_paths_reference(instance, with_deadlines=False):
        count += 1
        certificate = build_dual_certificate(instance, path)
        verdict = check_dual(certificate, instance)
        cap = k_in * len(path.chosen)
        cap += k_out * float(sum(probs[e] for e in path.probed))
        worst = min(worst, cap - verdict.value)
        feasible = verdict.feasible and verdict.value <= cap + 1e-9
        all_feasible = all_feasible and feasible
        rows.append(
            {
                "path": count - 1,
                "probability": path.probability,
                "value": verdict.value,
                "cap": cap,
                "feasible": feasible,
            }
        )
    mixture, expected = build_expected_certificate_reference(instance)
    mixture_check = check_dual(mixture, instance)
    mixture_cap = (k_in + k_out) * expected
    return {
        "rows": rows,
        "worst_path_slack": float(worst),
        "expected_value": expected,
        "mixture": mixture,
        "mixture_value": mixture_check.value,
        "mixture_cap": mixture_cap,
        "per_path_feasible": bool(all_feasible),
        "mixture_feasible": bool(mixture_check.feasible),
        "mixture_bounded": bool(mixture_check.value <= mixture_cap + 1e-6),
    }


def check_dual_certificates_reference(suite) -> tuple[bool, str]:
    """The former acceptance criterion 2 over a ratio suite."""
    paths = 0
    worst_path = np.inf
    worst_mix = np.inf
    ok = True
    for case in suite:
        probs = case.instance.probabilities()
        for path in enumerate_paths_reference(case.instance, with_deadlines=False):
            paths += 1
            certificate = build_dual_certificate(case.instance, path)
            verdict = check_dual(certificate, case.instance)
            cap = case.k_in * len(path.chosen)
            cap += case.k_out * float(sum(probs[e] for e in path.probed))
            worst_path = min(worst_path, cap - verdict.value)
            if not verdict.feasible or verdict.value > cap + 1e-9:
                ok = False
        mixed, expected = build_expected_certificate_reference(case.instance)
        verdict = check_dual(mixed, case.instance)
        cap = (case.k_in + case.k_out) * expected
        worst_mix = min(worst_mix, cap - verdict.value)
        if not verdict.feasible or verdict.value > cap + 1e-6:
            ok = False
    details = (
        f"{paths} paths, worst path slack {worst_path:.2e}, "
        f"worst mixture slack {worst_mix:.2e}"
    )
    return ok, details

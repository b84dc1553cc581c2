"""Bayesian posted prices for single-parameter agents via probing.

An auction with independent discrete valuations on {0..B} and a
downward-closed feasibility system over agents becomes a probing instance:
one copy (i, c) per agent i and price c, weight c, probability
Pr[v_i >= c]. Probing a copy is offering that price, an active probe is an
acceptance, and "one offer per agent" is a capacity-1 partition matroid
over the copies.

Two LPs bracket the mechanism design problem. LP_P is the probing
relaxation on the copy universe. LP_M relaxes every truthful mechanism
through its monotone allocation curve z_{i,c} (the chance agent i is served
when its value is c) with revenue bounded by the payment identity. Every
feasible allocation curve maps to a probing point of equal objective via
y_{i,c} = z_{i,c} - z_{i,c-1}, so LP_P >= LP_M and a rounding guarantee
against LP_P transfers to the mechanism benchmark: b = 1/(2k+1) yields
expected revenue at least LP_M/(4k+2) when feasibility is an intersection
of k matroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constraints import (
    CapabilityError,
    ConstraintError,
    ConstraintSystem,
    GraphicMatroid,
    IntersectionSystem,
    LaminarMatroid,
    PartitionMatroid,
    UniformMatroid,
    ordered_scan,
)
from .crschemes import CrSchemeSpec
from .evaluate import PolicyValueReport, trial_uniforms
from .instance import ProbingInstance, make_instance
from .lp import Cut, FractionalSolution, cut_generation, solve_probing_space
from .rounding import RoundingConfig, round_solution

DISTRIBUTION_TOL = 1e-9
EXACT_AGENT_LIMIT = 12


@dataclass(frozen=True)
class AuctionSpec:
    """Independent discrete valuations plus a feasibility system over agents.

    distributions[i][c] is Pr[v_i = c]; every agent shares the value range
    {0..B}, so all rows have length B + 1 and sum to one.
    """

    distributions: tuple[tuple[float, ...], ...]
    feasibility: ConstraintSystem

    def __post_init__(self):
        dists = tuple(tuple(float(m) for m in d) for d in self.distributions)
        object.__setattr__(self, "distributions", dists)
        if not dists:
            raise ConstraintError("auction needs at least one agent")
        width = len(dists[0])
        if width < 1 or any(len(d) != width for d in dists):
            raise ConstraintError("agents must share one value range 0..B")
        for i, dist in enumerate(dists):
            if not np.isfinite(dist).all():
                raise ConstraintError(f"agent {i} has a non-finite mass")
            if any(m < 0 for m in dist):
                raise ConstraintError(f"agent {i} has a negative mass")
            total = sum(dist)
            if abs(total - 1.0) > DISTRIBUTION_TOL:
                raise ConstraintError(f"agent {i} masses sum to {total}, not 1")
        if self.feasibility.universe_size != len(dists):
            raise ConstraintError("feasibility universe must equal the agent count")

    @property
    def n(self) -> int:
        return len(self.distributions)

    @property
    def B(self) -> int:
        return len(self.distributions[0]) - 1

    def survival(self, agent: int) -> np.ndarray:
        """Pr[v_agent >= c] for c = 0..B."""
        masses = np.asarray(self.distributions[agent])
        # suffix sums of normalized masses can drift off 1 by an ulp
        out = np.clip(np.cumsum(masses[::-1])[::-1], 0.0, 1.0)
        out[0] = 1.0
        return out

    def copy_index(self, agent: int, price: int) -> int:
        return agent * (self.B + 1) + price

    def agent_price(self, element: int) -> tuple[int, int]:
        return divmod(element, self.B + 1)


def lift_to_copies(system: ConstraintSystem, copies: int) -> ConstraintSystem:
    """Parallel extension: agent i becomes `copies` interchangeable elements.

    Independent sets take at most one copy per agent and an independent
    agent set underneath, so matroids stay matroids and intersections keep
    their member count.
    """
    n = system.universe_size
    big = n * copies
    classes = tuple(
        tuple(range(i * copies, (i + 1) * copies)) for i in range(n)
    )
    caps_one = (1,) * n
    if isinstance(system, UniformMatroid):
        return LaminarMatroid(
            big, classes + (tuple(range(big)),), caps_one + (system.limit,)
        )
    if isinstance(system, PartitionMatroid):
        blown = tuple(
            tuple(e for i in part for e in classes[i]) for part in system.parts
        )
        return LaminarMatroid(big, classes + blown, caps_one + system.capacities)
    if isinstance(system, LaminarMatroid):
        blown = tuple(
            tuple(e for i in s for e in classes[i]) for s in system.sets
        )
        return LaminarMatroid(big, classes + blown, caps_one + system.capacities)
    if isinstance(system, GraphicMatroid):
        edges = tuple(
            system.edges[i] for i in range(n) for _ in range(copies)
        )
        return GraphicMatroid(big, vertex_count=system.vertex_count, edges=edges)
    if isinstance(system, IntersectionSystem):
        return IntersectionSystem(
            members=tuple(lift_to_copies(m, copies) for m in system.members)
        )
    raise CapabilityError(f"cannot lift a {system.variant} system to copies")


def _agent_partition(spec: AuctionSpec) -> PartitionMatroid:
    width = spec.B + 1
    parts = tuple(
        tuple(range(i * width, (i + 1) * width)) for i in range(spec.n)
    )
    return PartitionMatroid(spec.n * width, parts, (1,) * spec.n)


def build_probing_instance(spec: AuctionSpec) -> ProbingInstance:
    """Copies (agent, price) with weight = price and p = Pr[v >= price].

    Outer: one offer per agent. Inner: the same one-per-agent cap
    intersected with the lifted feasibility system, so a chosen copy set is
    exactly a priced feasible allocation.
    """
    width = spec.B + 1
    weights = [float(c) for _ in range(spec.n) for c in range(width)]
    probs = [float(p) for i in range(spec.n) for p in spec.survival(i)]
    one_per_agent = _agent_partition(spec)
    inner = IntersectionSystem(
        members=(one_per_agent, lift_to_copies(spec.feasibility, width))
    )
    return make_instance(weights, probs, inner, one_per_agent)


def solve_lp_p(spec: AuctionSpec) -> FractionalSolution:
    """Probing relaxation over the copies, separated in agent space.

    All copies of an agent are parallel in the lifted inner system, so its
    rank constraints aggregate: sum over copies of agents in S is capped by
    the feasibility rank of S. Separation therefore runs on the original
    n-agent system instead of enumerating copy subsets.
    """
    instance = build_probing_instance(spec)
    width = spec.B + 1
    probs = instance.probabilities()
    copies = [range(i * width, (i + 1) * width) for i in range(spec.n)]

    def find_cuts(x, y):
        served = x.reshape(spec.n, width).sum(axis=1)
        witness = spec.feasibility.separate(np.minimum(served, 1.0))
        if witness is None:
            return []
        members = frozenset(
            e for i in witness.members for e in copies[i] if probs[e] > 0
        )
        return [Cut("inner", members, witness.rank)]

    return solve_probing_space(instance, copies, find_cuts)


# ---------------------------------------------------------------------------
# the mechanism-side relaxation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MechanismLpSolution:
    """Monotone allocation curves z, per-agent service rates x, revenue bound."""

    z: tuple[tuple[float, ...], ...]
    x: tuple[float, ...]
    objective: float


def curve_coefficients(spec: AuctionSpec, agent: int) -> list[float]:
    """LP_M objective coefficient of each curve point z_{agent,c}, c = 0..B.

    Under the payment identity the value-c term pays c*z_{i,c} minus the
    information rents sum_{h<c} z_{i,h}; collecting per curve point gives
    coefficient c*Pr[v=c] - Pr[v>c].
    """
    surv = spec.survival(agent)
    return [
        price * mass - (float(surv[price]) - mass)
        for price, mass in enumerate(spec.distributions[agent])
    ]


def mechanism_objective(spec: AuctionSpec, z: Sequence[Sequence[float]]) -> float:
    """Expected revenue of allocation curves z under the payment identity."""
    total = 0.0
    for i in range(spec.n):
        for price, coefficient in enumerate(curve_coefficients(spec, i)):
            total += coefficient * float(z[i][price])
    return total


def solve_lp_m(spec: AuctionSpec) -> MechanismLpSolution:
    """Revenue bound over monotone curves with feasible service rates.

    Chains 0 <= z_{i,0} <= ... <= z_{i,B} <= 1 are explicit rows; the
    service-rate constraint {x_i} in the feasibility polytope is generated
    by separation, keeping this LP independent of LP_P as a cross-check.
    """
    width = spec.B + 1
    dim = spec.n * width
    coeff = np.array([v for i in range(spec.n) for v in curve_coefficients(spec, i)])

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for i in range(spec.n):
        for price in range(1, width):
            step = np.zeros(dim)
            step[i * width + price - 1] = 1.0
            step[i * width + price] = -1.0
            rows.append(step)
            rhs.append(0.0)
        top = np.zeros(dim)
        top[i * width + spec.B] = 1.0
        rows.append(top)
        rhs.append(1.0)

    masses = np.array([list(d) for d in spec.distributions])

    def serve(v):
        z = np.clip(v.reshape(spec.n, width), 0.0, 1.0)
        return z, (masses * z).sum(axis=1)

    def separate(v):
        witness = spec.feasibility.separate(np.minimum(serve(v)[1], 1.0))
        if witness is None:
            return []
        row = np.zeros(dim)
        for i in witness.members:
            row[i * width : (i + 1) * width] = masses[i]
        return [(row, float(witness.rank))]

    result, _, _ = cut_generation(coeff, rows, rhs, separate)
    z, served = serve(result.x)
    return MechanismLpSolution(
        z=tuple(tuple(float(v) for v in row) for row in z),
        x=tuple(float(v) for v in served),
        objective=float(result.objective),
    )


def mechanism_to_probing_point(
    spec: AuctionSpec, z: Sequence[Sequence[float]]
) -> np.ndarray:
    """Map allocation curves to y_{i,c} = z_{i,c} - z_{i,c-1}.

    Monotonicity makes y non-negative, the chain top makes each agent's y
    sum at most one, and Abel summation turns the LP_M objective into the
    LP_P objective, so feasible curves land inside the probing relaxation.
    """
    width = spec.B + 1
    y = np.zeros(spec.n * width)
    for i in range(spec.n):
        curve = [float(v) for v in z[i]]
        if len(curve) != width:
            raise ConstraintError("curve length must be B + 1")
        previous = 0.0
        for price, level in enumerate(curve):
            if level < previous - DISTRIBUTION_TOL or level > 1.0 + DISTRIBUTION_TOL:
                raise ConstraintError(
                    f"allocation curve of agent {i} is not a monotone chain in [0,1]"
                )
            y[i * width + price] = max(0.0, level - previous)
            previous = level
    return y


def probing_point_is_feasible(
    spec: AuctionSpec, y: Sequence[float], tol: float = 1e-9
) -> bool:
    """Membership of (y, x = p*y) in the probing relaxation, agent-space check."""
    width = spec.B + 1
    arr = np.asarray(y, dtype=float)
    if arr.shape != (spec.n * width,):
        raise ConstraintError("point length must be n * (B + 1)")
    if arr.min() < -tol or arr.max() > 1.0 + tol:
        return False
    per_agent = arr.reshape(spec.n, width)
    if per_agent.sum(axis=1).max() > 1.0 + tol:
        return False
    probs = np.array([spec.survival(i) for i in range(spec.n)])
    served = (probs * per_agent).sum(axis=1)
    return spec.feasibility.separate(np.minimum(served, 1.0), tol=tol) is None


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpmMechanism:
    """Ordered take-it-or-leave-it offers, at most one per agent.

    Truthfulness is structural: nothing here reads a reported value, prices
    are fixed before any agent responds.
    """

    offers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for agent, price in self.offers:
            if agent in seen:
                raise ConstraintError(f"agent {agent} would receive two offers")
            seen.add(agent)
            if price < 0:
                raise ConstraintError("negative price")


def build_spm(
    spec: AuctionSpec,
    seed: int,
    solution: Optional[FractionalSolution] = None,
) -> SpmMechanism:
    """One rounding draw of LP_P collapsed into an offer list.

    b = 1/(2k+1) with the random-choice scheme on the one-per-agent side and
    the ordered scheme on the lifted feasibility (a k-system): per copy that
    keeps at least (1 - b/2) + (1 - kb) - 1 = 1/2 of the sampled mass, i.e.
    revenue at least LP_P/(4k+2). Price-0 mass is zeroed first; those offers
    raise nothing and p = 1 means they could only block real ones.
    """
    instance = build_probing_instance(spec)
    if solution is None:
        solution = solve_lp_p(spec)
    k = spec.feasibility.k_parameter()
    b = 1.0 / (2 * k + 1)
    config = RoundingConfig(
        b=b,
        outer_scheme=CrSchemeSpec("partition_random_choice", b),
        inner_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy="by-weight-desc"),
        seed=seed,
    )
    y = np.asarray(solution.y, dtype=float).copy()
    if y.shape != (instance.n,):
        raise ConstraintError("solution length must match the copy universe")
    y[0 :: spec.B + 1] = 0.0
    policy = round_solution(instance, y, config)
    return SpmMechanism(
        offers=tuple(spec.agent_price(e) for e in policy.probe_sequence)
    )


def evaluate_spm(
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
    blocks = trial_uniforms(seed, trials, spec.n)
    cdfs = [np.cumsum(d) for d in spec.distributions]
    price_of = dict(mechanism.offers)  # at most one offer per agent

    def revenue(sampled: list[int]) -> float:
        accepted = ordered_scan(
            price_of, spec.feasibility.checker(), lambda a: sampled[a] >= price_of[a]
        )[1]
        revenue = 0.0
        for agent in accepted:
            revenue += price_of[agent]
        return revenue

    def valuations(block: np.ndarray) -> list[list[int]]:
        # agent i's value is the first c whose cdf exceeds its uniform, capped at B
        columns = [
            np.minimum(np.searchsorted(cdf, block[:, i], side="right"), spec.B)
            for i, cdf in enumerate(cdfs)
        ]
        return np.stack(columns, axis=1).tolist()

    values = (revenue(sampled) for block in blocks for sampled in valuations(block))
    return PolicyValueReport.from_samples(np.fromiter(values, float, count=trials))


def _exact_revenue(mechanism: SpmMechanism, spec: AuctionSpec) -> float:
    offers = mechanism.offers

    def value(idx: int, served: frozenset) -> float:
        if idx == len(offers):
            return 0.0
        agent, price = offers[idx]
        skip = value(idx + 1, served)
        if not spec.feasibility.is_independent(served | {agent}):
            return skip
        p = float(spec.survival(agent)[price]) if price <= spec.B else 0.0
        if p <= 0.0:
            return skip
        return p * (price + value(idx + 1, served | {agent})) + (1.0 - p) * skip

    return value(0, frozenset())

"""Instance generators and the adversarial fixture corpus.

Three families live here:

* seeded random instances over loop-free matroids (single or intersected),
  used throughout the test suite and the acceptance checks;
* the tightness construction where greedy probing of decoy triples lands at
  exactly 1/3 of the best 3-dimensional matching;
* the two bad-example graphs showing that rounding a fractional solution by
  a fixed weight/probability/product ordering can miss almost all of the LP
  value. Each fixture carries its fractional solution and objective in
  closed form; the wiring (parallel two-edge u-v paths plus direct u-v
  edges) reproduces the blocking-probability formulas those examples rely
  on: one direct edge blocked unless no path is fully probed, probability
  (1 - (b*y)^2)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .auction import AuctionSpec
from .constraints import (
    ConstraintError,
    ConstraintSystem,
    GraphicMatroid,
    IntersectionSystem,
    LaminarMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from .instance import ProbingInstance, make_instance

RngLike = Union[int, np.random.Generator]


def _rng_of(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


MATROID_KINDS = ("uniform", "partition", "laminar", "graphic")


def random_matroid(
    rng: np.random.Generator, n: int, kinds: Sequence[str] = MATROID_KINDS
) -> ConstraintSystem:
    """One loop-free matroid on n elements, drawn from the given kinds.

    Partition and laminar draws need n >= 2 and uniform ones n >= 1; a
    smaller n fails with ConstraintError once the kind is drawn.
    """
    kind = rng.choice(tuple(kinds))
    least = {"uniform": 1, "partition": 2, "laminar": 2}.get(str(kind), 0)
    if n < least:
        raise ConstraintError(f"a random {kind} matroid needs n >= {least}, got {n}")
    if kind == "uniform":
        return UniformMatroid(n, int(rng.integers(1, n + 1)))
    if kind == "partition":
        order = [int(e) for e in rng.permutation(n)]
        cut = int(rng.integers(1, n))
        parts = (tuple(order[:cut]), tuple(order[cut:]))
        caps = tuple(int(rng.integers(1, 3)) for _ in parts)
        return PartitionMatroid(n, parts=parts, capacities=caps)
    if kind == "laminar":
        order = [int(e) for e in rng.permutation(n)]
        small = int(rng.integers(1, n))
        sets = (tuple(sorted(order[:small])), tuple(range(n)))
        caps = (int(rng.integers(1, small + 1)), int(rng.integers(1, n + 1)))
        return LaminarMatroid(n, sets=sets, capacities=caps)
    vertices = max(2, n - 2)
    edges = []
    for _ in range(n):
        a = int(rng.integers(0, vertices))
        b = (a + 1 + int(rng.integers(0, vertices - 1))) % vertices
        edges.append((a, b))
    return GraphicMatroid(n, vertex_count=vertices, edges=tuple(edges))


def random_system(
    rng: np.random.Generator,
    n: int,
    members: int = 1,
    kinds: Sequence[str] = MATROID_KINDS,
) -> ConstraintSystem:
    if members == 1:
        return random_matroid(rng, n, kinds)
    return IntersectionSystem(
        members=tuple(random_matroid(rng, n, kinds) for _ in range(members))
    )


def random_instance(
    seed: RngLike,
    n: int,
    *,
    inner_members: int = 1,
    outer_members: int = 1,
    weighted: bool = True,
    with_deadlines: bool = False,
    inner_kinds: Sequence[str] = MATROID_KINDS,
    outer_kinds: Sequence[str] = MATROID_KINDS,
) -> ProbingInstance:
    """Seeded instance over loop-free systems; unweighted means all weights 1."""
    rng = _rng_of(seed)
    weights = np.round(rng.uniform(0.1, 3.0, size=n), 3) if weighted else np.ones(n)
    probs = np.round(rng.uniform(0.05, 1.0, size=n), 3)
    deadlines = None
    if with_deadlines:
        deadlines = [int(d) for d in rng.integers(1, n + 1, size=n)]
    return make_instance(
        weights,
        probs,
        random_system(rng, n, inner_members, inner_kinds),
        random_system(rng, n, outer_members, outer_kinds),
        deadlines=deadlines,
    )


# ---------------------------------------------------------------------------
# tightness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessFixture:
    instance: ProbingInstance
    good_set: frozenset[int]
    greedy_value: float
    optimal_value: float


def tightness_instance(blocks: int = 7) -> TightnessFixture:
    """Decoy triples make greedy pay the full 1/(k_in + k_out) = 1/3 factor.

    Elements are triples over three coordinate classes (all capacities 1,
    all p = 1, all weights 1): the first `blocks` decoys are pairwise
    disjoint, so index-tie-broken greedy picks them all, but decoy i shares
    one coordinate with each of the good triples 3i, 3i+1, 3i+2, blocking
    the whole perfect matching of 3*blocks good triples.
    """
    good = 3 * blocks
    n = blocks + good
    systems = []
    for coordinate in range(3):
        parts = []
        for j in range(good):
            slot = [blocks + j]
            if j % 3 == coordinate:
                slot.append(j // 3)
            parts.append(tuple(sorted(slot)))
        systems.append(
            PartitionMatroid(n, parts=tuple(parts), capacities=(1,) * good)
        )
    inner = IntersectionSystem(members=(systems[0], systems[1]))
    outer = systems[2]
    instance = make_instance(np.ones(n), np.ones(n), inner, outer)
    return TightnessFixture(
        instance=instance,
        good_set=frozenset(range(blocks, n)),
        greedy_value=float(blocks),
        optimal_value=float(good),
    )


# ---------------------------------------------------------------------------
# bad-ordering corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendixFixture:
    """A weighted instance plus the fractional solution a baseline rounds.

    order is the probe order of the named baseline (already laid out so the
    descending sort key equals ascending element index); a baseline probes
    element e with probability b * y[e] when both systems permit.
    """

    name: str
    instance: ProbingInstance
    y: tuple[float, ...]
    objective: float
    order: tuple[int, ...]
    order_key: str

    @property
    def x(self) -> tuple[float, ...]:
        probs = self.instance.probabilities()
        return tuple(float(probs[e] * self.y[e]) for e in range(self.instance.n))


def _parallel_paths_graph(n_paths: int, direct_edges: int):
    """Edges of u=0, v=1 joined by n two-edge paths and direct u-v edges.

    Path i contributes elements 2i (u to middle) and 2i+1 (middle to v);
    the direct edges come last. Any fully chosen path spans every direct edge.
    """
    edges = []
    for i in range(n_paths):
        middle = 2 + i
        edges.append((0, middle))
        edges.append((middle, 1))
    for _ in range(direct_edges):
        edges.append((0, 1))
    return GraphicMatroid(
        2 * n_paths + direct_edges,
        vertex_count=2 + n_paths,
        edges=tuple(edges),
    )


def weight_ordering_fixture(
    n: int = 10, heavy_weight: float = 100.0, epsilon: Optional[float] = None
) -> AppendixFixture:
    """Heavy nearly-dead path edges ahead of the one light live direct edge.

    Probing by decreasing weight commits the outer graphic budget to the
    paths; whenever any path is fully probed the direct edge (nearly all of
    the LP value) is spanned and lost.
    """
    if epsilon is None:
        epsilon = 1e-4 / n
    m = 2 * n + 1
    weights = [heavy_weight] * (2 * n) + [1.0]
    probs = [epsilon] * (2 * n) + [1.0]
    instance = make_instance(
        weights, probs, UniformMatroid(m, m), _parallel_paths_graph(n, 1)
    )
    y = (0.5,) * (2 * n) + (1.0,)
    objective = 1.0 + n * heavy_weight * epsilon
    return AppendixFixture(
        name="weight-ordering",
        instance=instance,
        y=y,
        objective=objective,
        order=tuple(range(m)),
        order_key="weight-desc",
    )


def probability_ordering_fixture(
    n: int = 10, direct_weight: Optional[float] = None
) -> AppendixFixture:
    """Certain path edges ahead of the coin-flip direct edge carrying weight L."""
    if direct_weight is None:
        direct_weight = 50.0 * n
    m = 2 * n + 1
    weights = [1.0] * (2 * n) + [float(direct_weight)]
    probs = [1.0] * (2 * n) + [0.5]
    instance = make_instance(
        weights, probs, UniformMatroid(m, m), _parallel_paths_graph(n, 1)
    )
    y = (0.5,) * (2 * n) + (1.0,)
    objective = direct_weight / 2.0 + n
    return AppendixFixture(
        name="probability-ordering",
        instance=instance,
        y=y,
        objective=objective,
        order=tuple(range(m)),
        order_key="prob-desc",
    )


def product_ordering_fixture(n: int = 10) -> AppendixFixture:
    """Path edges beat the n^2 direct edges on w*p but strangle them inside.

    Here the graphic matroid is the inner system: chosen path pairs span the
    direct edges, which hold almost the whole LP objective.
    """
    direct = n * n
    m = 2 * n + direct
    weights = [2.0] * (2 * n) + [float(direct)] * direct
    probs = [1.0 / 3.0] * (2 * n) + [1.0 / (3.0 * direct)] * direct
    instance = make_instance(
        weights, probs, _parallel_paths_graph(n, direct), UniformMatroid(m, m)
    )
    y = (1.0,) * m
    objective = 4.0 * n / 3.0 + direct / 3.0
    return AppendixFixture(
        name="product-ordering",
        instance=instance,
        y=y,
        objective=objective,
        order=tuple(range(m)),
        order_key="weight-times-prob-desc",
    )


def load_appendix_fixtures(n: int = 10) -> tuple[AppendixFixture, ...]:
    return (
        weight_ordering_fixture(n),
        probability_ordering_fixture(n),
        product_ordering_fixture(n),
    )


def direct_edge_unblocked_probability(n: int, b: float, y_edge: float = 0.5) -> float:
    """Chance the direct u-v edge is still independent after the path scan.

    Exactly (1 - (b*y_edge)^2)^n: the direct edge survives iff no path has
    both inclusion coins succeed (the first fully included path is always
    fully probed, and partial paths never join u to v).
    """
    return float((1.0 - (b * y_edge) ** 2) ** n)


def _path_scan_value(n: int, b: float, per_probe: float) -> tuple[float, float]:
    """Expected probe value of the path prefix plus Pr[u-v connected after].

    Scanning pairs (2i, 2i+1) with inclusion rate q = b/2 each: the first
    edge of a pair is always feasible, the second is blocked only when its
    mate was included and u-v is already connected, and u-v connects exactly
    when some pair has both coins land, so Pr[unconnected] = (1 - q^2)^i.
    """
    q = b * 0.5
    value = 0.0
    connected = 0.0  # before pair i
    for _ in range(n):
        value += per_probe * q * (2.0 - q * connected)
        connected = 1.0 - (1.0 - connected) * (1.0 - q * q)
    return value, connected


def weight_ordering_naive_value(
    n: int, b: float, heavy_weight: float = 100.0, epsilon: Optional[float] = None
) -> float:
    """Exact value of coin-then-scan probing in the fixture's weight order."""
    if epsilon is None:
        epsilon = 1e-4 / n
    path_value, connected = _path_scan_value(n, b, heavy_weight * epsilon)
    return path_value + b * (1.0 - connected)


def probability_ordering_naive_value(
    n: int, b: float, direct_weight: Optional[float] = None
) -> float:
    """Exact value of coin-then-scan probing in the fixture's probability order."""
    if direct_weight is None:
        direct_weight = 50.0 * n
    path_value, connected = _path_scan_value(n, b, 1.0)
    return path_value + direct_weight * 0.5 * b * (1.0 - connected)


def product_ordering_naive_value(n: int, b: float) -> float:
    """Exact value of coin-then-scan probing in the fixture's w*p order.

    The inner graphic matroid blocks on chosen edges, so the pair scan is
    the same Markov chain with q = b/3 (coin times activity); the direct
    edges then share one u-v slot at rate b/(3N) each, worth N per choice.
    """
    big = n * n
    q = b / 3.0
    value = 0.0
    connected = 0.0
    for _ in range(n):
        value += 2.0 * q * (2.0 - q * connected)
        connected = 1.0 - (1.0 - connected) * (1.0 - q * q)
    slot = b / (3.0 * big)
    value += big * (1.0 - connected) * (1.0 - (1.0 - slot) ** big)
    return value


def product_ordering_direct_first_value(n: int, b: float) -> float:
    """Exact direct-edge value when the scan meets the direct edges first.

    With the heavy edges resolved before any path pair can connect u to v,
    the N direct edges fill one slot at rate b/(3N) each: the expected value
    is N*(1 - (1 - b/(3N))^N), a lower bound on the whole policy's value.
    """
    big = n * n
    slot = b / (3.0 * big)
    return big * (1.0 - (1.0 - slot) ** big)


# ---------------------------------------------------------------------------
# posted-price auctions
# ---------------------------------------------------------------------------


def _random_distributions(
    rng: np.random.Generator, agents: int, max_value: int
) -> tuple[tuple[float, ...], ...]:
    # normalize rather than round: masses must sum to 1 exactly-ish
    rows = rng.uniform(0.05, 1.0, size=(agents, max_value + 1))
    rows /= rows.sum(axis=1, keepdims=True)
    return tuple(tuple(float(m) for m in row) for row in rows)


def spm_uniform_fixture(
    seed: RngLike = 0, agents: int = 4, max_value: int = 4, rank: int = 2
) -> AuctionSpec:
    """Random valuations, at most `rank` winners: a k = 1 auction."""
    rng = _rng_of(seed)
    return AuctionSpec(
        distributions=_random_distributions(rng, agents, max_value),
        feasibility=UniformMatroid(agents, rank),
    )


def spm_matching_fixture(
    seed: RngLike = 0, left: int = 2, right: int = 2, max_value: int = 3
) -> AuctionSpec:
    """Agents are buyer-item pairs served along a bipartite matching: k = 2."""
    rng = _rng_of(seed)
    agents = left * right
    rows = tuple(
        tuple(a * right + b for b in range(right)) for a in range(left)
    )
    cols = tuple(
        tuple(a * right + b for a in range(left)) for b in range(right)
    )
    feasibility = IntersectionSystem(
        members=(
            PartitionMatroid(agents, parts=rows, capacities=(1,) * left),
            PartitionMatroid(agents, parts=cols, capacities=(1,) * right),
        )
    )
    return AuctionSpec(
        distributions=_random_distributions(rng, agents, max_value),
        feasibility=feasibility,
    )

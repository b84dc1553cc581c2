"""Downward-closed independence systems over a finite universe {0..n-1}.

Every system answers four queries: membership (is_independent), exact rank,
span, and separation over the rank polytope {x in [0,1]^V : x(S) <= rank(S)}.
Matroid variants take rank and span from a greedy pass over their checker and
separate in polynomial time; intersections and explicit families fall back to
exact enumeration, which is why universe sizes are capped there.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

SEPARATION_TOL = 1e-9

# Enumeration-backed variants precompute mask tables over the whole universe up
# to this size; above it, over the queried mask or the support of a point, of at
# most ENUMERATION_LIMIT elements.
MASK_TABLE_LIMIT = 16
ENUMERATION_LIMIT = 20
EXPLICIT_UNIVERSE_LIMIT = 15


class ConstraintError(ValueError):
    """Domain error: malformed system or out-of-range query."""


class CapabilityError(RuntimeError):
    """Query exceeds the enumeration caps of this variant."""


def _popcount(mask: int) -> int:
    return mask.bit_count()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int], n: int) -> int:
    mask = 0
    for e in elements:
        e = operator.index(e)
        if not 0 <= e < n:
            raise ConstraintError(f"element {e} outside universe of size {n}")
        mask |= 1 << e
    return mask


def set_of(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


@dataclass(frozen=True)
class SubsetWitness:
    """A violated rank constraint: x(members) = value > rank = rank(members)."""

    members: frozenset[int]
    value: float
    rank: int


class UnionFind:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        return True


class _MaxFlow:
    """Dinic with float capacities; arcs are added in residual pairs."""

    def __init__(self, nodes: int, eps: float = 1e-12):
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.eps = eps

    def add(self, u: int, v: int, cap: float) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def _levels(self, s: int) -> list[int]:
        level = [-1] * len(self.adj)
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for a in self.adj[u]:
                    v = self.to[a]
                    if self.cap[a] > self.eps and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level

    def _push(self, u, t, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            a = self.adj[u][it[u]]
            v = self.to[a]
            if self.cap[a] > self.eps and level[v] == level[u] + 1:
                got = self._push(v, t, min(limit, self.cap[a]), level, it)
                if got > self.eps:
                    self.cap[a] -= got
                    self.cap[a ^ 1] += got
                    return got
            it[u] += 1
        return 0.0

    def run(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * len(self.adj)
            while True:
                pushed = self._push(s, t, math.inf, level, it)
                if pushed <= self.eps:
                    break
                total += pushed

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph (after run)."""
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for a in self.adj[u]:
                    v = self.to[a]
                    if self.cap[a] > self.eps and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen


class ConstraintSystem:
    """Base for all variants. Subclasses are frozen dataclasses (hashable)."""

    universe_size: int
    variant: str = "abstract"

    # -- mask-level primitives (subclasses override _indep_mask) -------------

    def _indep_mask(self, mask: int) -> bool:
        raise NotImplementedError

    def _rank_mask(self, mask: int) -> int:
        return _rank_by_search(self, mask)

    # -- public set-level API -------------------------------------------------

    def is_independent(self, s: Iterable[int]) -> bool:
        return self._indep_mask(mask_of(s, self.universe_size))

    def rank(self, s: Iterable[int]) -> int:
        return self._rank_mask(mask_of(s, self.universe_size))

    def span(self, t: Iterable[int]) -> frozenset[int]:
        """Elements whose addition does not raise the rank of t."""
        mask = mask_of(t, self.universe_size)
        base = self._rank_mask(mask)
        out = mask
        for e in range(self.universe_size):
            bit = 1 << e
            if mask & bit:
                continue
            if self._rank_mask(mask | bit) == base:
                out |= bit
        return set_of(out)

    def separate(self, x: Sequence[float], tol: float = SEPARATION_TOL) -> Optional[SubsetWitness]:
        """Most violated rank constraint at x, or None if x is feasible.

        Precondition: x in [0,1]^V (checked with a small slack).
        """
        arr = _check_point(x, self.universe_size)
        return self._separate(arr, tol)

    def _separate(self, x: np.ndarray, tol: float) -> Optional[SubsetWitness]:
        return _separate_by_enumeration(self, x, tol)

    def k_parameter(self) -> int:
        """The k for which this system is a k-system (matroids report 1)."""
        raise NotImplementedError

    def checker(self) -> "IndependenceChecker":
        """Fresh incremental membership checker (for scans and simulations)."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-ready structural description."""
        raise NotImplementedError


def _check_point(x: Sequence[float], n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise ConstraintError(f"point has shape {arr.shape}, expected ({n},)")
    if np.any(arr < -1e-9) or np.any(arr > 1 + 1e-9):
        raise ConstraintError("point outside [0,1]^V")
    return np.clip(arr, 0.0, 1.0)


# ---------------------------------------------------------------------------
# incremental checkers
# ---------------------------------------------------------------------------


class IndependenceChecker:
    """Grow-only membership tester: can_add(e) asks, add(e) commits."""

    def can_add(self, e: int) -> bool:
        raise NotImplementedError

    def add(self, e: int) -> None:
        raise NotImplementedError


class _UniformChecker(IndependenceChecker):
    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0

    def can_add(self, e: int) -> bool:
        return self.count < self.limit

    def add(self, e: int) -> None:
        self.count += 1


class _PartitionChecker(IndependenceChecker):
    def __init__(self, part_of: Sequence[int], capacities: Sequence[int]):
        self.part_of = part_of
        self.capacities = capacities
        self.counts = [0] * len(capacities)

    def can_add(self, e: int) -> bool:
        j = self.part_of[e]
        return j < 0 or self.counts[j] < self.capacities[j]

    def add(self, e: int) -> None:
        j = self.part_of[e]
        if j >= 0:
            self.counts[j] += 1


class _LaminarChecker(IndependenceChecker):
    def __init__(self, sets_containing: Sequence[tuple[int, ...]], capacities: Sequence[int]):
        self.sets_containing = sets_containing
        self.capacities = capacities
        self.counts = [0] * len(capacities)

    def can_add(self, e: int) -> bool:
        return all(self.counts[j] < self.capacities[j] for j in self.sets_containing[e])

    def add(self, e: int) -> None:
        for j in self.sets_containing[e]:
            self.counts[j] += 1


class _GraphicChecker(IndependenceChecker):
    def __init__(self, edges: Sequence[tuple[int, int]], vertex_count: int):
        self.edges = edges
        self.uf = UnionFind(vertex_count)

    def can_add(self, e: int) -> bool:
        u, v = self.edges[e]
        return self.uf.find(u) != self.uf.find(v)

    def add(self, e: int) -> None:
        u, v = self.edges[e]
        self.uf.union(u, v)


class _IntersectionChecker(IndependenceChecker):
    def __init__(self, children: list[IndependenceChecker]):
        self.children = children

    def can_add(self, e: int) -> bool:
        return all(c.can_add(e) for c in self.children)

    def add(self, e: int) -> None:
        for c in self.children:
            c.add(e)


class _ExplicitChecker(IndependenceChecker):
    def __init__(self, family: frozenset[int]):
        self.family = family
        self.mask = 0

    def can_add(self, e: int) -> bool:
        return (self.mask | (1 << e)) in self.family

    def add(self, e: int) -> None:
        self.mask |= 1 << e


def ordered_scan(
    order: Iterable[int],
    choose: IndependenceChecker,
    coin: Optional[Callable[[int], bool]] = None,
    probe: Optional[IndependenceChecker] = None,
) -> tuple[list[int], list[int]]:
    """The fixed-order pass of greedy, rounding, ordered CR and SPM: lists of
    the probed and the chosen elements, in scan order.

    order is pulled one element at a time. e is probed when probe (if any)
    and choose can both add it; it enters probe, then enters choose when
    coin(e), asked only now, is true (always without a coin).
    """
    probed: list[int] = []
    chosen: list[int] = []
    for e in order:
        if not ((probe is None or probe.can_add(e)) and choose.can_add(e)):
            continue
        if probe is not None:
            probe.add(e)
        probed.append(e)
        if coin is None or coin(e):
            choose.add(e)
            chosen.append(e)
    return probed, chosen


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------


class Matroid(ConstraintSystem):
    """Base for matroid variants: greedy over checker() is exact on a matroid
    (Edmonds 1970), so it gives the rank of any set and the span of t."""

    def _greedy(self, mask: int) -> tuple[IndependenceChecker, int]:
        """A checker fed mask's bits in ascending order, and how many it took."""
        chk = self.checker()
        return chk, len(ordered_scan(_bits(mask), chk)[1])

    def _rank_mask(self, mask: int) -> int:
        return self._greedy(mask)[1]

    def span(self, t: Iterable[int]) -> frozenset[int]:
        """t plus every element the greedy basis of t refuses."""
        mask = mask_of(t, self.universe_size)
        chk = self._greedy(mask)[0]
        for e in range(self.universe_size):
            if not chk.can_add(e):
                mask |= 1 << e
        return set_of(mask)

    def k_parameter(self) -> int:
        return 1


def _separate_capacity_sets(
    system: Matroid, sets: Sequence[tuple[int, ...]], x: np.ndarray, tol: float
) -> Optional[SubsetWitness]:
    """Most violated x(S) <= rank(S) over a partition's parts or a laminar
    family's sets; ties go to the earliest set.

    When no single set exceeds tol, several disjoint sets may still do so
    together, so the exact worst union is tried before reporting x feasible.
    """
    best = None
    for s in sets:
        if not s:
            continue
        total = float(sum(x[e] for e in s))
        bound = system._rank_mask(mask_of(s, system.universe_size))
        excess = total - bound
        if excess > tol and (best is None or excess > best[0]):
            best = (excess, frozenset(s), total, bound)
    if best is None:
        mask = _worst_laminar_union(system, sets, x)
        total = float(sum(x[e] for e in _bits(mask)))
        bound = system._rank_mask(mask)
        if total - bound > tol:
            return SubsetWitness(set_of(mask), total, bound)
        return None
    return SubsetWitness(*best[1:])


def _worst_laminar_union(
    system: Matroid, sets: Sequence[tuple[int, ...]], x: np.ndarray
) -> int:
    """Mask of the set maximising x(S) - rank(S) under a laminar family.

    The rank of S within a set A is min(cap_A, the children's ranks of S
    plus S's elements in A outside every child), so the worst violation
    inside A is the larger of x(A) - cap_A and the children's positive worst
    violations summed. Sets are visited smallest first, so each set's
    children are the visited sets it contains that have no parent yet.
    """
    n = system.universe_size
    masks = [mask_of(s, n) for s in sets]
    order = sorted(range(len(sets)), key=lambda j: (_popcount(masks[j]), j))
    gain: dict[int, float] = {}
    pick: dict[int, int] = {}
    tops: list[int] = []
    for j in order:
        kids = [i for i in tops if masks[i] & ~masks[j] == 0]
        tops = [i for i in tops if i not in kids] + [j]
        inner = sum(gain[i] for i in kids)
        whole = float(sum(x[e] for e in sets[j])) - system.capacities[j]
        if whole >= inner:
            gain[j], pick[j] = whole, masks[j]
        else:
            gain[j], pick[j] = inner, 0
            for i in kids:
                pick[j] |= pick[i]
        if gain[j] <= 0:
            gain[j], pick[j] = 0.0, 0
    mask = 0
    for i in tops:
        mask |= pick[i]
    return mask


@dataclass(frozen=True)
class UniformMatroid(Matroid):
    universe_size: int
    limit: int

    variant = "uniform"

    def __post_init__(self):
        if self.universe_size < 0 or self.limit < 0:
            raise ConstraintError("uniform matroid needs universe_size >= 0 and limit >= 0")

    def _indep_mask(self, mask: int) -> bool:
        return _popcount(mask) <= self.limit

    def _separate(self, x: np.ndarray, tol: float) -> Optional[SubsetWitness]:
        support = np.flatnonzero(x > 0)
        if len(support) <= self.limit:
            return None
        total = float(x[support].sum())
        if total > self.limit + tol:
            return SubsetWitness(frozenset(int(e) for e in support), total, self.limit)
        return None

    def checker(self) -> IndependenceChecker:
        return _UniformChecker(self.limit)

    def descriptor(self) -> dict:
        return {"variant": "uniform", "rank": self.limit}


@dataclass(frozen=True)
class PartitionMatroid(Matroid):
    """Disjoint parts with per-part capacities; uncovered elements are free."""

    universe_size: int
    parts: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    variant = "partition"

    def __post_init__(self):
        if len(self.parts) != len(self.capacities):
            raise ConstraintError("parts and capacities must have equal length")
        seen = 0
        for part in self.parts:
            pm = mask_of(part, self.universe_size)
            if pm & seen:
                raise ConstraintError("partition parts overlap")
            seen |= pm
        if any(c < 0 for c in self.capacities):
            raise ConstraintError("negative capacity")

    @cached_property
    def _part_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(p, self.universe_size) for p in self.parts)

    @cached_property
    def _part_of(self) -> tuple[int, ...]:
        out = [-1] * self.universe_size
        for j, part in enumerate(self.parts):
            for e in part:
                out[e] = j
        return tuple(out)

    def _indep_mask(self, mask: int) -> bool:
        return all(
            _popcount(mask & pm) <= cap
            for pm, cap in zip(self._part_masks, self.capacities)
        )

    def _separate(self, x: np.ndarray, tol: float) -> Optional[SubsetWitness]:
        return _separate_capacity_sets(self, self.parts, x, tol)

    def checker(self) -> IndependenceChecker:
        return _PartitionChecker(self._part_of, self.capacities)

    def descriptor(self) -> dict:
        return {
            "variant": "partition",
            "parts": [list(p) for p in self.parts],
            "capacities": list(self.capacities),
        }


@dataclass(frozen=True)
class LaminarMatroid(Matroid):
    """Nested-or-disjoint sets with capacities."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    variant = "laminar"

    def __post_init__(self):
        if len(self.sets) != len(self.capacities):
            raise ConstraintError("sets and capacities must have equal length")
        if any(c < 0 for c in self.capacities):
            raise ConstraintError("negative capacity")
        masks = [mask_of(s, self.universe_size) for s in self.sets]
        for a, b in itertools.combinations(masks, 2):
            inter = a & b
            if inter and inter != a and inter != b:
                raise ConstraintError("laminar family violates nesting")

    @cached_property
    def _set_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(s, self.universe_size) for s in self.sets)

    @cached_property
    def _sets_containing(self) -> tuple[tuple[int, ...], ...]:
        out: list[tuple[int, ...]] = []
        for e in range(self.universe_size):
            bit = 1 << e
            out.append(tuple(j for j, m in enumerate(self._set_masks) if m & bit))
        return tuple(out)

    def _indep_mask(self, mask: int) -> bool:
        return all(
            _popcount(mask & sm) <= cap
            for sm, cap in zip(self._set_masks, self.capacities)
        )

    def _separate(self, x: np.ndarray, tol: float) -> Optional[SubsetWitness]:
        return _separate_capacity_sets(self, self.sets, x, tol)

    def checker(self) -> IndependenceChecker:
        return _LaminarChecker(self._sets_containing, self.capacities)

    def descriptor(self) -> dict:
        return {
            "variant": "laminar",
            "sets": [list(s) for s in self.sets],
            "capacities": list(self.capacities),
        }


@dataclass(frozen=True)
class GraphicMatroid(Matroid):
    """Elements are edges; independence is acyclicity (forests)."""

    universe_size: int
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    variant = "graphic"

    def __post_init__(self):
        if len(self.edges) != self.universe_size:
            raise ConstraintError("one edge per element required")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ConstraintError("edge endpoint outside vertex range")

    def _indep_mask(self, mask: int) -> bool:
        uf = UnionFind(self.vertex_count)
        for e in _bits(mask):
            u, v = self.edges[e]
            if not uf.union(u, v):
                return False
        return True

    def _separate(self, x: np.ndarray, tol: float) -> Optional[SubsetWitness]:
        """Worst induced-subgraph constraint, found by one min-cut per root.

        Forest rank constraints reduce to x(E[U]) <= |U| - 1 over connected
        vertex sets U. Fixing a root inside U makes the worst U a project
        selection problem (collect edge masses, pay 1 per vertex), so each
        root costs one max-flow and the graph size stays polynomial, unlike
        the subset enumeration the other variants can afford.
        """
        loops = [e for e, (u, v) in enumerate(self.edges) if u == v and x[e] > 0]
        if loops:
            mass = float(sum(x[e] for e in loops))
            if mass > tol:
                return SubsetWitness(frozenset(loops), mass, 0)
        support = [
            e for e, (u, v) in enumerate(self.edges) if u != v and x[e] > 0
        ]
        if not support:
            return None
        best: Optional[tuple[float, frozenset[int], float, int]] = None
        for w in range(self.vertex_count):
            # source 0, sink 1, vertex v -> 2 + v, j-th support edge after that
            flow = _MaxFlow(2 + self.vertex_count + len(support))
            total = 0.0
            for j, e in enumerate(support):
                node = 2 + self.vertex_count + j
                flow.add(0, node, float(x[e]))
                total += float(x[e])
                for end in set(self.edges[e]):
                    if end != w:
                        flow.add(node, 2 + end, math.inf)
            for v in range(self.vertex_count):
                if v != w:
                    flow.add(2 + v, 1, 1.0)
            gain = total - flow.run(0, 1)
            if gain <= tol:
                continue
            side = flow.source_side(0)
            chosen = {w} | {v for v in range(self.vertex_count) if 2 + v in side}
            uf = UnionFind(self.vertex_count)
            inside = [
                e for e in support
                if self.edges[e][0] in chosen and self.edges[e][1] in chosen
            ]
            for e in inside:
                uf.union(*self.edges[e])
            by_root: dict[int, list[int]] = {}
            for e in inside:
                by_root.setdefault(uf.find(self.edges[e][0]), []).append(e)
            for members in by_root.values():
                value = float(sum(x[e] for e in members))
                vertices = {v for e in members for v in self.edges[e]}
                excess = value - (len(vertices) - 1)
                if excess > tol and (best is None or excess > best[0]):
                    best = (excess, frozenset(members), value, len(vertices) - 1)
        if best is None:
            return None
        return SubsetWitness(*best[1:])

    def checker(self) -> IndependenceChecker:
        return _GraphicChecker(self.edges, self.vertex_count)

    def descriptor(self) -> dict:
        return {
            "variant": "graphic",
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.edges],
        }


@dataclass(frozen=True)
class IntersectionSystem(ConstraintSystem):
    """Intersection of member systems; nested intersections are flattened."""

    members: tuple[ConstraintSystem, ...]

    variant = "intersection"

    def __post_init__(self):
        if not self.members:
            raise ConstraintError("intersection needs at least one member")
        flat: list[ConstraintSystem] = []
        for m in self.members:
            if isinstance(m, IntersectionSystem):
                flat.extend(m.members)
            else:
                flat.append(m)
        sizes = {m.universe_size for m in flat}
        if len(sizes) != 1:
            raise ConstraintError("intersection members disagree on universe size")
        object.__setattr__(self, "members", tuple(flat))

    @property
    def universe_size(self) -> int:  # type: ignore[override]
        return self.members[0].universe_size

    def _indep_mask(self, mask: int) -> bool:
        return all(m._indep_mask(mask) for m in self.members)

    def k_parameter(self) -> int:
        return sum(m.k_parameter() for m in self.members)

    def checker(self) -> IndependenceChecker:
        return _IntersectionChecker([m.checker() for m in self.members])

    def descriptor(self) -> dict:
        return {
            "variant": "intersection",
            "members": [m.descriptor() for m in self.members],
        }


@dataclass(frozen=True)
class ExplicitSystem(ConstraintSystem):
    """Independent sets listed explicitly as bitmasks."""

    universe_size: int
    family: frozenset[int]

    variant = "explicit"

    def __post_init__(self):
        if self.universe_size > EXPLICIT_UNIVERSE_LIMIT:
            raise CapabilityError(
                f"explicit variant capped at universe size {EXPLICIT_UNIVERSE_LIMIT}"
            )
        if 0 not in self.family:
            raise ConstraintError("explicit family must contain the empty set")
        full = (1 << self.universe_size) - 1
        for m in self.family:
            if m & ~full:
                raise ConstraintError("family mask outside universe")
            # downward closure: dropping any one element stays in the family
            for e in _bits(m):
                if (m ^ (1 << e)) not in self.family:
                    raise ConstraintError("explicit family is not downward closed")

    def _indep_mask(self, mask: int) -> bool:
        return mask in self.family

    def k_parameter(self) -> int:
        """Smallest integer k such that max/min maximal sizes stay within k.

        Computed exactly over every subset of the universe.
        """
        n = self.universe_size
        worst = 1.0
        for smask in range(1, 1 << n):
            max_size = 0
            min_maximal = None
            for m in self.family:
                if m & ~smask:
                    continue
                size = _popcount(m)
                max_size = max(max_size, size)
                maximal = True
                rest = smask & ~m
                for e in _bits(rest):
                    if (m | (1 << e)) in self.family:
                        maximal = False
                        break
                if maximal and (min_maximal is None or size < min_maximal):
                    min_maximal = size
            if min_maximal and max_size:
                worst = max(worst, max_size / min_maximal)
        return math.ceil(worst - 1e-12)

    def checker(self) -> IndependenceChecker:
        return _ExplicitChecker(self.family)

    def descriptor(self) -> dict:
        return {
            "variant": "explicit",
            "family": sorted(sorted(set_of(m)) for m in self.family),
        }


# ---------------------------------------------------------------------------
# enumeration machinery: mask tables, the one method behind exact rank and
# separation for intersections and explicit families; over the universe up to
# MASK_TABLE_LIMIT, over the queried mask or the support of x above it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskTables:
    independent: np.ndarray  # bool, 2^len(elements)
    rank: np.ndarray  # int16, 2^len(elements)


def _build_tables(system: ConstraintSystem, elements: Sequence[int]) -> MaskTables:
    """Independence and rank of every subset of elements; bit i of a table
    index stands for elements[i]."""
    masks = [0]
    for e in elements:
        bit = 1 << e
        masks += [m | bit for m in masks]
    size = len(masks)
    indep = bytearray(size)
    indep[0] = 1
    # downward closure: a set can only be independent if removing its lowest
    # bit leaves an independent set, which prunes most membership calls
    for i in range(1, size):
        if indep[i & (i - 1)] and system._indep_mask(masks[i]):
            indep[i] = 1
    independent = np.frombuffer(indep, dtype=bool).copy()
    rank = np.where(independent, _subset_sums(np.ones(len(elements))), 0).astype(np.int16)
    # rank[S] = max(rank[S], rank[S - e]) for each element in turn
    for i in range(len(elements)):
        halves = rank.reshape(-1, 2, 1 << i)
        np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return MaskTables(independent=independent, rank=rank)


@lru_cache(maxsize=64)
def _tables(system: ConstraintSystem) -> MaskTables:
    return _build_tables(system, range(system.universe_size))


def mask_tables(system: ConstraintSystem) -> MaskTables:
    if system.universe_size > MASK_TABLE_LIMIT:
        raise CapabilityError(
            f"mask tables capped at universe size {MASK_TABLE_LIMIT}"
        )
    return _tables(system)


def _rank_by_search(system: ConstraintSystem, mask: int) -> int:
    """Exact rank from mask tables over the universe, or above
    MASK_TABLE_LIMIT from the size of an independent mask and otherwise from
    tables over its bits."""
    if _popcount(mask) > ENUMERATION_LIMIT:
        raise CapabilityError(
            f"exact rank by enumeration capped at {ENUMERATION_LIMIT} elements"
        )
    if system.universe_size <= MASK_TABLE_LIMIT:
        return int(_tables(system).rank[mask])
    if system._indep_mask(mask):
        return _popcount(mask)
    return int(_build_tables(system, list(_bits(mask))).rank[-1])


def _separate_by_enumeration(
    system: ConstraintSystem, x: np.ndarray, tol: float
) -> Optional[SubsetWitness]:
    """Exact separation over the rank polytope.

    The most violated set is always attained on a subset of the support of x
    (adding a zero-weight element cannot decrease rank), so above
    MASK_TABLE_LIMIT the tables span the support only. There a tie goes to
    the smallest nonempty set, then the lexicographically first.
    """
    if system.universe_size <= MASK_TABLE_LIMIT:
        tables = _tables(system)
        sums = _subset_sums(x)
        excess = sums - tables.rank
        best = int(np.argmax(excess))
        if excess[best] > tol:
            return SubsetWitness(set_of(best), float(sums[best]), int(tables.rank[best]))
        return None
    support = np.flatnonzero(x > 0).tolist()
    if len(support) > ENUMERATION_LIMIT:
        raise CapabilityError(
            f"separation by enumeration capped at support size {ENUMERATION_LIMIT}"
        )
    tables = _build_tables(system, support)
    sums = _subset_sums(x[support])
    excess = sums - tables.rank
    excess[0] = -np.inf
    top = excess.max()
    if not top > tol:
        return None
    best = min(
        np.flatnonzero(excess == top).tolist(),
        key=lambda i: (_popcount(i), list(_bits(i))),
    )
    members = frozenset(support[i] for i in _bits(best))
    return SubsetWitness(members, float(sums[best]), int(tables.rank[best]))


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[i] = sum of values over the bits of i, built by doubling."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + float(v)])
    return sums

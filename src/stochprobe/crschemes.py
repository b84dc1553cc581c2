"""Contention resolution over independently sampled sets.

Given a fractional point z in the rank polytope of a system, sample I by
keeping each element independently with probability b*z_e. A scheme prunes I
to an independent subset so that every element, conditioned on being
sampled, survives with probability at least c:

* ordered scan: applies to any k-system, targeting c = 1 - k*b;
* random choice per part: exact scheme for capacity-1 partition matroids
  with the stronger c = (1 - e^{-b})/b. Its conditional marginal has the
  closed form E[1/(1 + X)] with X the number of sampled part-mates, which
  this module evaluates exactly by polynomial integration.

The ordered target assumes the permutation is chosen sensibly for the
instance. A scan that leaves a heavily contested element until last can
push that element's retention below 1 - k*b once b times the mass spanning
it grows (parallel-paths graphs exhibit this at a few dozen paths), which
is why the permutation is configurable and why verify_scheme exists: it
measures the realized per-element retention instead of trusting the label.
On the desk-scale families shipped here every configured policy clears the
target with room.

Both schemes are monotone: shrinking the sampled set can only help any fixed
element survive. For the random-choice scheme that is exact arithmetic; for
ordered scans it is checked empirically (a fixed scan order is trivially
monotone on matroids, where a kept element stays kept after removals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .constraints import (
    CapabilityError,
    ConstraintError,
    ConstraintSystem,
    PartitionMatroid,
)
from .evaluate import THREE_SIGMA_RADII, binomial_radius, trial_rngs

ORDER_POLICIES = ("by-index", "by-weight-desc", "random")
KINDS = ("ordered_ksystem", "partition_random_choice")


@dataclass(frozen=True)
class CrSchemeSpec:
    kind: str
    b: float
    order_policy: str = "by-index"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstraintError(f"unknown scheme kind {self.kind!r}")
        if not 0.0 < self.b <= 1.0:
            raise ConstraintError("scaling factor b must lie in (0, 1]")
        if self.order_policy not in ORDER_POLICIES:
            raise ConstraintError(f"unknown order policy {self.order_policy!r}")

    def target_c(self, system: ConstraintSystem) -> float:
        """Guaranteed conditional retention for this scheme on this system."""
        if self.kind == "ordered_ksystem":
            k = system.k_parameter()
            if self.b >= 1.0 / k:
                raise ConstraintError(
                    f"ordered scheme needs b < 1/k, got b={self.b} on a {k}-system"
                )
            return 1.0 - k * self.b
        return (1.0 - math.exp(-self.b)) / self.b


def resolve_ordered(
    system: ConstraintSystem, order: Sequence[int], i: Iterable[int]
) -> frozenset[int]:
    """Greedily keep members of i that stay independent, scanning in order."""
    members = set(i)
    checker = system.checker()
    kept = set()
    for e in order:
        if e in members and checker.can_add(e):
            checker.add(e)
            kept.add(e)
    return frozenset(kept)


def unit_partition(system: ConstraintSystem) -> PartitionMatroid:
    """The system, checked to be a partition matroid with all capacities 1.

    The random-choice scheme's precondition, shared by resolution, its
    monotonicity check and the exact marginals.
    """
    if not isinstance(system, PartitionMatroid):
        raise CapabilityError("random-choice resolution needs a partition matroid")
    if any(c != 1 for c in system.capacities):
        raise CapabilityError(
            "random-choice resolution needs all capacities 1; use the ordered scheme"
        )
    return system


def resolve_partition(
    system: ConstraintSystem, i: Iterable[int], rng: np.random.Generator
) -> frozenset[int]:
    """Keep one uniformly random sampled member per part (capacities all 1)."""
    system = unit_partition(system)
    members = set(i)
    kept = set(members)
    for part in system.parts:
        present = sorted(members.intersection(part))
        if len(present) > 1:
            winner = present[int(rng.integers(0, len(present)))]
            kept.difference_update(present)
            kept.add(winner)
    return frozenset(kept)


def scheme_order(
    spec: CrSchemeSpec,
    system: ConstraintSystem,
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
) -> tuple[int, ...]:
    n = system.universe_size
    if spec.order_policy == "by-index":
        return tuple(range(n))
    if spec.order_policy == "by-weight-desc":
        if weights is None:
            raise ConstraintError("weight-descending order needs weights")
        return tuple(sorted(range(n), key=lambda e: (-float(weights[e]), e)))
    return tuple(int(e) for e in rng.permutation(n))


def resolve(
    spec: CrSchemeSpec,
    system: ConstraintSystem,
    i: Iterable[int],
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
) -> frozenset[int]:
    if spec.kind == "partition_random_choice":
        return resolve_partition(system, i, rng)
    return resolve_ordered(system, scheme_order(spec, system, rng, weights), i)


# ---------------------------------------------------------------------------
# exact marginals for the random-choice scheme
# ---------------------------------------------------------------------------


def expected_inverse_one_plus(qs: Sequence[float]) -> float:
    """E[1/(1+X)] for X a sum of independent Bernoulli(q) variables.

    Uses E[1/(1+X)] = integral over t in [0,1] of prod(1 - q + q*t): expand
    the product's coefficients, then integrate term by term.
    """
    coeffs = np.array([1.0])
    for q in qs:
        coeffs = np.convolve(coeffs, np.array([1.0 - q, q]))
    powers = np.arange(1, len(coeffs) + 1, dtype=float)
    return float(np.sum(coeffs / powers))


def exact_partition_marginal(
    system: PartitionMatroid, z: Sequence[float], b: float, e: int
) -> float:
    """Exact Pr[e kept | e sampled] under the random-choice scheme."""
    for part in system.parts:
        if e in part:
            qs = [b * float(z[f]) for f in part if f != e]
            return expected_inverse_one_plus(qs)
    return 1.0


def partition_marginal_lower_bound(mass: float) -> float:
    """(1 - e^{-mass})/mass, the retention bound at sampled part mass b*z(part)."""
    if mass <= 0.0:
        return 1.0
    return (1.0 - math.exp(-mass)) / mass


# ---------------------------------------------------------------------------
# empirical verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeVerification:
    estimates: tuple[float, ...]
    radii: tuple[float, ...]
    included: tuple[int, ...]
    trials: int
    target_c: float

    def satisfied(self) -> bool:
        """Every estimate at least target_c less a 3-sigma slack."""
        return all(
            est >= self.target_c - THREE_SIGMA_RADII * rad
            for est, rad in zip(self.estimates, self.radii)
        )


def verify_scheme(
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
    rngs = trial_rngs(seed, trials)
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
    for rng in rngs:
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
        radii.append(binomial_radius(p_hat, sampled[e]))
    return SchemeVerification(
        estimates=tuple(estimates),
        radii=tuple(radii),
        included=tuple(int(v) for v in sampled),
        trials=trials,
        target_c=spec.target_c(system),
    )


def verify_monotonicity(
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
    orders are compared by Monte Carlo with a one-sided 3-sigma slack.
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
    for rng in trial_rngs(seed, trials):
        order = scheme_order(spec, system, rng, weights)
        hits1 += e in resolve_ordered(system, order, set1)
        hits2 += e in resolve_ordered(system, order, set2)
    p1, p2 = hits1 / trials, hits2 / trials
    radius = max(binomial_radius(p1, trials), binomial_radius(p2, trials))
    return p1 >= p2 - THREE_SIGMA_RADII * radius


def _partition_keep_chance(system: ConstraintSystem, members: frozenset[int], e: int) -> float:
    for part in unit_partition(system).parts:
        if e in part:
            return 1.0 / len(members.intersection(part))
    return 1.0

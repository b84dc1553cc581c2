"""Policy evaluation: Monte Carlo, exact enumeration, adaptive optimum.

Every Monte Carlo trial in the package takes its generator from trial_rngs,
and every confidence radius comes from from_samples or binomial_radius.

Policies are callables (instance, rng) -> realized value for one draw of the
element activities. Exact evaluation is offered for permutation policies
(probe in a fixed order whenever both systems permit), optionally with an
independent probe-inclusion coin per element, which is how rounded LP
solutions and the bad-ordering baselines are shaped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .constraints import CapabilityError, ConstraintError, mask_tables
from .instance import ProbingInstance

Policy = Callable[[ProbingInstance, np.random.Generator], float]

EXACT_PERMUTATION_LIMIT = 15
EXACT_COIN_LIMIT = 12
ORACLE_LIMIT = 12
ORACLE_DEADLINE_LIMIT = 10

# two-sided 99% normal quantile for confidence radii
Z99 = 2.5758293035489004
# slacks are quoted in standard errors; this many radii make three of them
THREE_SIGMA_RADII = 3.0 / Z99


@dataclass(frozen=True)
class PolicyValueReport:
    mean: float
    radius: float
    trials: int
    method: str  # "exact", "monte_carlo", or "oracle"

    def __post_init__(self):
        if self.radius < 0:
            raise ConstraintError("confidence radius must be non-negative")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "PolicyValueReport":
        """Mean of per-trial values with its 99% normal confidence radius."""
        trials = len(values)
        radius = 0.0
        if trials > 1:
            radius = float(Z99 * values.std(ddof=1) / np.sqrt(trials))
        return cls(float(values.mean()), radius, trials, "monte_carlo")


def binomial_radius(p_hat: float, n: int) -> float:
    """99% normal confidence radius of a proportion p_hat seen over n draws."""
    return Z99 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def trial_rngs(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One generator per trial t < trials, seeded by the pair (seed, t).

    Each trial's stream depends on (seed, trial index) alone, so callers may
    split the trial range across workers without changing results.
    """
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    return (np.random.default_rng((seed, t)) for t in range(trials))


def monte_carlo(
    draw: Callable[[np.random.Generator], float], trials: int, seed: int
) -> PolicyValueReport:
    """Report over the values draw(rng) takes on the trial generators."""
    values = (draw(rng) for rng in trial_rngs(seed, trials))
    return PolicyValueReport.from_samples(np.fromiter(values, float, count=trials))


def simulate(
    policy: Policy, instance: ProbingInstance, trials: int, seed: int
) -> PolicyValueReport:
    """Average realized value over independent runs; deterministic in (seed, trials)."""
    return monte_carlo(lambda rng: policy(instance, rng), trials, seed)


def permutation_policy(
    order: Sequence[int], probe_probabilities: Optional[Sequence[float]] = None
) -> Policy:
    """Probe elements in the given order whenever both systems permit.

    With probe_probabilities, element e is only attempted after winning an
    independent coin with that probability (sample-then-scan rounding shape).
    """

    def run(instance: ProbingInstance, rng: np.random.Generator) -> float:
        probs = instance.probabilities()
        weights = instance.weights()
        outer_check = instance.outer.checker()
        inner_check = instance.inner.checker()
        value = 0.0
        for e in order:
            if probe_probabilities is not None:
                if rng.random() >= probe_probabilities[e]:
                    continue
            if not (outer_check.can_add(e) and inner_check.can_add(e)):
                continue
            outer_check.add(e)
            if rng.random() < probs[e]:
                inner_check.add(e)
                value += float(weights[e])
        return value

    return run


def _validate_order(order: Sequence[int], n: int) -> tuple[int, ...]:
    order = tuple(int(e) for e in order)
    if sorted(order) != list(range(n)):
        raise ConstraintError("order must be a permutation of the universe")
    return order


def exact_nonadaptive_value(
    order: Sequence[int],
    instance: ProbingInstance,
    probe_probabilities: Optional[Sequence[float]] = None,
) -> float:
    """Exact expected value of a permutation policy by outcome recursion.

    States are (position, probed mask, chosen mask); activity branches only
    on actual probes, and the optional inclusion coin folds in linearly.
    """
    n = instance.n
    limit = EXACT_PERMUTATION_LIMIT if probe_probabilities is None else EXACT_COIN_LIMIT
    if n > limit:
        raise CapabilityError(f"exact evaluation capped at {limit} elements here")
    if n == 0:
        return 0.0
    order = _validate_order(order, n)
    probs = [float(v) for v in instance.probabilities()]
    weights = [float(v) for v in instance.weights()]
    coins = None
    if probe_probabilities is not None:
        coins = [float(v) for v in probe_probabilities]
        if len(coins) != n:
            raise ConstraintError("probe probability vector length mismatch")
    inner_ok = mask_tables(instance.inner).independent
    outer_ok = mask_tables(instance.outer).independent

    @lru_cache(maxsize=None)
    def value(i: int, q: int, s: int) -> float:
        if i == n:
            return 0.0
        e = order[i]
        bit = 1 << e
        skip = value(i + 1, q, s)
        if not (outer_ok[q | bit] and inner_ok[s | bit]):
            return skip
        p = probs[e]
        probe = p * (weights[e] + value(i + 1, q | bit, s | bit))
        probe += (1.0 - p) * value(i + 1, q | bit, s)
        if coins is None:
            return probe
        c = coins[e]
        return c * probe + (1.0 - c) * skip

    result = value(0, 0, 0)
    value.cache_clear()
    return result


def optimal_adaptive(instance: ProbingInstance) -> float:
    """Optimal adaptive probing value by memoized recursion over (Q, S).

    With deadlines, the clock is forced by the history (t = |Q| + 1) and a
    probe of e is allowed only while t <= d_e; the deadline relaxation used
    by the greedy policy plays no role here.
    """
    n = instance.n
    deadlines = instance.deadlines() if instance.has_deadlines() else None
    limit = ORACLE_LIMIT if deadlines is None else ORACLE_DEADLINE_LIMIT
    if n > limit:
        raise CapabilityError(f"adaptive optimum capped at {limit} elements here")
    if n == 0:
        return 0.0
    probs = [float(v) for v in instance.probabilities()]
    weights = [float(v) for v in instance.weights()]
    inner_ok = mask_tables(instance.inner).independent
    outer_ok = mask_tables(instance.outer).independent

    @lru_cache(maxsize=None)
    def value(q: int, s: int) -> float:
        best = 0.0
        t = q.bit_count() + 1
        for e in range(n):
            bit = 1 << e
            if q & bit:
                continue
            if deadlines is not None and t > deadlines[e]:
                continue
            if not (outer_ok[q | bit] and inner_ok[s | bit]):
                continue
            p = probs[e]
            gain = p * (weights[e] + value(q | bit, s | bit))
            gain += (1.0 - p) * value(q | bit, s)
            best = max(best, gain)
        return best

    result = value(0, 0)
    value.cache_clear()
    return result

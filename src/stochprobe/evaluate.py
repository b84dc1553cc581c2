"""Policy evaluation: Monte Carlo and the adaptive optimum.

Every Monte Carlo trial in the package takes its generator from trial_rngs,
and every confidence radius comes from from_samples or binomial_radius.

Policies are callables (instance, rng) -> realized value for one draw of the
element activities. Permutation policies probe in a fixed order whenever
both systems permit, optionally with an independent probe-inclusion coin per
element, which is how rounded LP solutions and the bad-ordering baselines
are shaped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .constraints import CapabilityError, ConstraintError, mask_tables
from .instance import ProbingInstance

Policy = Callable[[ProbingInstance, np.random.Generator], float]

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


def optimal_adaptive(instance: ProbingInstance) -> float:
    """Optimal adaptive probing value by a level DP over reachable (Q, S).

    A state's code gives element e the base-3 digit 0 (unprobed), 1 (probed
    and inactive) or 2 (chosen); its Q and S masks travel with it while the
    levels are built. Level L holds the sorted codes reachable with
    |Q| = L, deduplicated with np.unique, so no dense 3^n array is made; e
    may be probed where it is unprobed and both mask tables accept Q + e
    and S + e. The backward sweep takes e in ascending order, finds the
    successors by searchsorted and keeps the running maximum of
    p (w + V[c + 2·3^e]) + (1 - p) V[c + 3^e]: the floating-point steps of
    the memoized recursion over (Q, S) it replaced, so the value keeps its
    bits.

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

    # levels[L] = (sorted codes with |Q| = L, [(e, 3^e, states that may probe e)])
    levels = []
    codes = q = s = np.zeros(1, np.int32)  # 3^n < 2^31 while n <= 19
    while True:
        moves, grown = [], []
        for e in range(n):
            if deadlines is not None and len(levels) + 1 > deadlines[e]:
                continue
            bit = 1 << e
            ok = ((q & bit) == 0) & outer_ok[q | bit] & inner_ok[s | bit]
            if ok.any():
                step = 3**e
                moves.append((e, step, ok))
                c, q_e, s_e = codes[ok], q[ok] | bit, s[ok]
                grown += [(c + 2 * step, q_e, s_e | bit), (c + step, q_e, s_e)]
        levels.append((codes, moves))
        if not grown:
            break
        codes, first = np.unique(np.concatenate([g[0] for g in grown]), return_index=True)
        q, s = (np.concatenate([g[i] for g in grown])[first] for i in (1, 2))

    # the deepest level has no moves, so value and after are set before use
    for codes, moves in reversed(levels):
        best = np.zeros(len(codes))
        for e, step, ok in moves:
            c = codes[ok]
            p = probs[e]
            gain = p * (weights[e] + value[np.searchsorted(after, c + 2 * step)])
            gain += (1.0 - p) * value[np.searchsorted(after, c + step)]
            best[ok] = np.maximum(best[ok], gain)
        value, after = best, codes
    return float(value[0])

"""Rounding a fractional probing solution into a non-adaptive policy.

Pipeline per draw: sample each element independently with probability
b * y_e, prune the sample to an outer-independent candidate set with the
outer scheme, then scan the candidates in the inner scheme's order, probing
whenever the chosen set stays inner-independent. Per element this keeps at
least b * (c_out + c_in - 1) of its LP mass, so the policy's expected value
is at least that fraction of the LP objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .constraints import CapabilityError, ConstraintError, ordered_scan
from .crschemes import (
    CrSchemeSpec,
    fixed_scheme_order,
    resolve,
    resolve_ordered,
    scheme_order,
    unit_partition,
)
from .evaluate import PolicyValueReport, monte_carlo, trial_uniforms
from .greedy import Activity, _activity_fn
from .instance import ProbingInstance
from .lp import FractionalSolution, solve_probing_lp

EXACT_MARGINAL_LIMIT = 10

SolutionLike = Union[FractionalSolution, Sequence[float]]


def _y_of(solution: SolutionLike, n: int) -> np.ndarray:
    y = np.asarray(getattr(solution, "y", solution), dtype=float)
    if y.shape != (n,):
        raise ConstraintError("fractional solution length must match the universe")
    if y.min() < -1e-12 or y.max() > 1.0 + 1e-12:
        raise ConstraintError("fractional probe values must lie in [0, 1]")
    return np.clip(y, 0.0, 1.0)


@dataclass(frozen=True)
class RoundingConfig:
    b: float
    outer_scheme: CrSchemeSpec
    inner_scheme: CrSchemeSpec
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.b <= 1.0:
            raise ConstraintError("scaling factor b must lie in (0, 1]")
        if self.inner_scheme.kind != "ordered_ksystem":
            raise ConstraintError("the inner scheme must be an ordered scheme")
        if self.outer_scheme.b != self.b or self.inner_scheme.b != self.b:
            raise ConstraintError("schemes must share the config's scaling factor")

    def guarantee(self, instance: ProbingInstance) -> float:
        """b * (c_out + c_in - 1); rejects configurations with no guarantee."""
        c_out = self.outer_scheme.target_c(instance.outer)
        c_in = self.inner_scheme.target_c(instance.inner)
        value = self.b * (c_out + c_in - 1.0)
        if value <= 0.0:
            raise ConstraintError(
                f"no positive guarantee: b={self.b}, c_out={c_out}, c_in={c_in}"
            )
        return value


def default_config(instance: ProbingInstance, seed: int = 0) -> RoundingConfig:
    """Ordered schemes both sides at b = 1/(2(k_in + k_out))."""
    b = 1.0 / (2.0 * (instance.inner.k_parameter() + instance.outer.k_parameter()))
    return RoundingConfig(
        b=b,
        outer_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy="by-index"),
        inner_scheme=CrSchemeSpec("ordered_ksystem", b, order_policy="by-weight-desc"),
        seed=seed,
    )


@dataclass(frozen=True)
class NonAdaptivePolicy:
    """Candidates to probe, already pruned to the outer system and ordered."""

    probe_sequence: tuple[int, ...]


def round_solution(
    instance: ProbingInstance,
    solution: SolutionLike,
    config: RoundingConfig,
    rng: Optional[np.random.Generator] = None,
) -> NonAdaptivePolicy:
    """One rounding draw: sample at b*y, resolve outward, order inward.

    Elements with y_e = 0 consume no randomness, so streams stay aligned
    across edits that only add or remove zero-mass elements.

    Runs for any config, even one whose claimed guarantee would be vacuous
    (say b = 1 with an ordered inner scheme); only guarantee() rejects those.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    sequence, _ = _rounding_draw(instance, _y_of(solution, instance.n), config)
    return NonAdaptivePolicy(probe_sequence=sequence(rng.random, rng))


def _rounding_draw(
    instance: ProbingInstance, y: np.ndarray, config: RoundingConfig
) -> tuple[Callable[..., tuple[int, ...]], Optional[int]]:
    """round_solution's draw with its set-up done once, and its draw count.

    The draw is sequence(random, rng): random() returns its uniforms in
    turn, and rng, its generator, is read only by a random scan order or the
    per-part random choice. With both scan orders fixed, the draw reads no
    rng and the count bounds the uniforms that it and execute read
    together: one per element with y_e > 0, and one coin per candidate.
    Otherwise the count is None.
    """
    weights = instance.weights()
    rates = [(e, config.b * y[e]) for e in range(instance.n) if y[e] > 0.0]
    outer, inner = config.outer_scheme, config.inner_scheme
    outer_order = fixed_scheme_order(outer, instance.outer, weights)
    inner_order = fixed_scheme_order(inner, instance.inner, weights)

    def sequence(random: Callable[[], float], rng: Optional[np.random.Generator]):
        sampled = [e for e, rate in rates if random() < rate]
        if outer_order is None:
            candidates = resolve(outer, instance.outer, sampled, rng, weights)
        else:
            candidates = resolve_ordered(instance.outer, outer_order, sampled)
        sigma = inner_order
        if sigma is None:
            sigma = scheme_order(inner, instance.inner, rng, weights)
        return tuple(e for e in sigma if e in candidates)

    fixed = outer_order is not None and inner_order is not None
    return sequence, 2 * len(rates) if fixed else None


def execute(
    policy: NonAdaptivePolicy,
    instance: ProbingInstance,
    activity: Activity,
) -> frozenset[int]:
    """Probe the sequence under the inner constraint; return the chosen set."""
    draw = _activity_fn(activity, instance.probabilities())
    chosen = ordered_scan(policy.probe_sequence, instance.inner.checker(), draw)[1]
    return frozenset(set(chosen))


def estimate_policy_value(
    instance: ProbingInstance,
    config: RoundingConfig,
    trials: int,
    seed: int,
    solution: Optional[SolutionLike] = None,
) -> PolicyValueReport:
    """Mean w(S) over independent (sample, resolution, activity) draws.

    With fixed scan orders each trial reads its uniforms from
    trial_uniforms, else its generator from trial_rngs; either way trial t
    sees the stream of default_rng((seed, t)).
    """
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
    probs = instance.probabilities()
    sequence, draws = _rounding_draw(instance, y, config)

    def value(random: Callable[[], float], rng=None) -> float:
        chosen = ordered_scan(
            sequence(random, rng), instance.inner.checker(), lambda e: random() < probs[e]
        )[1]
        # frozenset(chosen) could iterate, so sum w(S), in another order
        return sum(weights[e] for e in frozenset(set(chosen)))

    if draws is None:
        return monte_carlo(lambda rng: value(rng.random, rng), trials, seed)
    rows = (row for block in trial_uniforms(seed, trials, draws) for row in block.tolist())
    values = (value(iter(row).__next__) for row in rows)
    return PolicyValueReport.from_samples(np.fromiter(values, float, count=trials))


def exact_chosen_marginals(
    instance: ProbingInstance,
    config: RoundingConfig,
    solution: SolutionLike,
) -> np.ndarray:
    """Exact Pr[e chosen] per element, enumerating every source of randomness.

    Handles fixed-order schemes and the per-part random choice; random scan
    orders would need permutation enumeration and are refused.
    """
    n = instance.n
    if n > EXACT_MARGINAL_LIMIT:
        raise CapabilityError(
            f"exact marginals capped at {EXACT_MARGINAL_LIMIT} elements"
        )
    if config.inner_scheme.order_policy == "random" or (
        config.outer_scheme.kind == "ordered_ksystem"
        and config.outer_scheme.order_policy == "random"
    ):
        raise CapabilityError("exact marginals need fixed scheme orders")
    y = _y_of(solution, instance.n)
    weights = instance.weights()
    probs = instance.probabilities()
    rng = np.random.default_rng(config.seed)  # never consumed: orders are fixed
    sigma_in = scheme_order(config.inner_scheme, instance.inner, rng, weights)
    rates = config.b * y
    positive = [e for e in range(n) if rates[e] > 0.0]
    marginals = np.zeros(n)

    def outer_resolutions(sampled: tuple[int, ...]):
        if config.outer_scheme.kind == "ordered_ksystem":
            order = scheme_order(config.outer_scheme, instance.outer, rng, weights)
            yield resolve_ordered(instance.outer, order, sampled), 1.0
            return
        system = unit_partition(instance.outer)
        members = set(sampled)
        groups = []
        for part in system.parts:
            present = sorted(members.intersection(part))
            if present:
                groups.append(present)
                members.difference_update(present)
        free = sorted(members)

        def expand(idx, kept, prob):
            if idx == len(groups):
                yield frozenset(kept), prob
                return
            group = groups[idx]
            for winner in group:
                yield from expand(idx + 1, kept + [winner], prob / len(group))

        yield from expand(0, free, 1.0)

    def scan(sequence: list[int], chosen: frozenset[int], prob: float):
        if not sequence or prob == 0.0:
            return
        e, rest = sequence[0], sequence[1:]
        if not instance.inner.is_independent(chosen | {e}):
            scan(rest, chosen, prob)
            return
        p = float(probs[e])
        if p > 0.0:
            marginals[e] += prob * p
            scan(rest, chosen | {e}, prob * p)
        if p < 1.0:
            scan(rest, chosen, prob * (1.0 - p))

    def over_samples(idx: int, sampled: tuple[int, ...], prob: float):
        if idx == len(positive):
            for candidates, q in outer_resolutions(sampled):
                ordered = [e for e in sigma_in if e in candidates]
                scan(ordered, frozenset(), prob * q)
            return
        e = positive[idx]
        r = float(rates[e])
        over_samples(idx + 1, sampled + (e,), prob * r)
        if r < 1.0:
            over_samples(idx + 1, sampled, prob * (1.0 - r))

    over_samples(0, (), 1.0)
    return marginals

"""Greedy probing policies: plain scan, dual certificates, deadlines.

The plain policy scans elements by decreasing probability and probes
whatever still fits both systems. A run yields a PathOutcome, and a path can
be replayed into a dual certificate for the unweighted relaxation whose
value is at most k_in*|S| + k_out*sum(p over probes) for that path.

There is one scan (_scan), on constraints.ordered_scan, the fixed-order pass
that rounding, contention resolution and posted prices share too. Simulation
feeds it coin flips; exact path enumeration replays it once per path on
recorded flips, and audit_certificates checks every path's certificate.

The deadline variant relaxes per-element deadlines into a laminar chain (at
most t probes among elements with deadline <= t) and keeps a bookkeeping set
B of elements reached after their deadline. B-elements still consume laminar
budget and still flip their activity coin so the run stays coupled with the
deadline-free run on the intersected outer system, but only chosen elements
outside B count toward realized value.

Certificate feasibility relies on every positive-probability element being
probe-feasible on its own (no outer loops); loops on the inner side are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .constraints import (
    CapabilityError, ConstraintError, IntersectionSystem, LaminarMatroid, ordered_scan
)
from .instance import ProbingInstance
from .lp import DualCertificate, DualCheck, check_dual

PATH_ENUMERATION_LIMIT = 15
# certificate value may exceed its cap by this much: per path, for the mix
PATH_CAP_TOL = 1e-9
MIXTURE_CAP_TOL = 1e-6

Activity = Union[Sequence[bool], np.random.Generator]


@dataclass(frozen=True)
class PathOutcome:
    """One realized run: probe order, chosen set, bookkeeping set, probability.

    For deadline runs, probed includes the bookkeeping elements (they occupy
    outer and laminar budget); the real probes are probed minus skipped.
    """

    probed: tuple[int, ...]
    chosen: frozenset[int]
    skipped_deadline: frozenset[int]
    probability: float

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0 + 1e-12:
            raise ConstraintError(
                f"path probability {self.probability} outside (0, 1]: "
                "activity contradicts a 0/1 element probability"
            )
        if not self.chosen <= set(self.probed):
            raise ConstraintError("chosen elements must have been probed")

    def realized_value(self, weights: Sequence[float]) -> float:
        return float(sum(weights[e] for e in self.chosen - self.skipped_deadline))


def greedy_order(instance: ProbingInstance) -> tuple[int, ...]:
    """Elements by probability descending, ties by index ascending."""
    return _order(instance.probabilities())


def _order(probs: np.ndarray) -> tuple[int, ...]:
    # a stable sort keeps equal probabilities (0.0 and -0.0 too) in index order
    return tuple(np.argsort(-probs, kind="stable").tolist())


def _activity_fn(activity: Activity, probs: np.ndarray) -> Callable[[int], bool]:
    if isinstance(activity, np.random.Generator):
        return lambda e: bool(activity.random() < probs[e])
    flags = [bool(v) for v in activity]
    if len(flags) != len(probs):
        raise ConstraintError("activity vector length must match universe size")
    return lambda e: flags[e]


def run_greedy(instance: ProbingInstance, activity: Activity) -> PathOutcome:
    """Scan greedy_order, probe e iff Q+e fits outer and S+e fits inner."""
    return _run(instance, activity, with_deadlines=False)


def greedy_policy(
    instance: ProbingInstance, with_deadlines: bool
) -> Callable[[ProbingInstance, np.random.Generator], float]:
    """Realized value of one greedy run on instance per call, with or without
    the deadline clock; the set-up runs once and the coins are drawn as in
    run_greedy and run_greedy_deadline."""
    probs = instance.probabilities()
    run = _scan(instance, probs, with_deadlines)
    weights = instance.weights()
    return lambda inst, rng: run(_activity_fn(rng, probs)).realized_value(weights)


def build_deadline_laminar(instance: ProbingInstance) -> LaminarMatroid:
    """Chain matroid: at most t probes among elements with deadline <= t."""
    deadlines = instance.deadlines()
    if any(d is None for d in deadlines):
        raise ConstraintError("all elements need deadlines to build the chain")
    sets = []
    caps = []
    for t in sorted(set(deadlines)):
        sets.append(tuple(e for e, d in enumerate(deadlines) if d <= t))
        caps.append(int(t))
    return LaminarMatroid(instance.n, sets=tuple(sets), capacities=tuple(caps))


def run_greedy_deadline(instance: ProbingInstance, activity: Activity) -> PathOutcome:
    """Greedy scan with a probe clock; late elements go to the bookkeeping set.

    e enters Q iff Q+e fits outer and the deadline chain and S+e fits inner.
    If the clock has passed d_e the element is only simulated: it joins the
    bookkeeping set, flips its coin into S, and the clock stays put.
    """
    return _run(instance, activity, with_deadlines=True)


def _run(
    instance: ProbingInstance, activity: Activity, with_deadlines: bool
) -> PathOutcome:
    probs = instance.probabilities()
    draw = _activity_fn(activity, probs)
    return _scan(instance, probs, with_deadlines)(draw)


def _scan(
    instance: ProbingInstance, probs: np.ndarray, with_deadlines: bool
) -> Callable[[Callable[[int], bool]], PathOutcome]:
    """The greedy scan over its per-instance set-up; each call is one run.

    A run probes e iff Q+e fits outer (and the deadline chain) and S+e fits
    inner, then asks draw(e) for e's coin. The clock, the bookkeeping set and
    the path probability are read off the probes afterwards, as a skip never
    changes the scan: a late element joins the bookkeeping set and leaves
    the clock where it was.
    """
    deadlines = instance.deadlines() if with_deadlines else None
    probe = instance.outer
    if with_deadlines:
        probe = IntersectionSystem((probe, build_deadline_laminar(instance)))
    order = _order(probs)

    def run(draw: Callable[[int], bool]) -> PathOutcome:
        probed, chosen = ordered_scan(
            order, instance.inner.checker(), draw, probe.checker()
        )
        active = set(chosen)
        skipped: set[int] = set()
        clock = 1
        probability = 1.0
        for e in probed:
            if deadlines is not None and clock > deadlines[e]:
                skipped.add(e)
            else:
                clock += 1
            probability *= float(probs[e]) if e in active else float(1.0 - probs[e])
        return PathOutcome(
            tuple(probed), frozenset(active), frozenset(skipped), probability
        )

    return run


def _replay_paths(instance: ProbingInstance, with_deadlines: bool) -> Iterator[PathOutcome]:
    """Every positive-probability run of the scan, depth first, active first.

    Each path replays the scan on a recorded prefix of coin outcomes. Past
    the prefix a probed element comes up active when p > 0 and leaves an
    inactive fork when 0 < p < 1. The deepest fork is replayed next, which
    is the order a recursion over (active, inactive) would yield.
    """
    if instance.n > PATH_ENUMERATION_LIMIT:
        raise CapabilityError(
            f"exact path enumeration capped at {PATH_ENUMERATION_LIMIT} elements"
        )
    probs = instance.probabilities()
    run = _scan(instance, probs, with_deadlines)
    forks: list[tuple[bool, ...]] = [()]
    while forks:
        prefix = forks.pop()
        flips: list[bool] = []

        def draw(e: int) -> bool:
            if len(flips) < len(prefix):
                flip = prefix[len(flips)]
            else:
                if 0.0 < probs[e] < 1.0:
                    forks.append(tuple(flips) + (False,))
                flip = bool(probs[e] > 0.0)
            flips.append(flip)
            return flip

        yield run(draw)


def enumerate_greedy_paths(instance: ProbingInstance) -> Iterator[PathOutcome]:
    """All positive-probability runs of run_greedy, probabilities summing to 1."""
    return _replay_paths(instance, with_deadlines=False)


def enumerate_greedy_deadline_paths(instance: ProbingInstance) -> Iterator[PathOutcome]:
    return _replay_paths(instance, with_deadlines=True)


def exact_greedy_value(instance: ProbingInstance) -> float:
    return _expected_value(instance, enumerate_greedy_paths(instance))


def exact_greedy_deadline_value(instance: ProbingInstance) -> float:
    """Expected realized value of the deadline policy (bookkeeping excluded)."""
    return _expected_value(instance, enumerate_greedy_deadline_paths(instance))


def _expected_value(instance: ProbingInstance, paths: Iterator[PathOutcome]) -> float:
    weights = instance.weights()
    return sum(path.probability * path.realized_value(weights) for path in paths)


def build_dual_certificate(
    instance: ProbingInstance, path: PathOutcome
) -> DualCertificate:
    """Replay one greedy path into a feasible dual of the unweighted relaxation.

    alpha puts weight 1 on the inner span of the chosen set; beta telescopes
    p_{a_h} - p_{a_{h+1}} onto the outer span of each probed prefix. The
    value is then at most k_in*|S| + k_out*sum(p_e over probed).
    """
    probs = instance.probabilities()
    sequence = path.probed
    for earlier, later in zip(sequence, sequence[1:]):
        if probs[earlier] < probs[later]:
            raise ConstraintError(
                "probed sequence is not in non-increasing probability order"
            )
    alpha: dict[frozenset[int], float] = {}
    inner_span = frozenset(instance.inner.span(path.chosen))
    if inner_span:
        alpha[inner_span] = 1.0
    beta: dict[frozenset[int], float] = {}
    for h, e in enumerate(sequence):
        nxt = float(probs[sequence[h + 1]]) if h + 1 < len(sequence) else 0.0
        weight = float(probs[e]) - nxt
        if weight <= 0.0:
            continue
        outer_span = frozenset(instance.outer.span(sequence[: h + 1]))
        beta[outer_span] = beta.get(outer_span, 0.0) + weight
    return DualCertificate.build(instance, alpha, beta)


def build_expected_certificate(
    instance: ProbingInstance,
) -> tuple[DualCertificate, float]:
    """Probability-weighted mix of per-path certificates plus the exact value.

    The mix stays dual-feasible, so its value upper-bounds the LP optimum
    while being at most (k_in + k_out) times the policy's expected value.
    """
    audit = audit_certificates(instance)
    return audit.mixture, audit.expected


@dataclass(frozen=True)
class PathAudit:
    """One path's certificate value against its cap k_in*|S| + k_out*p(probed)."""

    probability: float
    value: float
    cap: float
    feasible: bool


@dataclass(frozen=True)
class CertificateAudit:
    """Per-path certificates, their probability-weighted mix and the value."""

    k_in: int
    k_out: int
    paths: tuple[PathAudit, ...]
    expected: float
    mixture: DualCertificate
    mixture_check: DualCheck

    @property
    def worst_path_slack(self) -> float:
        return min((row.cap - row.value for row in self.paths), default=np.inf)

    @property
    def per_path_feasible(self) -> bool:
        return all(row.feasible for row in self.paths)

    @property
    def mixture_cap(self) -> float:
        return (self.k_in + self.k_out) * self.expected

    @property
    def mixture_bounded(self) -> bool:
        return self.mixture_check.value <= self.mixture_cap + MIXTURE_CAP_TOL

    @property
    def holds(self) -> bool:
        return self.per_path_feasible and self.mixture_check.feasible and self.mixture_bounded


def audit_certificates(instance: ProbingInstance) -> CertificateAudit:
    """Check every greedy path's dual certificate in one pass over the paths.

    Alongside, mixes the certificates by path probability (in path order)
    and sums the policy's expected realized value.
    """
    probs = instance.probabilities()
    weights = instance.weights()
    k_in = instance.inner.k_parameter()
    k_out = instance.outer.k_parameter()
    rows = []
    alpha: dict[frozenset[int], float] = {}
    beta: dict[frozenset[int], float] = {}
    expected = 0.0
    for path in enumerate_greedy_paths(instance):
        certificate = build_dual_certificate(instance, path)
        verdict = check_dual(certificate, instance)
        cap = k_in * len(path.chosen)
        cap += k_out * float(sum(probs[e] for e in path.probed))
        feasible = verdict.feasible and verdict.value <= cap + PATH_CAP_TOL
        rows.append(PathAudit(path.probability, verdict.value, cap, feasible))
        for members, a in certificate.alpha:
            alpha[members] = alpha.get(members, 0.0) + path.probability * a
        for members, b in certificate.beta:
            beta[members] = beta.get(members, 0.0) + path.probability * b
        expected += path.probability * path.realized_value(weights)
    mixture = DualCertificate.build(instance, alpha, beta)
    return CertificateAudit(
        k_in, k_out, tuple(rows), expected, mixture, check_dual(mixture, instance)
    )

"""LP relaxation of a probing instance and dual feasibility checks.

The relaxation has one variable y_e per element with positive probability
(the chance e is probed), x_e = p_e * y_e (the chance e is chosen), and
requires x to satisfy the inner system's rank constraints and y the outer
system's. Rather than enumerating exponentially many rank constraints we
alternate: solve with the cuts found so far, separate at the optimum, repeat.
cut_generation is that loop for every LP in the package, including the
auction relaxations LP_P and LP_M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .instance import ProbingInstance

DUAL_FEASIBILITY_TOL = 1e-9
MAX_CUT_ROUNDS = 200


class LpEngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class Cut:
    side: str  # "inner" or "outer"
    members: frozenset[int]
    rank: int


@dataclass(frozen=True)
class FractionalSolution:
    x: tuple[float, ...]
    y: tuple[float, ...]
    objective: float
    cuts: tuple[Cut, ...]
    rounds: int  # LP solves, 0 when nothing had positive probability
    pivots: int  # simplex pivots summed over those solves


def cut_generation(c, rows, rhs, separate) -> tuple[simplex.LpResult, int, int]:
    """Maximize c.v subject to rows.v <= rhs plus the cuts `separate` finds.

    Each round solves the current LP and passes the raw optimum to
    separate(v), which returns the violated (row, rhs) pairs; they are
    appended in that order, so callers fix the tableau Bland's rule sees.
    Returns the first optimum without violations, the number of solves and
    the simplex pivots summed over them.
    """
    rows, rhs = list(rows), list(rhs)
    pivots = 0
    for rounds in range(1, MAX_CUT_ROUNDS + 1):
        result = simplex.maximize(c, np.array(rows), np.array(rhs))
        pivots += result.iterations
        found = separate(result.x)
        if not found:
            return result, rounds, pivots
        for row, bound in found:
            rows.append(row)
            rhs.append(bound)
    raise LpEngineError(f"cut generation failed to converge in {MAX_CUT_ROUNDS} rounds")


def solve_probing_lp(instance: ProbingInstance) -> FractionalSolution:
    """Maximize sum w_e x_e subject to x in P(inner), y in P(outer), y <= 1.

    Elements with p_e = 0 contribute nothing and are dropped from the LP
    (their y is reported as 0).
    """

    def find_cuts(x, y):
        cuts = []
        for side, system, point in (
            ("inner", instance.inner, x),
            ("outer", instance.outer, y),
        ):
            witness = system.separate(point)
            if witness is not None:
                cuts.append(Cut(side, witness.members, witness.rank))
        return cuts

    return solve_probing_space(instance, (), find_cuts)


def solve_probing_space(instance: ProbingInstance, fixed, find_cuts) -> FractionalSolution:
    """The probing relaxation over y in [0,1]^n with x = p * y.

    Each element set in `fixed` adds a row sum(y over the set) <= 1 after
    the box rows. find_cuts(x, y) returns the rank cuts violated at the
    clipped optimum; an inner cut bounds x over its members, an outer one y.
    """
    n = instance.n
    probs = instance.probabilities()
    active = [e for e in range(n) if probs[e] > 0]
    if not active:
        return FractionalSolution(
            x=(0.0,) * n, y=(0.0,) * n, objective=0.0, cuts=(), rounds=0, pivots=0
        )
    col_of = {e: j for j, e in enumerate(active)}
    m = len(active)
    ones = np.ones(n)

    def row_of(members, coefficients):
        row = np.zeros(m)
        for e in members:
            if e in col_of:
                row[col_of[e]] = coefficients[e]
        return row

    def clipped(v):
        y = np.zeros(n)
        for e, j in col_of.items():
            y[e] = min(1.0, max(0.0, v[j]))
        return probs * y, y

    cuts: list[Cut] = []

    def separate(v):
        found = find_cuts(*clipped(v))
        cuts.extend(found)
        return [
            (row_of(cut.members, probs if cut.side == "inner" else ones), float(cut.rank))
            for cut in found
        ]

    weights = instance.weights()
    c = np.array([weights[e] * probs[e] for e in active])
    rows = list(np.eye(m)) + [row_of(s, ones) for s in fixed]
    result, rounds, pivots = cut_generation(c, rows, [1.0] * len(rows), separate)
    x, y = clipped(result.x)
    return FractionalSolution(
        x=tuple(float(v) for v in x),
        y=tuple(float(v) for v in y),
        objective=float(result.objective),
        cuts=tuple(cuts),
        rounds=rounds,
        pivots=pivots,
    )


# ---------------------------------------------------------------------------
# dual certificates for the unweighted LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Weights on rank constraints: alpha over inner sets, beta over outer.

    Feasibility for the unweighted relaxation requires, for every element e,
        p_e * sum(alpha[S] for S containing e) + sum(beta[S] for S containing e) >= p_e.
    The certificate's value is sum alpha[S] * rank_in(S) + beta[S] * rank_out(S).
    """

    alpha: tuple[tuple[frozenset[int], float], ...]
    beta: tuple[tuple[frozenset[int], float], ...]
    value: float

    @staticmethod
    def build(instance: ProbingInstance, alpha: dict, beta: dict) -> "DualCertificate":
        value = sum(instance.inner.rank(s) * a for s, a in alpha.items())
        value += sum(instance.outer.rank(s) * b for s, b in beta.items())
        return DualCertificate(
            alpha=tuple(sorted(alpha.items(), key=lambda kv: sorted(kv[0]))),
            beta=tuple(sorted(beta.items(), key=lambda kv: sorted(kv[0]))),
            value=float(value),
        )


@dataclass(frozen=True)
class DualCheck:
    feasible: bool
    value: float
    worst_slack: float


def check_dual(
    certificate: DualCertificate,
    instance: ProbingInstance,
    tol: float = DUAL_FEASIBILITY_TOL,
) -> DualCheck:
    """Verify non-negativity and per-element covering of a dual certificate."""
    probs = instance.probabilities()
    for _, a in certificate.alpha:
        if a < -tol:
            return DualCheck(False, certificate.value, float(a))
    for _, b in certificate.beta:
        if b < -tol:
            return DualCheck(False, certificate.value, float(b))
    worst = np.inf
    feasible = True
    for e in range(instance.n):
        alpha_sum = sum(a for s, a in certificate.alpha if e in s)
        beta_sum = sum(b for s, b in certificate.beta if e in s)
        slack = probs[e] * alpha_sum + beta_sum - probs[e]
        worst = min(worst, slack)
        if slack < -tol:
            feasible = False
    if instance.n == 0:
        worst = 0.0
    return DualCheck(feasible, certificate.value, float(worst))


def check_claim_lp_opt(
    lp_objective: float, adaptive_optimum: float, tol: float = 1e-6
) -> bool:
    """The relaxation upper-bounds the optimal adaptive policy."""
    return lp_objective >= adaptive_optimum - tol

"""Brute-force oracles used to pin expected values independently of the
implementation under test. Everything here enumerates or scans scalar by
scalar; nothing here shares code with the package's fast paths."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np


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

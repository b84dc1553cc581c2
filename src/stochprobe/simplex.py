"""Dense-tableau simplex for max{c.x : A x <= b, x >= 0} with b >= 0.

All LPs in this package arrive in this form (rank cuts and box rows with
non-negative right-hand sides), so phase one is never needed. Bland's rule
guarantees termination under the degeneracy these cut-generated LPs produce.
The pricing scan, the ratio test and the pivot are vectorised with numpy,
but every tableau entry sees the same floating-point operations as under
the scalar rule, so the pivot sequence and the result are bit for bit those
of the textbook row-by-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int


def maximize(c, a_ub, b_ub, max_iterations: int = 50_000) -> LpResult:
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,):
        raise SimplexError(f"shape mismatch: c{c.shape} A{a.shape} b{b.shape}")
    if np.any(b < -PIVOT_TOL):
        raise SimplexError("negative right-hand side; this solver assumes b >= 0")

    # tableau: [A | I | b] with objective row [-c | 0 | 0] appended last
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = np.maximum(b, 0.0)
    tab[m, :n] = -c
    basis = list(range(n, n + m))
    # views into the tableau, so every pivot updates them in place
    reduced = tab[m, : n + m]
    rhs = tab[:m, -1]

    iterations = 0
    while True:
        # Bland: entering variable is the lowest index with a negative
        # reduced cost
        negative = reduced < -PIVOT_TOL
        entering = int(negative.argmax())
        if not negative[entering]:
            break
        column = tab[:m, entering]
        candidates = (column > PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            raise SimplexError("LP is unbounded")
        ratios = (rhs[candidates] / column[candidates]).tolist()
        # the tolerance tie-break depends on scan order, so replay it in
        # row order over the candidates: the minimum ratio, ties to the
        # lowest basic variable
        rows = candidates.tolist()
        leaving_row, best_ratio = rows[0], ratios[0]
        for i, ratio in zip(rows[1:], ratios[1:]):
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leaving_row]
            ):
                best_ratio = ratio
                leaving_row = i
        _pivot(tab, leaving_row, entering)
        basis[leaving_row] = entering
        iterations += 1
        if iterations > max_iterations:
            raise SimplexError(f"iteration limit {max_iterations} exceeded")

    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i, -1]
    return LpResult(x=x, objective=float(tab[m, -1]), iterations=iterations)


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Eliminate column col from every row but row, one rank-1 update over
    the rows with a non-zero factor (skipping zeros keeps signed zeros)."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tab[rows] -= factors[rows, None] * tab[row]

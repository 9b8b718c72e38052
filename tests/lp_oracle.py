"""Dense two-phase simplex over exact rationals.

Sized for the tiny per-atom programs this library produces (a handful of
variables and constraints). Bland's rule everywhere, so the method terminates
without any perturbation tricks.

Test-only reference: the library solves its per-atom deflator programs in
closed form, and the differential tests hold that closed form to this
solver's status, optimum and solution vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def maximize(objective, eq_lhs, eq_rhs) -> LpResult:
    """Maximize c.x subject to A x = b and x >= 0."""
    nvars = len(objective)
    rows = [list(r) for r in eq_lhs]
    rhs = list(eq_rhs)
    for row in rows:
        if len(row) != nvars:
            raise ValueError("constraint width does not match objective length")
    # normalize b >= 0 so the artificial basis is feasible
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    m = len(rows)
    # tableau columns: nvars structural + m artificial + rhs
    tableau = []
    for i in range(m):
        art = [ONE if j == i else ZERO for j in range(m)]
        tableau.append(rows[i] + art + [rhs[i]])
    basis = [nvars + i for i in range(m)]

    # phase 1: drive the artificials to zero
    phase1_cost = [ZERO] * nvars + [-ONE] * m
    _run(tableau, basis, phase1_cost)
    if _objective_value(tableau, basis, phase1_cost) != 0:
        return LpResult(INFEASIBLE, None, None)
    _expel_artificials(tableau, basis, nvars)

    # phase 2 on the structural columns only; rows still led by an artificial
    # after expulsion are redundant zero rows and can be dropped
    tableau = [row[:nvars] + row[-1:] for row in tableau]
    tableau = [tableau[i] for i in range(len(tableau)) if basis[i] < nvars]
    basis = [b for b in basis if b < nvars]

    cost = list(objective)
    status = _run(tableau, basis, cost)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = [ZERO] * nvars
    for i, b in enumerate(basis):
        x[b] = tableau[i][-1]
    return LpResult(OPTIMAL, tuple(x), _objective_value(tableau, basis, cost))


def _objective_value(tableau, basis, cost) -> Fraction:
    total = ZERO
    for i, b in enumerate(basis):
        total += cost[b] * tableau[i][-1]
    return total


def _reduced_costs(tableau, basis, cost):
    width = len(tableau[0]) - 1 if tableau else len(cost)
    rc = list(cost[:width]) + [ZERO] * max(0, width - len(cost))
    for i, b in enumerate(basis):
        cb = cost[b] if b < len(cost) else ZERO
        if cb == 0:
            continue
        row = tableau[i]
        for j in range(width):
            rc[j] -= cb * row[j]
    return rc


def _run(tableau, basis, cost) -> str:
    if not tableau:
        return OPTIMAL
    width = len(tableau[0]) - 1
    while True:
        rc = _reduced_costs(tableau, basis, cost)
        entering = None
        for j in range(width):
            if j in basis:
                continue
            if rc[j] > 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(len(tableau)):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau, basis, row, col):
    inv = ONE / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            factor = tableau[i][col]
            tableau[i] = [a - factor * b for a, b in zip(tableau[i], tableau[row])]
    basis[row] = col


def _expel_artificials(tableau, basis, nvars):
    """Pivot basic artificials onto structural columns where possible."""
    for i in range(len(tableau)):
        if basis[i] < nvars:
            continue
        pivot_col = None
        for j in range(nvars):
            if tableau[i][j] != 0:
                pivot_col = j
                break
        if pivot_col is not None:
            _pivot(tableau, basis, i, pivot_col)

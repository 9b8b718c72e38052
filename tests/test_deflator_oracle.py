"""Closed-form deflator search against the exact simplex it replaced.

Every per-atom program of find_deflator is rebuilt here as the linear
program it used to solve (variables y_1..y_m, floor, slack_1..slack_m) and
handed to the reference solver in lp_oracle. Status, optimal floor and the
full solution vector must agree on every audited atom of fuzz seeds 0-49
and on seeded random atoms with ties at the extreme price move.
"""

import random
from fractions import Fraction

from lp_oracle import OPTIMAL, maximize

from filtration_lab.enlargement import (
    AtomAudit,
    _one_period,
    default_viability_family,
    find_deflator,
)
from filtration_lab.fuzz import random_scenario
from filtration_lab.rationals import over_lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def oracle(q, s_prev, s_next):
    """(status, floor, solution) of the per-atom LP, as find_deflator built it."""
    m = len(q)
    n_vars = 2 * m + 1
    objective = [ZERO] * n_vars
    objective[m] = ONE
    eq_lhs = []
    eq_rhs = []
    for i in range(m):
        lhs = [ZERO] * n_vars
        lhs[i] = ONE
        lhs[m] = -ONE
        lhs[m + 1 + i] = -ONE
        eq_lhs.append(lhs)
        eq_rhs.append(ZERO)
    eq_lhs.append([*q, *([ZERO] * (m + 1))])
    eq_rhs.append(ONE)
    eq_lhs.append([*(qi * si for qi, si in zip(q, s_next)),
                   *([ZERO] * (m + 1))])
    eq_rhs.append(s_prev)
    result = maximize(objective, eq_lhs, eq_rhs)
    if result.status != OPTIMAL:
        return result.status, None, None
    return result.status, result.value, tuple(result.x[:m])


def closed_form(q, moves):
    """(status, floor, solution) of the library's int closed form on q and
    the moves, each brought over one denominator, read as an audit row."""
    mass, masses = over_lcm([v.as_integer_ratio() for v in q])
    den, nums = over_lcm([v.as_integer_ratio() for v in moves])
    status, floor, cells = _one_period(mass, masses, nums)
    row = AtomAudit(time=1, atom="r", subatoms=(), status=status,
                    separating=None, mass=mass, masses=masses, den=den,
                    moves=nums, floor_cell=floor, cells=cells)
    return row.status, row.floor, row.solution


def _audits(seed):
    scenario = random_scenario(seed)
    family = scenario.family_processes()
    if not family:
        family = default_viability_family(scenario.basis_process())
    for _, enlargement in sorted(scenario.enlargements.items()):
        filtration = enlargement.filtration()
        for _, price in family:
            for row in find_deflator(price, enlargement).audit:
                yield filtration, price, row


def test_fuzz_audit_rows_match_oracle():
    outcomes = {"level": 0, "tilted": 0, "infeasible": 0}
    for seed in range(50):
        for filtration, price, row in _audits(seed):
            atom = next(a for a in filtration.atoms(row.time - 1)
                        if a.label == row.atom)
            s_prev = price.at(row.time - 1, atom.leaves[0])[0]
            s_next = [s_prev + v for v in row.price_moves]
            expected = oracle(list(row.weights), s_prev, s_next)
            assert (row.status, row.floor, row.solution) == expected, (
                seed, row.time, row.atom)
            if row.status != OPTIMAL:
                outcomes["infeasible"] += 1
            elif row.floor == 1:
                outcomes["level"] += 1
            else:
                outcomes["tilted"] += 1
    # every branch of the closed form is exercised many times over
    assert min(outcomes.values()) >= 50, outcomes


def _random_atom(rng):
    m = rng.randint(1, 5)
    weights = [rng.randint(1, 9) for _ in range(m)]
    q = [Fraction(w, sum(weights)) for w in weights]
    moves = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        # copy an extreme move onto another successor
        extreme = rng.choice((min(moves), max(moves)))
        moves[rng.randrange(m)] = extreme
    if m > 1 and rng.random() < 0.2:
        # balance the last move so the mean move is zero
        rest = sum((qi * v for qi, v in zip(q[:-1], moves[:-1])), start=ZERO)
        moves[-1] = -rest / q[-1]
    return q, moves


def test_random_atoms_with_ties_match_oracle():
    rng = random.Random(20151)
    ties = 0
    for _ in range(300):
        q, moves = _random_atom(rng)
        s_prev = Fraction(rng.randint(4, 9))
        got = closed_form(q, moves)
        assert got == oracle(q, s_prev, [s_prev + v for v in moves]), (q, moves)
        mean = sum((qi * v for qi, v in zip(q, moves)), start=ZERO)
        extreme = min(moves) if mean > 0 else max(moves)
        if mean != 0 and moves.count(extreme) > 1:
            ties += 1
    assert ties >= 30


def test_closed_form_solution_is_feasible():
    q = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    moves = [Fraction(-1), Fraction(3), Fraction(-1)]
    status, floor, y = closed_form(q, moves)
    assert status == OPTIMAL
    assert floor == Fraction(3, 4)
    # the slack goes to the first successor at the extreme move
    assert y == (Fraction(9, 4), Fraction(3, 4), Fraction(3, 4))
    assert sum(qi * yi for qi, yi in zip(q, y)) == 1
    assert sum(qi * yi * v for qi, yi, v in zip(q, y, moves)) == 0

"""Exact simplex over rationals: statuses and optimality on small systems."""

from fractions import Fraction

from lp_oracle import INFEASIBLE, OPTIMAL, UNBOUNDED, maximize

F = Fraction


def test_simple_optimum():
    # max x1 with x1 + x2 = 1, both nonnegative
    result = maximize([F(1), F(0)], [[F(1), F(1)]], [F(1)])
    assert result.status == OPTIMAL
    assert result.value == 1
    assert result.x == (F(1), F(0))


def test_feasibility_only():
    result = maximize([F(0), F(0)], [[F(1), F(1)]], [F(2)])
    assert result.status == OPTIMAL
    assert sum(result.x) == 2
    assert all(v >= 0 for v in result.x)


def test_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    result = maximize([F(1), F(0)], [[F(1), F(1)]], [F(-1)])
    assert result.status == INFEASIBLE


def test_unbounded():
    # x1 never appears in a constraint
    result = maximize([F(1), F(0)], [[F(0), F(1)]], [F(1)])
    assert result.status == UNBOUNDED


def test_redundant_rows_handled():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    result = maximize([F(1), F(0)], rows, [F(1), F(2)])
    assert result.status == OPTIMAL
    assert result.value == 1


def test_fractional_optimum_exact():
    # max x1 + x2 with 2 x1 + x2 = 1 and x1 + 3 x2 = 1
    result = maximize([F(1), F(1)],
                      [[F(2), F(1)], [F(1), F(3)]],
                      [F(1), F(1)])
    assert result.status == OPTIMAL
    assert result.x == (F(2, 5), F(1, 5))
    assert result.value == F(3, 5)


def test_deflator_shaped_lp():
    """The per-atom reweighting LP: variables (y1, y2, floor, s1, s2)."""
    q = [F(1, 2), F(1, 2)]
    moves = [F(1, 2), F(-1, 2)]
    rows = [
        [F(1), F(0), F(-1), F(-1), F(0)],   # y1 - floor - s1 = 0
        [F(0), F(1), F(-1), F(0), F(-1)],   # y2 - floor - s2 = 0
        [q[0], q[1], F(0), F(0), F(0)],     # E[y] = 1
        [q[0] * moves[0], q[1] * moves[1], F(0), F(0), F(0)],  # E[y dS] = 0
    ]
    rhs = [F(0), F(0), F(1), F(0)]
    result = maximize([F(0), F(0), F(1), F(0), F(0)], rows, rhs)
    assert result.status == OPTIMAL
    assert result.value == 1           # floor 1: y = (1, 1) works
    assert result.x[0] == 1 and result.x[1] == 1


def test_deflator_shaped_lp_forced_to_zero():
    """One-sided moves force the floor to zero: no positive reweighting."""
    q = [F(1, 2), F(1, 2)]
    moves = [F(-1, 2), F(0)]
    rows = [
        [F(1), F(0), F(-1), F(-1), F(0)],
        [F(0), F(1), F(-1), F(0), F(-1)],
        [q[0], q[1], F(0), F(0), F(0)],
        [q[0] * moves[0], q[1] * moves[1], F(0), F(0), F(0)],
    ]
    rhs = [F(0), F(0), F(1), F(0)]
    result = maximize([F(0), F(0), F(1), F(0), F(0)], rows, rhs)
    assert result.status == OPTIMAL
    assert result.value == 0

"""Exact linear algebra: every claim is checked by substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import dot, identity, mat_mul

from filtration_lab.linalg import (
    gram_schmidt,
    null_space,
    rank,
    right_inverse,
    solve,
)

F = Fraction

rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 7))


def matrices(max_n=4, max_m=4):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(2, max_m).flatmap(
            lambda m: st.lists(
                st.lists(rationals, min_size=m, max_size=m),
                min_size=n, max_size=n)))


def test_solve_exact_2x2():
    a = [[F(1), F(1)], [F(-1), F(1)]]
    x = solve(a, [F(5), F(-1)])
    assert x == [F(3), F(2)]


def test_solve_inconsistent_returns_none():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert solve(a, [F(1), F(3)]) is None


def test_solve_underdetermined_least_index():
    # free variable set to zero: pivot column carries the whole solution
    a = [[F(2), F(3)]]
    assert solve(a, [F(1)]) == [F(1, 2), F(0)]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_solve_substitutes_back(a):
    rhs = [sum(row, start=F(0)) for row in a]  # b = A * ones, always solvable
    x = solve(a, rhs)
    assert x is not None
    assert [dot(row, x) for row in a] == rhs


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_null_space_annihilates(a):
    for vec in null_space(a):
        assert all(dot(row, vec) == 0 for row in a)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_bounds(a):
    r = rank(a)
    assert 0 <= r <= min(len(a), len(a[0]))


def test_null_space_dimension_counts():
    a = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    basis = null_space(a)
    assert len(basis) == 1
    assert basis[0] == [F(1), F(-1), F(0)]


def test_invert_round_trip():
    # on a square matrix the right inverse is the inverse
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = right_inverse(a)
    assert mat_mul(a, inv) == identity(2)
    assert mat_mul(inv, a) == identity(2)


def test_invert_singular_returns_none():
    assert right_inverse([[F(1), F(2)], [F(2), F(4)]]) is None


def test_right_inverse_contract():
    a = [[F(2), F(3)]]
    k = right_inverse(a)
    assert mat_mul(a, k) == identity(1)
    assert k == [[F(1, 2)], [F(0)]]


def test_right_inverse_rank_deficient():
    assert right_inverse([[F(1), F(0)], [F(2), F(0)]]) is None


def test_gram_schmidt_orthogonal_and_spanning():
    vectors = [[F(1), F(1), F(1)], [F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    basis = gram_schmidt(vectors)
    assert len(basis) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert dot(basis[i], basis[j]) == 0


def test_gram_schmidt_drops_dependent():
    vectors = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    basis = gram_schmidt(vectors)
    assert len(basis) == 2

"""Boundary parsing: exact rationals in, exact rationals out, and the int
form values are held in between."""

from fractions import Fraction

import pytest

from filtration_lab import Process
from filtration_lab.errors import DimensionMismatch, ParseError
from filtration_lab.rationals import (
    as_fractions,
    gathered,
    over_common_denominator,
    reduced,
    to_fraction,
)


def test_accepts_ints_strings_fractions():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction("2/7") == Fraction(2, 7)
    assert to_fraction("-5") == Fraction(-5)
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_rejects_floats_and_bools():
    # floats would smuggle binary rounding into exact identities
    with pytest.raises(ParseError):
        to_fraction(0.5)
    with pytest.raises(ParseError):
        to_fraction(True)


def test_rejects_garbage_strings():
    with pytest.raises(ParseError):
        to_fraction("1/0")
    with pytest.raises(ParseError):
        to_fraction("one half")


def test_cells_over_one_reduced_denominator():
    cells = [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(5), Fraction(0))]
    den, nums = over_common_denominator(cells)
    assert (den, nums) == (6, ((3, -2), (30, 0)))
    assert [as_fractions(den, num) for num in nums] == cells
    assert reduced(12, ((6, -4), (60, 0))) == (den, nums)
    # each cell reduced on its own, then all over the lcm
    assert gathered([(4, (2,)), (9, (3, 6))]) == (6, ((3,), (2, 4)))


@pytest.mark.parametrize("cell", [(-4, (2,)), (0, (3,)), (0, (0,))])
def test_gathered_refuses_a_non_positive_denominator(cell):
    """Slices hold one positive denominator; a cell over a non-positive one
    is refused wherever it sits among the cells."""
    for cells in ([cell], [(4, (1,)), cell], [cell, (9, (3, 6))]):
        with pytest.raises(ValueError, match="not positive"):
            gathered(cells)


def test_predictable_build_refuses_a_negative_denominator(bin1):
    base = bin1.base_filtration()
    assert Process._predictable(base, 1, lambda t, atom: (2, (1,))).at(1, 0) == (
        Fraction(1, 2),)
    with pytest.raises(ValueError, match="not positive"):
        Process._predictable(base, 1, lambda t, atom: (-2, (-1,)))


def test_ragged_cells_are_rejected():
    with pytest.raises(DimensionMismatch):
        over_common_denominator([(Fraction(1),), (Fraction(1), Fraction(2)), ()])

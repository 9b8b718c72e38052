"""Boundary parsing: exact rationals in, exact rationals out."""

from fractions import Fraction

import pytest

from filtration_lab.errors import ParseError
from filtration_lab.rationals import format_rational, to_fraction


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


def test_format_round_trip():
    for text in ["0", "1", "-3/4", "22/7"]:
        assert format_rational(to_fraction(text)) == text

"""Exact rational coercion and serialization helpers.

All arithmetic in the library runs on fractions.Fraction. Floats are refused
at every boundary so rounding can never leak in silently.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def to_fraction(value) -> Fraction:
    """Coerce ints, strings like "p/q", and Fractions. Floats are rejected."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r} (floats are not accepted)")


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q", or plain "p" for integers."""
    return str(value)

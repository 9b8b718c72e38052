"""Exact rational coercion and the integer form of values.

Values are held as int numerators over one positive int denominator: a
process slice holds one tuple of numerators per block over one denominator,
and atom masses are ints over the tree's leaf denominator. Every value a
caller sees is a fractions.Fraction, built from that form at the boundary.
Floats are refused at every boundary so rounding can never leak in silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, ParseError


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


def over_common_denominator(cells):
    """Tuples of Fractions, all of one length, as (den, nums): den the lcm
    of their denominators, nums one tuple of numerators over it per cell.
    The result is reduced: no prime divides den and every numerator."""
    width = len(cells[0]) if cells else 0
    if any(len(cell) != width for cell in cells):
        raise DimensionMismatch("ragged value vectors")
    den, flat = over_lcm([c.as_integer_ratio() for cell in cells for c in cell])
    if not width:
        return den, ((),) * len(cells)
    flat = iter(flat)
    return den, tuple(zip(*[flat] * width))


def as_cell(vector):
    """One vector of outside values, each coerced with to_fraction, as
    (den, nums) over the lcm of their denominators, reduced."""
    return over_lcm([to_fraction(c).as_integer_ratio() for c in vector])


def over_lcm(ratios):
    """One vector of int ratios (num, den), each den positive, as (den,
    nums) over the lcm of the dens; reduced when every ratio is."""
    den = lcm(*[d for _, d in ratios])
    return den, tuple([n * (den // d) for n, d in ratios])


def reduced(den, nums):
    """(den, nums) divided by the gcd of den and every numerator."""
    g = den
    for cell in nums:
        g = gcd(g, *cell)
        if g == 1:
            return den, nums
    return den // g, tuple([tuple([n // g for n in cell]) for cell in nums])


def gathered(cells):
    """(den, num) cells, each one vector, over one denominator: each cell
    reduced on its own, then all brought to the lcm of their denominators.
    Every den must be positive, else ValueError."""
    dens, nums = [], []
    for den, num in cells:
        g = gcd(den, *num)
        if g > 1:
            den //= g
            num = tuple([n // g for n in num])
        dens.append(den)
        nums.append(num)
    if min(dens, default=1) <= 0:
        raise ValueError(f"cell denominator {min(dens)} is not positive")
    den = lcm(*dens)
    return den, tuple([num if d == den else tuple([n * (den // d) for n in num])
                       for d, num in zip(dens, nums)])


def as_fractions(den, num) -> tuple:
    """One vector of numerators over den as a tuple of Fractions."""
    return tuple([Fraction(n, den) for n in num])


def ratio_text(num, den) -> str:
    """The text str(Fraction(num, den)) gives, for den > 0, from one gcd:
    "n" when the ratio is whole, else "n/d" in lowest terms."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"

"""Exact linear algebra on rational matrices.

Inside, every row is held as integer numerators over one common
denominator, and row reduction is fraction-free (Bareiss, Math. Comp. 22,
1968), dividing by the final pivot only when it returns. Every result entry
of the public functions is a Fraction; the private _int_null_space takes
int rows and returns the kernel as primitive int rows, with no Fraction
built.

Row reduction uses least-index pivoting, so solutions and null-space bases
are canonical: free variables always sit at the rightmost columns available
and particular solutions set them to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .rationals import over_lcm

ZERO = Fraction(0)


def _int_dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    return sum(map(mul, u, v))


def _primitive(ints) -> list[int]:
    """Divide out the gcd of a nonzero vector; the first nonzero entry comes
    out positive."""
    common = gcd(*ints)
    if next(n for n in ints if n) < 0:
        common = -common
    return [n // common for n in ints]


def _scaled(matrix):
    """Each row of a rational matrix as int numerators over its own lcm."""
    return [over_lcm([x.as_integer_ratio() for x in r])[1] for r in matrix]


def _eliminate(matrix):
    """_reduce on the rows of a rational matrix, each scaled to integers."""
    return _reduce(_scaled(matrix))


def _reduce(rows):
    """Fraction-free Gauss-Jordan on a list of int rows, which it reorders
    and replaces.

    Returns (rows, pivot_columns, det): the reduced row echelon form is
    rows / det, where det is the last pivot, so each pivot row carries det
    in its pivot column. Every division by the previous pivot is exact:
    by Sylvester's identity each entry is a minor of the int matrix.
    """
    det = 1
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // det for x, y in zip(row, top)]
        det = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, det


def rank(matrix) -> int:
    return len(_eliminate(matrix)[1])


def solve(matrix, rhs):
    """Least-index particular solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if not rows:
        return []
    reduced, pivots, det = _eliminate(rows)
    ncols = len(matrix[0]) if matrix else 0
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [ZERO] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = Fraction(row[-1], det)
    return x


def null_space(matrix):
    """Canonical basis of the kernel, integer-normalized: _int_null_space
    of the rows scaled to integers, as Fractions."""
    return [[Fraction(n) for n in vec] for vec in _int_null_space(_scaled(matrix))]


def _int_null_space(rows):
    """Canonical basis of the kernel of an int matrix, one primitive int
    row per free column, each with its first nonzero entry positive."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots, det = _reduce(list(rows))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = det
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        basis.append(_primitive(vec))
    return basis


def _eliminate_with_identity(matrix):
    """_eliminate on [A | I] for an n x d matrix A.

    Over det, each reduced row's identity block is the row operation that
    made it. So for any b, a row with pivot column c < d gives x_c of the
    least-index solution of A x = b as <block, b> / det, and a row whose
    pivot falls in the identity block has a null A part: A x = b is
    consistent exactly when <block, b> = 0 on every such row.
    """
    n = len(matrix)
    return _eliminate([list(row) + [int(i == h) for h in range(n)]
                       for i, row in enumerate(matrix)])


def right_inverse(matrix):
    """K with A K = I for an n x d matrix A of full row rank, else None.

    Each column of K is the least-index solution for the matching unit
    vector, read off one reduction of [A | I]; a pivot in the identity block
    means A has rank below n.
    """
    n = len(matrix)
    d = len(matrix[0]) if matrix else 0
    reduced, pivots, det = _eliminate_with_identity(matrix)
    if pivots and pivots[-1] >= d:
        return None
    k = [[ZERO] * n for _ in range(d)]
    for row, c in zip(reduced, pivots):
        k[c] = [Fraction(x, det) for x in row[d:]]
    return k


def gram_schmidt(vectors):
    """Orthogonalize without normalizing, dropping dependent vectors.

    Stays inside the rationals: output vectors are orthogonal, not unit.
    """
    basis = []
    directions = []  # each kept residual as coprime integers, with its norm
    for vec in vectors:
        den, residual = over_lcm([x.as_integer_ratio() for x in vec])
        for b, norm in directions:
            coeff = _int_dot(residual, b)
            residual = [norm * r - coeff * x for r, x in zip(residual, b)]
            den *= norm
        if any(residual):
            basis.append([Fraction(r, den) for r in residual])
            b = _primitive(residual)
            directions.append((b, _int_dot(b, b)))
    return basis

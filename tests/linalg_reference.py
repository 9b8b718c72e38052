"""The Fraction-based linalg the library used to carry, kept as a test reference.

Below the docstring this is a verbatim copy of filtration_lab.linalg from
before its inside moved to integer numerators over common denominators and
fraction-free elimination. test_linalg_reference holds every public function
of the library module to these, which must give equal results on any input.

Original docstring: exact linear algebra over Fraction. Row reduction with
least-index pivoting, so solutions and null-space bases are canonical: free
variables always sit at the rightmost columns available and particular
solutions set them to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    total = ZERO
    for a, b in zip(u, v):
        total += a * b
    return total


def mat_vec(matrix, vec) -> list[Fraction]:
    return [dot(row, vec) for row in matrix]


def mat_mul(a, b) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def transpose(matrix) -> list[list[Fraction]]:
    return [list(col) for col in zip(*matrix)]


def identity(n) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(matrix):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def solve(matrix, rhs):
    """Least-index particular solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if not rows:
        return []
    reduced, pivots = rref(rows)
    ncols = len(matrix[0]) if matrix else 0
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][-1]
    return x


def null_space(matrix):
    """Canonical basis of the kernel, integer-normalized."""
    if not matrix:
        return []
    reduced, pivots = rref(matrix)
    ncols = len(matrix[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][f]
        basis.append(canonical_int_vector(vec))
    return basis


def canonical_int_vector(vec) -> list[Fraction]:
    """Scale a rational vector to coprime integers with positive leading entry."""
    denoms = [v.denominator for v in vec if v != 0]
    if not denoms:
        return [ZERO] * len(vec)
    scale = 1
    for d in denoms:
        scale = scale * d // gcd(scale, d)
    ints = [int(v * scale) for v in vec]
    common = 0
    for n in ints:
        common = gcd(common, abs(n))
    if common > 1:
        ints = [n // common for n in ints]
    for n in ints:
        if n != 0:
            if n < 0:
                ints = [-m for m in ints]
            break
    return [Fraction(n) for n in ints]


def invert(matrix):
    """Exact inverse, or None when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("inverse needs a square matrix")
    augmented = [list(row) + ident for row, ident in zip(matrix, identity(n))]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def right_inverse(matrix):
    """K with A K = I for an n x d matrix A of full row rank, else None.

    Each column of K is the least-index solution for the matching unit vector.
    """
    n = len(matrix)
    cols = []
    for h in range(n):
        unit = [ONE if i == h else ZERO for i in range(n)]
        sol = solve(matrix, unit)
        if sol is None:
            return None
        cols.append(sol)
    return [list(row) for row in zip(*cols)]


def gram_schmidt(vectors):
    """Orthogonalize without normalizing, dropping dependent vectors.

    Stays inside the rationals: output vectors are orthogonal, not unit.
    """
    basis = []
    for vec in vectors:
        residual = list(vec)
        for b in basis:
            coeff = dot(residual, b) / dot(b, b)
            residual = [r - coeff * x for r, x in zip(residual, b)]
        if any(r != 0 for r in residual):
            basis.append(residual)
    return basis


"""Integer-inside linalg against the Fraction linalg it replaced.

linalg_reference keeps, verbatim, the linalg module that worked on Fraction
entries throughout. Every public function of the library module must return
exactly what the reference returns, None and raised errors included, and
every entry it returns must be a Fraction. This holds on Hypothesis matrices
(entries with numerators and denominators up to 2**64, rank-deficient and
all-zero matrices, zero rows, 1 x n, n x 1 and empty shapes), and on every
matrix the mrp, multiplier and kernel checks build on the fuzz corpus, under
every flow.
"""

from fractions import Fraction

import linalg_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import constraint, enlargement, linalg, representation
from filtration_lab.cli import CheckContext, run_check
from filtration_lab.fuzz import random_scenario

F = Fraction
SEEDS = range(50)
PUBLIC = ("rank", "solve", "null_space", "right_inverse", "gram_schmidt")


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "raises", type(exc)


def all_fractions(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(all_fractions(v) for v in value)
    return value is None or type(value) is Fraction


def agree(name, *args):
    """The library function and its reference give equal outcomes."""
    got = outcome(getattr(linalg, name), *args)
    want = outcome(getattr(ref, name), *args)
    assert got == want, (name, args)
    kind, value = got
    if kind == "value" and name != "rank":
        assert all_fractions(value), (name, args)


def battery(matrix):
    """Every public function, on the matrix and on inputs formed from it."""
    for name in ("rank", "null_space", "right_inverse", "gram_schmidt"):
        agree(name, matrix)
    transposed = ref.transpose(matrix)
    agree("gram_schmidt", transposed)
    agree("right_inverse", transposed)
    agree("null_space", transposed)
    agree("solve", matrix, [sum(row, start=F(0)) for row in matrix])
    agree("solve", matrix, [F(int(i == 0)) for i in range(len(matrix))])


# --- Hypothesis matrices ---------------------------------------------------

HUGE = 2 ** 64
entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(F, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
)


def dense(n, m):
    return st.lists(st.lists(entries, min_size=m, max_size=m),
                    min_size=n, max_size=n)


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["dense", "low rank", "zero rows", "zero"]))
    if kind == "zero":
        return [[F(0)] * m for _ in range(n)]
    if kind == "low rank" and min(n, m) > 1:
        k = draw(st.integers(1, min(n, m) - 1))
        return ref.mat_mul(draw(dense(n, k)), draw(dense(k, m)))
    matrix = draw(dense(n, m))
    if kind == "zero rows":
        for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
            matrix[i] = [F(0)] * m
    return matrix


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_hypothesis_matrices_match_reference(matrix):
    battery(matrix)


@settings(max_examples=100, deadline=None)
@given(matrices(), matrices())
def test_products_of_two_matrices_match_reference(a, b):
    # the second matrix's first row is a right-hand side of any length
    if b:
        agree("solve", a, b[0])


@pytest.mark.parametrize("matrix", [
    [[F(1), F(0)], [F(2), F(0)]],
    [[F(1), F(2), F(3)], [F(2), F(4), F(6)]],
    [[F(0), F(0)]],
    [[F(1, 3)], [F(2, 5)]],
    [[], []],
    [],
])
def test_rank_deficient_and_degenerate_shapes(matrix):
    battery(matrix)


# --- the fuzz corpus -------------------------------------------------------

def copied(value):
    if isinstance(value, (list, tuple)):
        return [copied(v) for v in value]
    return value


def corpus(seed, monkeypatch):
    """Every linalg call the mrp, multiplier and kernel checks make on one
    fuzz scenario, as (name, args) with each argument copied at the call."""
    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append((name, tuple(copied(a) for a in args)))
            return fn(*args)
        return wrapper

    for module in (representation, enlargement, constraint):
        for name in PUBLIC:
            fn = getattr(module, name, None)
            if fn is getattr(linalg, name):
                monkeypatch.setattr(module, name, recording(name, fn))
    scenario = random_scenario(seed)
    ctx = CheckContext(scenario, seed, mode="fuzz")
    for check in ("mrp", "multiplier", "kernel"):
        run_check(ctx, check)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_corpus_matches_reference(seed, monkeypatch):
    calls = corpus(seed, monkeypatch)
    assert calls
    matrices_seen = []
    for name, args in calls:
        agree(name, *args)
        if name in ("rank", "null_space", "gram_schmidt", "invert"):
            if args[0] not in matrices_seen:
                matrices_seen.append(args[0])
    for matrix in matrices_seen:
        battery(matrix)

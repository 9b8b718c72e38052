"""Running sums keep the steps they add as their increments.

Process._accumulate keeps each step I_t of a running sum, read on the new
slice's partition and over the step's own denominator, as the process's
_delta(t); a running product keeps none. For every process that
_accumulate builds in one pass of the eight checks on random_scenario seeds
0-49, each kept increment must sit on the partition of the recomputed
X_t - X_{t-1}, _sum(tree, X_t, X_{t-1}, -1), and equal it block for block
by cross-multiplication; each product (a deflator, a Doleans exponential)
must come out of its build with no increment held, and reads its
increments as X_t - X_{t-1}.
"""

from fractions import Fraction

import pytest

from filtration_lab.calculus import Process, _sum
from filtration_lab.cli import CHECKS, CheckContext, run_check
from filtration_lab.enlargement import doleans_exponential, max_abs_increment
from filtration_lab.fuzz import random_scenario

SEEDS = range(50)


@pytest.fixture
def built(monkeypatch):
    """(process, product, times with an increment held) for every
    process _accumulate returns, in build order."""
    out = []
    accumulate = Process._accumulate.__func__

    def recording(cls, tree, start, increments_at, product=False):
        process = accumulate(cls, tree, start, increments_at, product)
        out.append((process, product, sorted(process._deltas)))
        return process

    monkeypatch.setattr(Process, "_accumulate", classmethod(recording))
    return out


def agree(kept, recomputed) -> bool:
    """Two increment slices on one partition, equal block for block."""
    (part, den, nums), (other, rden, rnums) = kept, recomputed
    return part is other and len(nums) == len(rnums) and all(
        a * rden == b * den for u, v in zip(nums, rnums) for a, b in zip(u, v))


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_keep_their_steps_and_products_none(seed, built):
    ctx = CheckContext(random_scenario(seed), seed, "fuzz")
    for name in CHECKS:
        run_check(ctx, name)
    sums = [(p, held) for p, product, held in built if not product]
    products = [held for _, product, held in built if product]
    assert sums and all(held == [] for held in products)
    for process, held in sums:
        tree = process.tree
        assert held == list(range(1, tree.horizon + 1))
        for t in held:
            recomputed = _sum(tree, process._row(t), process._row(t - 1), -1)
            assert agree(process._delta(t), recomputed), t


def test_a_product_holds_no_increment_until_read(built):
    w = random_scenario(0).basis_process().component(0)
    exponential = doleans_exponential(Fraction(1, 2) / max_abs_increment(w), w)
    assert built == [(exponential, True, [])]
    for t in range(1, w.tree.horizon + 1):
        for leaf in range(w.tree.n_leaves):
            now, before = exponential.at(t, leaf), exponential.at(t - 1, leaf)
            assert exponential.increment(t, leaf) == (now[0] - before[0],)

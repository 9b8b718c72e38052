"""Seeded random instances that only tests draw.

random_martingale moved here from filtration_lab.fuzz, which no longer
draws it; it takes the same rng calls, so every seeded test sees the same
instance.
"""

from fractions import Fraction

from filtration_lab.calculus import Process
from filtration_lab.tree import FilteredTree


def random_martingale(tree: FilteredTree, rng, dim=1) -> Process:
    """Martingale closed by a random rational payoff."""
    terminal = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(dim))
                for _ in range(tree.n_leaves)]
    return Process.doob(tree, terminal)

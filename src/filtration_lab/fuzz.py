"""Seeded random instances for fuzz campaigns and property tests.

Every generator takes an explicit rng or a (seed, labels) pair hashed with
sha256, so streams never collide across generators and identical seeds give
identical instances on any platform. Random floats only steer control flow;
every produced number is an exact rational.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .calculus import JumpFunction, JumpMeasure, Process, dot_integral
from .errors import DegeneratePartition, DimensionMismatch
from .linalg import rank
from .scenario import Scenario
from .tree import FilteredTree, enlarge, random_tree

ZERO = Fraction(0)


def rng_for(seed, *labels) -> random.Random:
    """Independent deterministic stream per (seed, labels)."""
    key = ":".join(str(part) for part in (seed, *labels)).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def widest_branching(tree: FilteredTree) -> int:
    if tree.horizon == 0:
        return 1
    return max(len(node.children)
               for t in range(tree.horizon)
               for node in tree.nodes_at[t])


def _centered_rows(rng, probs, d):
    """d random rows over the children, centered to conditional mean zero."""
    rows = []
    for _ in range(d):
        draw = [Fraction(rng.randint(-3, 3)) for _ in probs]
        mean = sum((q * v for q, v in zip(probs, draw)), start=ZERO)
        rows.append([v - mean for v in draw])
    return rows


def _accumulate_basis(tree, rng, d, require_full_rank):
    node_values = {tree.root.id: tuple([ZERO] * d)}
    for t in range(1, tree.horizon + 1):
        for parent in tree.nodes_at[t - 1]:
            children = parent.children
            probs = [child.branch_prob for child in children]
            while True:
                rows = _centered_rows(rng, probs, d)
                if not require_full_rank or rank(rows) == len(children) - 1:
                    break
            base = node_values[parent.id]
            for k, child in enumerate(children):
                node_values[child.id] = tuple(
                    base[j] + rows[j][k] for j in range(d))
    return Process.from_node_values(tree, node_values, dim=d)


def random_basis(tree: FilteredTree, rng, d=None) -> Process:
    """Martingale driver with the representation property by construction.

    Per node the centered child increments are redrawn until they span the
    mean-zero hyperplane, so the rank test holds everywhere. d defaults to
    the widest branching minus one and may not be smaller.
    """
    widest = widest_branching(tree)
    if d is None:
        d = max(1, widest - 1)
    if d < widest - 1:
        raise DimensionMismatch(
            f"dimension {d} cannot span {widest}-fold branching")
    return _accumulate_basis(tree, rng, d, require_full_rank=True)


def undersized_basis(tree: FilteredTree, rng) -> Process:
    """Driver two dimensions short of the widest branching.

    The rank test must then fail at every widest node: d rows can never
    reach rank d + 1."""
    widest = widest_branching(tree)
    if widest < 3:
        raise DegeneratePartition(
            "undersized driver needs a node with at least 3 children")
    return _accumulate_basis(tree, rng, widest - 2, require_full_rank=False)


def random_enlargement(tree: FilteredTree, rng, name="G"):
    """Refining flow built by randomly splitting cells inside base atoms.

    Splits respect the previous time's cells, so the result is monotone; the
    trivial refinement survives with positive probability at every step.
    """
    base = tree.base_filtration()
    partitions = {}
    prev_of = dict.fromkeys(range(tree.n_leaves), 0)  # leaf -> previous cell
    for t in range(tree.horizon + 1):
        cells = []
        for atom in base.atoms(t):
            # the atom's leaves grouped by previous cell, in cell order
            groups: dict[int, list] = {}
            for leaf in atom.leaves:
                groups.setdefault(prev_of[leaf], []).append(leaf)
            for piece in map(groups.__getitem__, sorted(groups)):
                if len(piece) > 1 and rng.random() < Fraction(3, 5):
                    k = rng.randint(2, min(len(piece), 3))
                    order = piece[:]
                    rng.shuffle(order)
                    buckets = [[] for _ in range(k)]
                    for j, leaf in enumerate(order):
                        buckets[j % k].append(leaf)
                    cells.extend(tuple(sorted(b)) for b in buckets)
                else:
                    cells.append(tuple(piece))
        partitions[t] = [list(cell) for cell in cells]
        prev_of = {leaf: k for k, cell in enumerate(cells) for leaf in cell}
    return enlarge(tree, partitions, name=name)


def random_martingale(tree: FilteredTree, rng, dim=1) -> Process:
    """Martingale closed by a random rational payoff."""
    terminal = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(dim))
                for _ in range(tree.n_leaves)]
    return Process.doob(tree, terminal)


def random_positive_martingale(tree: FilteredTree, rng) -> Process:
    """Strictly positive martingale normalized to start at 1."""
    terminal = [Fraction(rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(tree.n_leaves)]
    x = Process.doob(tree, terminal)
    return x.scale(1 / x.initial()[0])


def random_jump_function(mu: JumpMeasure, filtration_like, rng) -> JumpFunction:
    """Random rational table on every point the measure charges."""
    return JumpFunction.from_callable(
        mu, filtration_like,
        lambda t, value: Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


def random_representable(w: Process, rng) -> Process:
    """Scalar martingale given as a random predictable integral against w."""
    # draws in time order, then node order: the base atoms are the nodes
    integrand = Process._predictable(
        w.tree.base_filtration(), w.dim,
        lambda t, atom: tuple(Fraction(rng.randint(-3, 3)) for _ in range(w.dim)))
    return dot_integral(integrand, w)


def random_increasing(tree: FilteredTree, rng) -> Process:
    """Adapted nondecreasing scalar process with many flat increments."""
    node_values = {tree.root.id: ZERO}
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t]:
            if rng.random() < Fraction(1, 2):
                step = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            else:
                step = ZERO
            node_values[node.id] = node_values[node.parent.id] + step
    return Process.from_node_values(tree, node_values, dim=1)


def random_scenario(seed: int, horizon=None, max_branching=None,
                    checks=()) -> Scenario:
    """Whole fuzz instance: tree, driver, price, one or two enlargements."""
    rng = rng_for(seed, "scenario")
    if horizon is None:
        horizon = rng.randint(1, 3)
    if max_branching is None:
        max_branching = rng.randint(2, 4)
    tree = random_tree(seed, horizon=horizon, max_branching=max_branching)
    w = random_basis(tree, rng_for(seed, "basis"))
    s = random_positive_martingale(tree, rng_for(seed, "price"))
    enlargements = {}
    for k in range(rng.randint(1, 2)):
        name = f"G{k}"
        enlargements[name] = random_enlargement(
            tree, rng_for(seed, "enlargement", name), name=name)
    return Scenario(tree=tree, enlargements=enlargements,
                    processes={"W": w, "S": s}, checks=tuple(checks),
                    seed=seed, basis="W", viability_family=("S",))

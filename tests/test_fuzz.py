"""Seeded generators: determinism and the contracts the campaigns rely on."""

from fractions import Fraction as F

import pytest

from filtration_lab.calculus import decompose
from filtration_lab.fuzz import (
    random_basis,
    random_enlargement,
    random_increasing,
    random_martingale,
    random_positive_martingale,
    random_representable,
    random_scenario,
    rng_for,
    undersized_basis,
    widest_branching,
)
from filtration_lab.representation import check_mrp, representation_coefficient
from filtration_lab.tree import build_tree, enlarge, random_tree


class TestRng:
    def test_same_labels_same_stream(self):
        a = rng_for(5, "basis", 2)
        b = rng_for(5, "basis", 2)
        assert [a.randrange(1000) for _ in range(5)] == \
            [b.randrange(1000) for _ in range(5)]

    def test_labels_separate_streams(self):
        a = rng_for(5, "basis", 2)
        b = rng_for(5, "basis", 3)
        assert [a.randrange(1000) for _ in range(5)] != \
            [b.randrange(1000) for _ in range(5)]


class TestBases:
    def test_random_basis_represents(self):
        for seed in range(6):
            tree = random_tree(seed, horizon=2, max_branching=3)
            w = random_basis(tree, rng_for(seed, "w"))
            assert check_mrp(w).holds

    def test_undersized_basis_fails_where_wide(self):
        # one dimension short at a node with three or more children
        found = 0
        for seed in range(12):
            tree = random_tree(seed, horizon=2, max_branching=4)
            if widest_branching(tree) < 3:
                continue
            found += 1
            w = undersized_basis(tree, rng_for(seed, "under"))
            assert not check_mrp(w).holds
        assert found > 0

    def test_representable_round_trip(self):
        for seed in range(6):
            tree = random_tree(seed, horizon=2, max_branching=3)
            rng = rng_for(seed, "rt")
            w = random_basis(tree, rng)
            x = random_representable(w, rng)
            h = representation_coefficient(x, w)
            assert h is not None


class TestProcesses:
    def test_random_martingale_has_zero_drift(self):
        for seed in range(5):
            tree = random_tree(seed, horizon=2, max_branching=3)
            m = random_martingale(tree, rng_for(seed, "m"), dim=2)
            parts = decompose(m, tree)
            leaves = len(tree.leaves)
            assert all(parts.drift_part.at(t, i) == (0, 0)
                       for t in range(3) for i in range(leaves))

    def test_positive_martingale_positive(self):
        for seed in range(5):
            tree = random_tree(seed, horizon=2, max_branching=3)
            y = random_positive_martingale(tree, rng_for(seed, "y"))
            leaves = len(tree.leaves)
            assert all(y.at(t, i)[0] > 0
                       for t in range(3) for i in range(leaves))

    def test_random_increasing_increases(self):
        for seed in range(5):
            tree = random_tree(seed, horizon=2, max_branching=3)
            a = random_increasing(tree, rng_for(seed, "a"))
            leaves = len(tree.leaves)
            assert all(a.increment(t, i)[0] >= 0
                       for t in (1, 2) for i in range(leaves))
            assert a.at(0, 0) == (F(0),)


class TestEnlargementScenario:
    def test_random_enlargement_refines(self):
        for seed in range(5):
            tree = random_tree(seed, horizon=2, max_branching=3)
            g = random_enlargement(tree, rng_for(seed, "g"))
            filtration = g.filtration()
            for t in range(3):
                labels = [atom.label for atom in filtration.atoms(t)]
                assert len(labels) == len(set(labels))
                seen = sorted(
                    i for atom in filtration.atoms(t) for i in atom.leaves)
                assert seen == list(range(len(tree.leaves)))

    def test_random_scenario_is_deterministic(self):
        one = random_scenario(9)
        two = random_scenario(9)
        assert one.tree.to_spec() == two.tree.to_spec()
        assert sorted(one.processes) == sorted(two.processes)
        for name in one.processes:
            assert one.processes[name].node_values() == \
                two.processes[name].node_values()


def scan_enlargement(tree, rng, name="G"):
    """random_enlargement as it was: each base atom intersected with every
    previous cell, empty intersections skipped."""
    base = tree.base_filtration()
    partitions = {}
    previous = None
    for t in range(tree.horizon + 1):
        cells = []
        for atom in base.atoms(t):
            atom_leaves = set(atom.leaves)
            if previous is None:
                pieces = [sorted(atom_leaves)]
            else:
                pieces = [sorted(atom_leaves & set(prev)) for prev in previous]
            for piece in pieces:
                if not piece:
                    continue
                if len(piece) > 1 and rng.random() < F(3, 5):
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
        previous = cells
    return enlarge(tree, partitions, name=name)


def full_tree(branching, horizon):
    """Full b-ary tree, the shape of the benchmark's file workloads."""
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": None}]
    frontier = ["r"]
    for t in range(1, horizon + 1):
        frontier = [parent + "abcde"[k] for parent in frontier
                    for k in range(branching)]
        nodes += [{"id": child, "time": t, "parent": child[:-1],
                   "prob": str(F(1, branching))} for child in frontier]
    return build_tree({"horizon": horizon, "nodes": nodes})


def same_draws(tree, *labels):
    """The indexed generator and the scan give one flow and leave the
    stream at the same point."""
    new_rng, old_rng = rng_for(*labels), rng_for(*labels)
    new = random_enlargement(tree, new_rng)
    old = scan_enlargement(tree, old_rng)
    return (new.to_spec() == old.to_spec()
            and new_rng.random() == old_rng.random())


@pytest.mark.parametrize("seed", range(50))
def test_enlargement_matches_previous_cell_scan(seed):
    """Fuzz trees (random_scenario's shapes and wider random trees) on the
    streams random_scenario draws its flows from."""
    for tree in (random_scenario(seed).tree,
                 random_tree(seed, horizon=3, max_branching=4)):
        for name in ("G0", "G1"):
            assert same_draws(tree, seed, "enlargement", name)


@pytest.mark.parametrize("shape", [(2, 7), (5, 3), (2, 2), (5, 2)])
def test_enlargement_matches_scan_on_full_trees(shape):
    """The deep-binary and wide-shallow shapes, full and quick, on the fixed
    G0 stream the benchmark draws from and on a few others."""
    tree = full_tree(*shape)
    for seed in range(4):
        assert same_draws(tree, seed, "enlargement", "G0")

"""Seeded generators: determinism and the contracts the campaigns rely on."""

import math
from fractions import Fraction as F

import check_reference as ref
import pytest
from draws import random_martingale

from filtration_lab.calculus import JumpFunction, Process, decompose, jump_measure
from filtration_lab.fuzz import (
    random_basis,
    random_enlargement,
    random_increasing,
    random_jump_function,
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


def test_split_threshold_is_three_fifths():
    """rng.random() <= 0.6 accepts exactly the draws below 3/5: the float
    0.6 is the largest double below it."""
    assert F(0.6) < F(3, 5) < F(math.nextafter(0.6, 1))


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


@pytest.mark.parametrize("seed", range(200))
def test_enlargement_matches_previous_cell_scan(seed):
    """Fuzz trees (random_scenario's shapes and wider random trees) on the
    streams random_scenario draws its flows from. The scan splits when
    rng.random() < Fraction(3, 5), the generator when it is <= 0.6."""
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


def fraction_increasing(tree, rng):
    """random_increasing as it was: a Fraction node table, each time-t node
    its parent's value plus a step drawn in node order."""
    node_values = {tree.root.id: F(0)}
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t]:
            if rng.random() < F(1, 2):
                step = F(rng.randint(1, 3), rng.randint(1, 2))
            else:
                step = F(0)
            node_values[node.id] = node_values[node.parent.id] + step
    return Process.from_node_values(tree, node_values, dim=1)


@pytest.mark.parametrize("seed", range(200))
def test_increasing_matches_fraction_builder(seed):
    """Same values and the stream left at the same point, on the fuzz trees
    and on the consistency check's streams; the builder steps when
    rng.random() < Fraction(1, 2), the generator when it is < 0.5."""
    for tree in (random_scenario(seed).tree,
                 random_tree(seed, horizon=3, max_branching=4)):
        for labels in ((seed, "consistency", "G0"), (seed, "a")):
            new_rng, old_rng = rng_for(*labels), rng_for(*labels)
            new = random_increasing(tree, new_rng)
            old = fraction_increasing(tree, old_rng)
            assert new.node_values() == old.node_values()
            assert new == old
            assert new_rng.random() == old_rng.random()


def fraction_jump_function(mu, filtration, rng):
    """random_jump_function as it was: one Fraction drawn per charged point,
    tabulated through JumpFunction.from_callable."""
    return JumpFunction.from_callable(
        mu, filtration,
        lambda t, value: F(rng.randint(-5, 5), rng.randint(1, 3)))


@pytest.mark.parametrize("seed", range(50))
def test_jump_function_matches_fraction_draws(seed):
    """Equal tables, in equal order, and the stream left at the same point,
    under the base flow and every enlargement, on the star-to-dot and
    consistency streams."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    mu = jump_measure(scenario.basis_process())
    for flow in (tree, *scenario.enlargements.values()):
        for labels in ((seed, "star-to-dot", "0"), (seed, "consistency", "G0", "2")):
            new_rng, old_rng = rng_for(*labels), rng_for(*labels)
            new = random_jump_function(mu, flow, new_rng)
            old = fraction_jump_function(mu, flow, old_rng)
            assert new.filtration is old.filtration
            assert [(t, table[0], list(table[1].items()))
                    for t, table in new._tables.items()] == \
                [(t, table[0], list(table[1].items()))
                 for t, table in old._tables.items()]
            assert new_rng.random() == old_rng.random()


def same_slices(new_rng, old_rng, new, old):
    """The int generator and the Fraction one give one process, slice for
    slice, and leave the stream at the same point."""
    return ((new.dim, new.parts, new.dens, new.nums)
            == (old.dim, old.parts, old.dens, old.nums)
            and new_rng.random() == old_rng.random())


def generators_agree(tree, seed, d=None):
    """random_basis, undersized_basis where the tree is wide enough, and
    random_positive_martingale against the Fraction routes."""
    pairs = [(lambda rng: random_basis(tree, rng, d),
              lambda rng: ref.random_basis(tree, rng, d), "basis"),
             (lambda rng: random_positive_martingale(tree, rng),
              lambda rng: ref.random_positive_martingale(tree, rng), "price")]
    if widest_branching(tree) >= 3:
        pairs.append((lambda rng: undersized_basis(tree, rng),
                      lambda rng: ref.undersized_basis(tree, rng), "under"))
    for new_of, old_of, label in pairs:
        new_rng, old_rng = rng_for(seed, label), rng_for(seed, label)
        if not same_slices(new_rng, old_rng, new_of(new_rng), old_of(old_rng)):
            return False
    return True


@pytest.mark.parametrize("seed", range(300))
def test_generators_match_fraction_routes(seed):
    """On random_scenario's tree, whose W and S are drawn from the basis
    and price streams checked here."""
    assert generators_agree(random_scenario(seed).tree, seed)


@pytest.mark.parametrize("shape", [(2, 7, 1), (5, 3, 4), (2, 10, 1), (3, 5, 2)])
def test_generators_match_fraction_routes_on_full_trees(shape):
    """The benchmark's four full-tree shapes, with their driver dimension."""
    branching, horizon, d = shape
    assert generators_agree(full_tree(branching, horizon), 0, d)

"""The tree's masses on ints, against the Fraction route it replaced.

FilteredTree once stored each node's probability as a Fraction, the
parent's times the branch probability, and took the leaf denominator and
the int masses from the leaves' Fractions. It now carries each leaf's path
probability as the unreduced int products of the branch ratios and reduces
once, over the lcm of their denominators; Node.prob and leaf_probs are
Fraction views built when read. check_reference.node_probs and leaf_masses
keep the Fraction route, and every figure must be its figure.
"""

from fractions import Fraction
from pathlib import Path

import check_reference as ref
import pytest

from filtration_lab import build_tree
from filtration_lab.fuzz import random_scenario
from filtration_lab.scenario import load

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "fixtures"
SEEDS = range(50)


def assert_masses_are_the_fraction_routes(tree):
    den, masses = ref.leaf_masses(tree)
    assert tree.leaf_den == den
    assert tree.leaf_mass == masses
    assert [leaf.mass for leaf in tree.leaves] == masses
    probs = ref.node_probs(tree)
    for node in tree.nodes.values():
        assert node.prob == probs[node.id]
        assert Fraction(node.mass, den) == probs[node.id]
    for part, nodes in zip(tree.base_filtration().parts, tree.nodes_at):
        assert [atom.prob for atom in part.atoms] == [probs[n.id] for n in nodes]
    assert tree.leaf_probs == [probs[leaf.id] for leaf in tree.leaves]


@pytest.mark.parametrize("seed", SEEDS)
def test_masses_match_on_fuzz_seeds(seed):
    assert_masses_are_the_fraction_routes(random_scenario(seed).tree)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_masses_match_on_fixtures(name):
    assert_masses_are_the_fraction_routes(load(FIXTURES / name).tree)


def test_path_products_reduce_once():
    """2/3 then 3/4 is 6/12 on the path: the leaf denominator is the lcm of
    the reduced denominators, 6, not the paths' 12."""
    tree = build_tree({"horizon": 2, "nodes": [
        {"id": "r", "time": 0, "parent": None, "prob": None},
        {"id": "a", "time": 1, "parent": "r", "prob": "2/3"},
        {"id": "b", "time": 1, "parent": "r", "prob": "1/3"},
        {"id": "aa", "time": 2, "parent": "a", "prob": "3/4"},
        {"id": "ab", "time": 2, "parent": "a", "prob": "1/4"},
        {"id": "ba", "time": 2, "parent": "b", "prob": "1/2"},
        {"id": "bb", "time": 2, "parent": "b", "prob": "1/2"},
    ]})
    assert tree.leaf_den == 6
    assert tree.leaf_mass == [3, 1, 1, 1]
    assert_masses_are_the_fraction_routes(tree)

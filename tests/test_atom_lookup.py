"""Atom labels and the lookups that read them.

Only a filtration's atoms carry labels: a meet that is neither of its two
inputs has atoms labelled None, and one that is an input is that input.
Nothing in the library looks an atom up by label: check_reference's
atom_labelled, which its reference callers use, finds one by a scan of its
time's partition. A leaf id is coerced to its position by
FilteredTree._leaf_index, which reads it off the leaf's node and raises its
caller's error for any other id.
"""

import pytest
from check_reference import atom_labelled

from filtration_lab.fuzz import random_scenario

SEEDS = range(50)


def test_meet_of_two_crossing_flows_has_no_labels(ter1, ga, gb):
    """At time 0 GA splits {a | b, c} and GB {a, b | c}: neither refines
    the other, so their meet {a | b | c} is a third partition."""
    a, b = ga.filtration().parts[0], gb.filtration().parts[0]
    meet = ter1.meet(a, b)
    assert meet is not a and meet is not b
    assert [atom.leaves for atom in meet.atoms] == [(0,), (1,), (2,)]
    assert [atom.label for atom in meet.atoms] == [None, None, None]
    assert ter1.meet(b, a) is meet


def test_meet_that_is_an_input_keeps_its_labels(ter1, ga):
    fine, base = ga.filtration().parts[0], ter1.base_filtration().parts[0]
    assert ter1.meet(fine, base) is fine
    assert [atom.label for atom in fine.atoms] == ["a", "b|c"]


@pytest.mark.parametrize("seed", SEEDS)
def test_atom_labelled_finds_every_atom(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    flows = [tree.base_filtration()] + [
        enl.filtration() for enl in scenario.enlargements.values()]
    for filtration in flows:
        for t, part in enumerate(filtration.parts):
            for atom in part.atoms:
                assert atom_labelled(filtration, t, atom.label) is atom
        for t, label in ((0, "nowhere"), (tree.horizon + 1, tree.leaf_ids[0]),
                         (-1, tree.leaf_ids[0])):
            with pytest.raises(KeyError):
                atom_labelled(filtration, t, label)


@pytest.mark.parametrize("seed", SEEDS)
def test_leaf_index_reads_the_leaf_nodes(seed):
    tree = random_scenario(seed).tree
    for i, leaf_id in enumerate(tree.leaf_ids):
        assert tree._leaf_index(leaf_id, KeyError) == i
    for node in tree.nodes.values():
        if node.children:
            with pytest.raises(KeyError, match="is not a leaf"):
                tree._leaf_index(node.id, KeyError)
    with pytest.raises(KeyError, match="unknown leaf id"):
        tree._leaf_index("nowhere", KeyError)

"""Successor-class witnesses and the multiplier frame on int masses, against
the Fraction forms they replaced.

conditional_multiplicity orders each atom's classes by (-child mass, id) and
holds the atom's and the classes' int masses; check_reference keeps the old
order by (-branch probability, id) and the branch probabilities. Every
witness must list the same classes in the same order, ties included, hold
the node's mass and the branch probabilities times it, and give the branch
probabilities back through its probs view.

_multiplier_frame builds the closed-form Gram-Schmidt frame on those masses;
check_reference keeps it as it was built on Fractions. The frames must be
the same (den, nums) and the ratios (m_h, M) must equal the old reduced
ratios in value; phi, which the ratios and their lcm feed, must equal
integral_reference's Fraction route (test_integral_reference holds it on
the fuzz corpus, this file on the benchmark shapes). Both run on
random_scenario seeds 0-49 and the four full-tree benchmark shapes.
"""

from fractions import Fraction
from pathlib import Path

import check_reference as ref
import integral_reference
import pytest

from filtration_lab import reconstruct_accessible, solve_drift_multiplier
from filtration_lab.enlargement import _multiplier_frame
from filtration_lab.fuzz import random_scenario, widest_branching
from filtration_lab.representation import conditional_multiplicity

ROOT = Path(__file__).resolve().parent.parent
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 2, 1, False), (5, 2, 4, True)]
CASES = [f"seed-{seed}" for seed in range(50)] + [f"shape-{k}" for k in range(4)]


@pytest.fixture
def scenario(request, monkeypatch):
    kind, k = request.param.split("-")
    if kind == "seed":
        return random_scenario(int(k))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return shaped_scenario(0, *SHAPES[int(k)])


@pytest.mark.parametrize("scenario", CASES, indirect=True)
def test_witnesses_match_the_branch_probability_form(scenario):
    """Padded to one more class than the widest node has, so every witness
    holds padding."""
    tree = scenario.tree
    width = widest_branching(tree) + 1
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t - 1]:
            count, wit = conditional_multiplicity(tree, t, node.id, d=width - 1)
            ids, probs = ref.witness_classes(node, width)
            assert count == len(node.children)
            assert wit.subatoms == ids
            assert wit.mass == node.mass
            assert wit.masses == tuple(p * node.mass for p in probs)
            assert all(type(m) is int for m in wit.masses)
            assert wit.probs == probs


def test_corpus_orders_tied_classes():
    """The fuzz corpus has siblings of equal probability, so the id
    tie-break is exercised above."""
    ties = 0
    for seed in range(50):
        for node in random_scenario(seed).tree.nodes.values():
            probs = [child.branch_prob for child in node.children]
            ties += len(probs) - len(set(probs))
    assert ties > 0


@pytest.mark.parametrize("scenario", CASES, indirect=True)
def test_multiplier_frame_matches_the_fraction_frame(scenario):
    rebuilt = reconstruct_accessible(scenario.basis_process())
    slots, _, _ = _multiplier_frame(rebuilt)
    for t, row in enumerate(slots, 1):
        for node, classes, eps_den, eps_nums, norms, ratios, lead in row:
            wit = rebuilt._witness(t, node.label)
            _, probs = ref.witness_classes(
                scenario.tree.nodes[node.label], rebuilt.d + 1)
            old_den, old_nums, old_ratios, _ = ref.multiplier_frame(probs)
            assert classes == wit.subatoms
            assert (eps_den, eps_nums) == (old_den, old_nums)
            assert norms == [sum(v * v for v in e) for e in eps_nums]
            assert [Fraction(*r) for r in ratios] == [Fraction(*r) for r in old_ratios]
            assert all(lead % a == 0 for a, _ in ratios if a)


@pytest.mark.parametrize("scenario", CASES[50:], indirect=True)
def test_phi_matches_the_fraction_route_on_the_shapes(scenario):
    rebuilt = reconstruct_accessible(scenario.basis_process())
    for _, enlargement in sorted(scenario.enlargements.items()):
        new = solve_drift_multiplier(enlargement, rebuilt)
        old = integral_reference.solve_drift_multiplier(enlargement, rebuilt)
        assert (new.phi, new.n, new.holds) == (old.phi, old.n, old.holds)

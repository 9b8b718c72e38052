"""The partition kernel against the per-leaf kernel it replaced.

integral_reference keeps, verbatim, the old conditional_mean, which groups
an atom's leaves by a key or by cell identity and sums leaf probabilities on
every call. The new kernel weighs the blocks of the meet of a row's
partition and the atom's by their masses. On the fuzz corpus, under the
base flow, every enlargement and one extra enlargement, both must give
exactly equal means and partial means per time-t node,
on rows whose partition the conditioning flow refines and on rows whose
partition it does not: base rows under an enlargement, enlarged rows under
the base flow and under another enlargement, and per-leaf input.
"""

from fractions import Fraction

import integral_reference as ref
import pytest

from filtration_lab import Process, drift_operator, dual_predictable_projection
from filtration_lab.fuzz import random_enlargement, random_scenario, rng_for
from filtration_lab.rationals import as_fractions, over_common_denominator
from filtration_lab.tree import _weigh

F = Fraction
SEEDS = range(50)


def conditional_mean(atom, part, cells):
    """E[X | atom] for X holding cells[k], a tuple of rationals, on block k
    of part; cells need only hold the blocks meeting the atom. The kernel's
    Fraction front end, kept here since only this test reads means that
    way."""
    blocks = [k for k, _ in part.pieces(atom)]
    den, nums = over_common_denominator([cells[k] for k in blocks])
    sums, weight = _weigh(atom, part, dict(zip(blocks, nums)))
    return as_fractions(den * weight, sums)


def flows(scenario):
    """Base, every enlargement in name order, and one more enlargement."""
    tree = scenario.tree
    yield tree.base_filtration()
    for _, enlargement in sorted(scenario.enlargements.items()):
        yield enlargement.filtration()
    yield random_enlargement(tree, rng_for(scenario.seed, "atom-kernel"),
                             name="H").filtration()


def wild(tree, dim, rng):
    """Outside input adapted to no flow: one drawn vector per (time, leaf)."""
    return Process(tree, [[tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(dim))
                           for _ in range(tree.n_leaves)]
                          for _ in range(tree.horizon + 1)], dim=dim)


def processes(scenario, filtrations, rng):
    """Rows on base nodes, on each flow's atoms, on meets, and on leaves."""
    tree = scenario.tree
    w = scenario.basis_process()
    out = [w, scenario.processes["S"], wild(tree, 1, rng), wild(tree, 2, rng)]
    terminal = [(F(rng.randint(-4, 4), rng.randint(1, 3)),)
                for _ in range(tree.n_leaves)]
    for filtration in filtrations[1:]:
        out.append(Process.doob(tree, terminal, filtration))
        out.append(dual_predictable_projection(w, filtration))
        out.append(drift_operator(w.component(0), filtration).g_martingale)
    return out


def partial_means(atom, nodes, part, cells):
    """E[X; node | atom] per time-t node, as project_onto_jump_measure forms
    it: the mean on each piece of the atom cut by the nodes, times the
    piece's conditional mass."""
    cut = atom.partition.tree.meet(nodes, atom.partition)
    node_of = cut.index_in(nodes)
    return [(node_of[k], tuple(cut.atoms[k].prob / atom.prob * c for c in
                               conditional_mean(cut.atoms[k], part, cells)))
            for k in dict.fromkeys(cut.block_of[leaf] for leaf in atom.leaves)]


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_per_leaf_reference(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    filtrations = list(flows(scenario))
    nodes = tree.base_filtration().parts
    unrefined = 0
    for x in processes(scenario, filtrations, rng_for(seed, "atom-kernel")):
        for t in range(tree.horizon + 1):
            part, cells = x.row(t)
            leaf_row = x.values[t]
            for filtration in filtrations:
                for s in range(t + 1):
                    cond = filtration.partition(s)
                    unrefined += tree.meet(part, cond) is not cond
                    for atom in cond.atoms:
                        assert (conditional_mean(atom, part, cells)
                                == ref.conditional_mean(tree, atom, leaf_row))
                        if s == t - 1:  # as the projection conditions
                            assert partial_means(atom, nodes[t], part, cells) \
                                == list(ref.conditional_mean(
                                    tree, atom, leaf_row,
                                    key=nodes[t].block_of.__getitem__).items())
    # the corpus conditions rows on flows that do not refine their partition
    assert unrefined > 0

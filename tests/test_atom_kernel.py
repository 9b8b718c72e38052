"""The partition kernel against the per-leaf kernel it replaced.

integral_reference keeps, verbatim, the old conditional_mean, which groups
an atom's leaves by a key or by cell identity and sums leaf probabilities on
every call. The kernel, tree._means, weighs the blocks of the meet of a
row's partition and the atoms' by their masses. On the fuzz corpus, under
the base flow, every enlargement and one extra enlargement, both must give
exactly equal means and partial means per time-t node,
on rows whose partition the conditioning flow refines and on rows whose
partition it does not: base rows under an enlargement, enlarged rows under
the base flow and under another enlargement, and per-leaf input. The
kernel runs once per whole conditioning partition on the full row, and
once per atom, and per atom's pieces, on a dict row holding only the
blocks meeting them, as integral_reference._moment_sums passes it.
"""

from fractions import Fraction

import integral_reference as ref
import pytest

from filtration_lab import Process, drift_operator, dual_predictable_projection
from filtration_lab.fuzz import random_enlargement, random_scenario, rng_for
from filtration_lab.rationals import as_fractions, over_common_denominator
from filtration_lab.tree import _means

F = Fraction
SEEDS = range(50)


def conditional_means(atoms, part, cells):
    """E[X | atom] per atom of atoms, all of one partition, for X holding
    cells[k], a tuple of rationals, on block k of part, from one _means
    call on a dict row holding only the blocks meeting the atoms. The
    kernel's Fraction front end, kept here since only this test reads
    means that way."""
    table = part.pieces_table(atoms[0].partition)
    blocks = list(dict.fromkeys(k for atom in atoms for k, _ in table[atom.index]))
    den, nums = over_common_denominator([cells[k] for k in blocks])
    return [as_fractions(scale, sums)
            for scale, sums in _means(atoms, part, den, dict(zip(blocks, nums)))]


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
    pieces = [cut.atoms[k] for k in
              dict.fromkeys(cut.block_of[leaf] for leaf in atom.leaves)]
    return [(node_of[piece.index], tuple(piece.prob / atom.prob * c for c in mean))
            for piece, mean in zip(pieces, conditional_means(pieces, part, cells))]


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
                    whole = _means(cond.atoms, part, *over_common_denominator(cells))
                    for atom, (scale, sums) in zip(cond.atoms, whole):
                        want = ref.conditional_mean(tree, atom, leaf_row)
                        assert as_fractions(scale, sums) == want
                        assert conditional_means([atom], part, cells) == [want]
                        if s == t - 1:  # as the projection conditions
                            assert partial_means(atom, nodes[t], part, cells) \
                                == list(ref.conditional_mean(
                                    tree, atom, leaf_row,
                                    key=nodes[t].block_of.__getitem__).items())
    # the corpus conditions rows on flows that do not refine their partition
    assert unrefined > 0

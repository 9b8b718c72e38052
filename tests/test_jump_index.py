"""The jump index against the {support node id: location id} walk.

JumpMeasure.locs holds one location id, or None, per time-t node, and every
jump reader goes through it or through calculus._jump_cut. check_reference
keeps the dict the measure used to hold and each reader's own walk over it.
On random_scenario seeds 0-49, the same scenarios with their nodes renamed
at random, and the four full-tree benchmark shapes, for
the basis's measure, under the base flow and under each enlargement, the
library must give the same locs, compensator laws (in order), slot
martingales, star integrals, projections, value slots and jump counter,
slice for slice. star_integral refuses a jump function anchored on a flow
the integration flow does not refine; the old walk gave a process that is
no martingale there.
"""

import random
from pathlib import Path

import check_reference as ref
import pytest

from filtration_lab import (
    JumpFunction,
    Process,
    jump_measure,
    project_onto_jump_measure,
    star_integral,
)
from filtration_lab.cli import CheckContext, _jump_counter
from filtration_lab.constraint import (
    constraint_martingales,
    detect_fpcc,
    value_slots_from_measure,
)
from filtration_lab.errors import NotPredictable
from filtration_lab.fuzz import random_jump_function, random_scenario, rng_for
from filtration_lab.scenario import parse_scenario, scenario_to_doc

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(50)
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 2, 1, False), (5, 2, 4, True)]


def shaped(shape, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return shaped_scenario(0, *shape)


def relabelled(scenario, seed):
    """The same scenario with its node ids drawn at random. Fuzz and
    benchmark trees name each node by its path, so node-label order is node
    order there; here it is not, and the compensator laws must follow the
    labels."""
    doc = scenario_to_doc(scenario)
    ids = [node["id"] for node in doc["nodes"]]
    drawn = random.Random(seed).sample(range(10 * len(ids)), len(ids))
    name = {old: f"n{k:05d}" for old, k in zip(ids, drawn)}
    for node in doc["nodes"]:
        node["id"] = name[node["id"]]
        node["parent"] = node["parent"] and name[node["parent"]]
    for spec in doc.get("enlargements", {}).values():
        for t, cells in spec.items():
            spec[t] = [[name[leaf] for leaf in cell] for cell in cells]
    for process in doc["processes"].values():
        process["values"] = {name[nid]: v for nid, v in process["values"].items()}
    return parse_scenario(doc)


def flows(scenario):
    """The base filtration, then every enlargement's, in name order."""
    yield scenario.tree.base_filtration()
    for _, enlargement in sorted(scenario.enlargements.items()):
        yield enlargement.filtration()


def same_slices(a: Process, b: Process) -> bool:
    """Equal dims, denominators, numerators and block layouts."""
    return (a.dim == b.dim and a.dens == b.dens and a.nums == b.nums
            and [p.block_of for p in a.parts] == [p.block_of for p in b.parts])


def doob(tree, filtration, rng):
    """A scalar martingale of the flow, closed by a random payoff."""
    return Process.doob(tree, [rng.randint(-4, 4) for _ in range(tree.n_leaves)],
                        filtration)


def complete_table(mu, filtration, rng) -> JumpFunction:
    """A random value at every time-(t-1) atom of the flow for every
    location charged anywhere at t."""
    return JumpFunction._from_ratios(filtration, [
        ((t, atom.label, loc), (rng.randint(-5, 5), rng.randint(1, 3)))
        for t in range(1, mu.tree.horizon + 1)
        for atom in filtration.atoms(t - 1)
        for loc in sorted({loc for loc in mu.locs[t] if loc is not None})])


def assert_index_matches(scenario, seed):
    tree = scenario.tree
    w = scenario.basis_process()
    mu = jump_measure(w)
    pooled = len(tree.locations)
    jumps = ref.jump_ids(w)
    assert len(tree.locations) == pooled  # the walk interns nothing new
    assert mu.locs == tuple(tuple(jumps.get(node.id) for node in nodes)
                            for nodes in tree.nodes_at)
    assert mu.support == {nid: tree.locations[loc] for nid, loc in jumps.items()}
    assert same_slices(_jump_counter(CheckContext(scenario, seed, "run")),
                       ref.jump_counter(tree, jumps))

    base_g = random_jump_function(mu, tree, rng_for(seed, "jump-index"))
    for j, filtration in enumerate(flows(scenario)):
        laws = mu.compensator(filtration).laws
        assert list(laws.items()) == list(ref.laws(tree, jumps, filtration).items())

        cs = detect_fpcc(mu, filtration)
        assert same_slices(constraint_martingales(mu, cs),
                           ref.constraint_martingales(tree, jumps, cs))

        rng = rng_for(seed, "jump-index", str(j))
        g = random_jump_function(mu, filtration, rng)
        for fn in (g, base_g):
            assert same_slices(star_integral(fn, mu, filtration),
                               ref.star_integral(fn, tree, jumps, filtration))

        y = doob(tree, filtration, rng)
        got = project_onto_jump_measure(y, mu, filtration)
        expected = ref.project_onto_jump_measure(y, jumps, filtration)
        assert got._tables == expected._tables
        assert list(got.entries.items()) == list(expected.entries.items())

        assert (value_slots_from_measure(mu, filtration)
                == ref.value_slots_from_measure(tree, jumps, filtration))


@pytest.mark.parametrize("seed", SEEDS)
def test_jump_index_matches_the_node_walk(seed):
    assert_index_matches(random_scenario(seed), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_jump_index_matches_on_relabelled_trees(seed):
    assert_index_matches(relabelled(random_scenario(seed), seed), seed)


@pytest.mark.parametrize("shape", SHAPES)
def test_jump_index_matches_on_bench_shapes(shape, monkeypatch):
    assert_index_matches(shaped(shape, monkeypatch), 0)


def test_star_integral_refuses_a_finer_anchor():
    """A complete table anchored on an enlargement, integrated under the
    base flow, is refused exactly where the flow is finer before the
    horizon, and the old walk gave a non-martingale on every such flow;
    elsewhere it integrates as before. Under its own flow the same table
    integrates to a martingale."""
    refused = broken = 0
    for seed in SEEDS:
        scenario = random_scenario(seed)
        tree = scenario.tree
        base = tree.base_filtration()
        mu = jump_measure(scenario.basis_process())
        jumps = ref.jump_ids(scenario.basis_process())
        for name, enlargement in sorted(scenario.enlargements.items()):
            flow = enlargement.filtration()
            g = complete_table(mu, flow, rng_for(seed, "anchor", name))
            assert star_integral(g, mu, flow).is_martingale(flow)
            finer = any(len(mine.atoms) > len(coarse.atoms) for mine, coarse
                        in zip(flow.parts[:-1], base.parts))
            old = ref.star_integral(g, tree, jumps, base)
            if not finer:
                assert same_slices(star_integral(g, mu, base), old)
                continue
            refused += 1
            broken += not old.is_martingale(base)
            with pytest.raises(NotPredictable, match="does not refine"):
                star_integral(g, mu, base)
    assert refused == broken == 45  # of the corpus's 72 flows

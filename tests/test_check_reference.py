"""The int rank test and compensator scan against their Fraction references.

check_reference keeps check_mrp as it ranked Process.increment Fractions and
the compensator scan as it built both compensators. On random_scenario
seeds 0-49 the library must give the same report for every basis (the
scenario's driver, a wider draw, the driver stacked on itself, the
reconstructed family and every undersized_basis probe), and the same
verdict and witness for the scan on the jump counter and on
random_increasing draws under every flow, raising the same errors in the
same order. For every basis, the measure's support, location ids and menu
gauges under every flow must be those of the Fraction vectors.
"""

import check_reference as ref
import pytest

from filtration_lab import (
    Process,
    check_compensator_abs_continuity,
    check_mrp,
    jump_measure,
)
from filtration_lab.cli import CheckContext, _jump_counter
from filtration_lab.constraint import ConstraintSystem, detect_fpcc
from filtration_lab.errors import DegeneratePartition
from filtration_lab.fuzz import (
    random_basis,
    random_increasing,
    random_scenario,
    rng_for,
    undersized_basis,
    widest_branching,
)
from filtration_lab.representation import _reconstruct
from filtration_lab.tree import Filtration

SEEDS = range(50)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def undersized_probes(tree, seed):
    try:
        return [undersized_basis(tree, rng_for(seed, "undersized", str(k)))
                for k in range(3)]
    except DegeneratePartition:  # no node with three children
        return []


def bases(scenario, seed):
    w = scenario.basis_process()
    tree = scenario.tree
    wide = random_basis(tree, rng_for(seed, "check-reference", "wide"),
                        d=max(1, widest_branching(tree) - 1) + 1)
    return [w, wide, Process.stack([w, w]), _reconstruct(w).process,
            *undersized_probes(tree, seed)]


def trivial_flow(tree):
    """One atom at every time: coarser than the base flow, so a base atom
    whose compensator stays put can sit inside a larger atom that moves,
    which is how the scan's witness branch is reached."""
    everything = tuple(range(tree.n_leaves))
    return Filtration(tree, [[("all", everything, tree.leaf_den)]]
                      * (tree.horizon + 1))


def scan_cases(scenario, seed):
    """(process, flow) pairs: the jump counter and two random_increasing
    draws, under every enlargement, the base flow and the trivial flow."""
    tree = scenario.tree
    flows = [*(e for _, e in sorted(scenario.enlargements.items())), tree,
             trivial_flow(tree)]
    counter = _jump_counter(CheckContext(scenario, seed, "run"))
    draws = [random_increasing(tree, rng_for(seed, "check-reference", str(k)))
             for k in range(2)]
    return [(a, flow) for flow in flows for a in (counter, *draws)]


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_reports_match_the_fraction_route(seed):
    scenario = random_scenario(seed)
    for w in bases(scenario, seed):
        assert check_mrp(w) == ref.check_mrp(w)


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_matches_the_two_compensators(seed):
    scenario = random_scenario(seed)
    for a, flow in scan_cases(scenario, seed):
        assert (check_compensator_abs_continuity(a, flow)
                == ref.compensator_scan(a, flow))


@pytest.mark.parametrize("seed", SEEDS)
def test_refusals_match_in_order(seed):
    """A non-martingale basis; a decreasing process, scalar and stacked,
    under a flow and under something that is no flow."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    draw = random_increasing(tree, rng_for(seed, "check-reference", "0"))
    assert outcome(check_mrp, draw) == outcome(ref.check_mrp, draw)
    falling = draw.scale(-1)
    for a in (falling, Process.stack([falling, falling]), Process.stack([draw, draw])):
        for flow in (tree, "not a flow"):
            assert (outcome(check_compensator_abs_continuity, a, flow)
                    == outcome(ref.compensator_scan, a, flow))


@pytest.mark.parametrize("seed", SEEDS)
def test_pooled_locations_match_the_fraction_route(seed):
    """The support is the nonzero increment vectors in node order; its ids
    are those a Fraction-keyed pool gives, and location_id gives them too;
    every menu gauge, of detect_fpcc's systems and of systems built from
    their reversed vectors, is the one taken from the vector."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    flows = [tree, *(e for _, e in sorted(scenario.enlargements.items()))]
    for w in bases(scenario, seed):
        pool = list(tree.locations)
        mu = jump_measure(w)
        jumps = {node.id: w.increment(t, node.leaf_lo)
                 for t in range(1, tree.horizon + 1) for node in tree.nodes_at[t]
                 if any(w.increment(t, node.leaf_lo))}
        assert list(mu.support.items()) == list(jumps.items())
        ids = [loc for locs in mu.locs for loc in locs if loc is not None]
        assert ids == ref.interned_ids(pool, jumps.values())
        assert [tree.location_id(v) for v in jumps.values()] == ids
        for flow in flows:
            found = detect_fpcc(mu, flow)
            reversed_cs = ConstraintSystem(
                found.filtration, found.dim, found.n,
                {key: tuple(reversed(menu)) for key, menu in found.slots.items()})
            for cs in (found, reversed_cs):
                for key, values in cs.slots.items():
                    assert cs._menus[key][1] == tuple(
                        (0, 1) if v is None else ref.gauge(v) for v in values)
        assert tree.locations[:len(pool)] == pool


def test_corpus_reaches_every_branch():
    """Over the corpus: failing rank tests with a counterexample, scan
    witnesses, and both refusals of the scan."""
    failing = witnesses = 0
    refusals = set()
    for seed in SEEDS:
        scenario = random_scenario(seed)
        reports = [check_mrp(w) for w in bases(scenario, seed)]
        assert all(r.holds == (r.counterexample is None) for r in reports)
        failing += sum(not r.holds for r in reports)
        witnesses += sum(not check_compensator_abs_continuity(a, flow)[0]
                         for a, flow in scan_cases(scenario, seed))
        draw = random_increasing(scenario.tree, rng_for(seed, "check-reference", "0"))
        for a in (draw.scale(-1), Process.stack([draw, draw])):
            refusals.add(outcome(check_compensator_abs_continuity, a, scenario.tree)[0])
    assert failing >= 20 and witnesses >= 20
    assert {"DimensionMismatch", "NotIncreasing"} <= {
        kind.__name__ for kind in refusals if kind != "returned"}

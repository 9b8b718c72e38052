"""Process slices are stored one cell per atom, never one per leaf.

A base-adapted result holds, at each time t, one cell per time-t node; one
that is predictable for the base flow (a compensator) one cell per
time-(t-1) node. A result adapted to an enlarged flow G holds one cell per
G_t atom (a running one starts from a single cell), or per G_{t-1} atom when
it is G-predictable, and a result built from both flows is never stored
finer than G_t.
"""

import pytest

from filtration_lab import (
    Process,
    bracket,
    dual_predictable_projection,
    find_deflator,
    jump_measure,
    predictable_bracket,
    reconstruct_accessible,
    solve_drift_multiplier,
    star_integral,
)
from filtration_lab.constraint import (
    _normalize_slots,
    _plan_accessible,
    value_slots_from_measure,
)
from filtration_lab.errors import FiltrationLabError, NoRepresentation
from filtration_lab.fuzz import (
    random_jump_function,
    random_representable,
    random_scenario,
    rng_for,
)

SEEDS = range(50)


def stored_on(x: Process, parts) -> bool:
    """Slice t has the blocks of parts[t], with one cell per block."""
    return all(x.parts[t].block_of == part.block_of
               and len(x.cells[t]) == len(part.atoms)
               for t, part in enumerate(parts))


def adapted(filtration):
    return filtration.parts


def running(filtration):
    """A running process starts from one value, on the trivial partition."""
    return (filtration.tree.base_filtration().parts[0],) + filtration.parts[1:]


def predictable(filtration):
    return (filtration.tree.base_filtration().parts[0],) + filtration.parts[:-1]


def no_finer_than(x: Process, filtration) -> bool:
    tree = x.tree
    return all(len(tree.meet(x.parts[t], part).atoms) == len(part.atoms)
               for t, part in enumerate(filtration.parts))


@pytest.mark.parametrize("seed", SEEDS)
def test_base_results_hold_one_cell_per_node(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    base = tree.base_filtration()
    w = scenario.basis_process()
    s = scenario.processes["S"]
    mu = jump_measure(w)
    h = random_representable(w, rng_for(seed, "storage"))  # a dot integral
    g = random_jump_function(mu, tree, rng_for(seed, "storage", "g"))
    nodes = adapted(base)
    for x in (w, s, w + w, w - w.minus_initial(), s.scale(3), w.component(0),
              Process.stack([w, s]), bracket(w, w), h,
              star_integral(g, mu, base), Process.zero(tree, 2),
              Process.doob(tree, [1] * tree.n_leaves)):
        assert stored_on(x, nodes)
    for x in (dual_predictable_projection(s, base),
              predictable_bracket(w, w, base)):
        assert stored_on(x, predictable(base))
    try:
        rebuilt = reconstruct_accessible(w)
    except NoRepresentation:
        return
    assert stored_on(rebuilt.process, nodes)
    for enlargement in scenario.enlargements.values():
        solution = solve_drift_multiplier(enlargement, rebuilt)
        assert stored_on(solution.n, nodes)
        assert stored_on(solution.phi, predictable(enlargement.filtration()))


@pytest.mark.parametrize("seed", SEEDS)
def test_enlarged_results_hold_one_cell_per_atom(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    s = scenario.processes["S"]
    mu = jump_measure(w)
    terminal = [leaf % 3 for leaf in range(tree.n_leaves)]
    for enlargement in scenario.enlargements.values():
        flow = enlargement.filtration()
        assert stored_on(Process.doob(tree, terminal, flow), adapted(flow))
        assert stored_on(dual_predictable_projection(w, flow), predictable(flow))
        search = find_deflator(s, flow)
        if search.feasible:
            assert stored_on(search.deflator.process, running(flow))
        rows, count = _normalize_slots(tree, value_slots_from_measure(mu, flow))
        try:
            plan = _plan_accessible(mu, flow, rows, count)
        except FiltrationLabError:
            plan = None
        if plan is not None:
            assert stored_on(plan.martingales, running(flow))
        g = random_jump_function(mu, flow, rng_for(seed, "storage", enlargement.name))
        for x in (star_integral(g, mu, flow),
                  w - dual_predictable_projection(w, flow)):
            assert no_finer_than(x, flow)

"""Shared-cell integrals and memoized conversions against the per-leaf code.

integral_reference keeps the per-leaf star_integral, dot_integral, bracket,
constraint_martingales, star_to_dot and accessible_star_to_dot the library
replaced. On the fuzz corpus, under the base flow and every enlargement, the
library must return equal processes and certificates; it must do so on
inputs whose leaves hold equal but distinct tuples, on repeated calls that
hit a memo, and when one measure serves several slot lists or constraint
systems.
"""

from fractions import Fraction

import integral_reference as ref
import pytest

from filtration_lab import (
    JumpFunction,
    Process,
    bracket,
    dot_integral,
    jump_measure,
    star_integral,
)
from filtration_lab.constraint import (
    AccessibleSlot,
    ConstraintSystem,
    accessible_star_to_dot,
    constraint_martingales,
    detect_fpcc,
    star_to_dot,
    value_slots_from_measure,
)
from filtration_lab.errors import DimensionMismatch, FiltrationLabError
from filtration_lab.fuzz import random_jump_function, random_scenario, rng_for

F = Fraction
SEEDS = range(50)


def unshared(x: Process) -> Process:
    """Equal process whose every (time, leaf) cell is its own tuple."""
    data = [[tuple(list(vec)) for vec in row] for row in x.values]
    return Process(x.tree, data, dim=x.dim)


def cell_count(x: Process) -> int:
    return len({id(vec) for row in x.values for vec in row})


def flows(scenario):
    """The base filtration, then every enlargement's, in name order."""
    yield scenario.tree.base_filtration()
    for _, enlargement in sorted(scenario.enlargements.items()):
        yield enlargement.filtration()


def random_predictable(tree, filtration, dim, rng):
    """Integrand constant on every conditioning atom of the filtration."""
    zero = tuple([F(0)] * dim)
    data = [[zero] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t - 1):
            vec = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(dim))
            for i in atom.leaves:
                row[i] = vec
        data.append(row)
    return Process(tree, data, dim=dim)


def outcome(fn, *args):
    """fn(*args), or the type of the library error it raised."""
    try:
        return fn(*args)
    except FiltrationLabError as exc:
        return type(exc)


def same_process(a: Process, b: Process) -> bool:
    return a == b and a.dim == b.dim


@pytest.mark.parametrize("seed", SEEDS)
def test_integrals_match_reference(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    s = scenario.processes["S"]
    w_loose, s_loose = unshared(w), unshared(s)
    mu = jump_measure(w)
    mu_loose = jump_measure(w_loose)

    assert same_process(bracket(w, w), ref.bracket(w, w))
    assert same_process(bracket(w_loose, w_loose), ref.bracket(w, w))
    assert same_process(bracket(s, s_loose), ref.bracket(s, s))
    assert same_process(bracket(w.component(0), s),
                        ref.bracket(w_loose.component(0), s_loose))

    # one base-anchored function integrated under every flow in turn
    base_g = random_jump_function(mu, tree, rng_for(seed, "reference"))
    for j, filtration in enumerate(flows(scenario)):
        rng = rng_for(seed, "reference", str(j))
        h = random_predictable(tree, filtration, w.dim, rng)
        expected = ref.dot_integral(h, w, filtration)
        assert same_process(dot_integral(h, w, filtration), expected)
        assert same_process(
            dot_integral(unshared(h), w_loose, filtration), expected)

        g = random_jump_function(mu, filtration, rng)
        for fn in (g, base_g):
            expected = ref.star_integral(fn, mu, filtration)
            assert same_process(star_integral(fn, mu, filtration), expected)
            assert same_process(star_integral(fn, mu_loose, filtration),
                                expected)

        cs = detect_fpcc(mu, filtration)
        nu = mu.compensator(filtration)
        assert same_process(constraint_martingales(mu, nu, cs),
                            ref.constraint_martingales(mu, nu, cs))
        h_new, cert_new = star_to_dot(g, mu, cs)
        h_ref, cert_ref = ref.star_to_dot(g, mu, cs)
        assert same_process(h_new, h_ref)
        assert cert_new == cert_ref
        assert cert_new.holds

        slots = value_slots_from_measure(mu, filtration)
        new = outcome(accessible_star_to_dot, g, mu, slots, filtration)
        old = outcome(ref.accessible_star_to_dot, g, mu, slots, filtration)
        assert new == old


@pytest.mark.parametrize("seed", SEEDS)
def test_compensator_order_matches_reference(seed):
    """Same entries in the same order: random_jump_function draws in it."""
    scenario = random_scenario(seed)
    mu = jump_measure(scenario.basis_process())
    for filtration in flows(scenario):
        got = mu.compensator(filtration).entries
        expected = ref.compensator_entries(mu, filtration)
        assert ([(key, list(dist.items())) for key, dist in got.items()]
                == [(key, list(dist.items())) for key, dist in expected.items()])


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_cellwise_operations_ignore_sharing(seed):
    """Stack, component, sums, scaling and minus_initial agree whether or
    not leaves share their vectors, and keep the sharing they were given."""
    scenario = random_scenario(seed)
    w = scenario.basis_process()
    s = scenario.processes["S"]
    w_loose, s_loose = unshared(w), unshared(s)
    for shared_side, loose_side in (
            (Process.stack([w, s]), Process.stack([w_loose, s_loose])),
            (w.component(0), w_loose.component(0)),
            (w + w, w_loose + w_loose),
            (w - w_loose, w_loose - w),
            (s.scale(F(3, 7)), s_loose.scale(F(3, 7))),
            (w.minus_initial(), w_loose.minus_initial())):
        assert same_process(shared_side, loose_side)
        assert cell_count(shared_side) <= cell_count(loose_side)
    # a node table gives one vector per node, and operations keep that
    nodes = len(scenario.tree.nodes)
    assert cell_count(w) == nodes
    assert cell_count(Process.stack([w, s])) == nodes
    assert cell_count(w_loose) == (scenario.tree.horizon + 1) * w.tree.n_leaves


def test_ragged_cells_are_rejected_once_shared(bin1):
    shared = (F(0),)
    with pytest.raises(DimensionMismatch):
        Process(bin1, [[shared, shared], [shared, (F(1), F(2))]])


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_memo_hits_equal_fresh_computation(seed):
    scenario = random_scenario(seed)
    w = scenario.basis_process()
    mu = jump_measure(w)
    g = random_jump_function(mu, scenario.tree, rng_for(seed, "memo"))
    cs = detect_fpcc(mu)
    slots = value_slots_from_measure(mu)

    first_star = star_integral(g, mu, scenario.tree)
    first_dot = star_to_dot(g, mu, cs)
    first_acc = accessible_star_to_dot(g, mu, slots)
    again_dot = star_to_dot(g, mu, cs)
    again_acc = accessible_star_to_dot(g, mu, value_slots_from_measure(mu))
    assert star_integral(g, mu, scenario.tree) is first_star
    assert again_acc.martingales is first_acc.martingales

    # fresh objects everywhere: a new measure, jump function and system
    fresh_mu = jump_measure(unshared(w))
    fresh_g = JumpFunction(g.filtration, g.entries)
    fresh_cs = detect_fpcc(fresh_mu)
    fresh_dot = star_to_dot(fresh_g, fresh_mu, fresh_cs)
    fresh_acc = accessible_star_to_dot(fresh_g, fresh_mu,
                                       value_slots_from_measure(fresh_mu))
    assert first_star == star_integral(fresh_g, fresh_mu, scenario.tree)
    for got in (first_dot, again_dot):
        assert got[0] == fresh_dot[0] and got[1] == fresh_dot[1]
    for got in (first_acc, again_acc):
        assert got == fresh_acc
    assert first_acc == ref.accessible_star_to_dot(g, mu, slots)


def test_slot_lists_differing_only_in_weight(ter1, w_ter):
    mu = jump_measure(w_ter)
    g = JumpFunction.component(mu, ter1, 0)
    plain = value_slots_from_measure(mu)
    heavy = value_slots_from_measure(mu, weights=[F(5, 2)])
    assert [s.classes for s in plain] == [s.classes for s in heavy]
    light_new = accessible_star_to_dot(g, mu, plain)
    heavy_new = accessible_star_to_dot(g, mu, heavy)
    # same weights given another way must hit the first entry's content
    ones = [AccessibleSlot(tau=s.tau, classes=s.classes, weight="1")
            for s in plain]
    assert accessible_star_to_dot(g, mu, ones) == light_new
    assert light_new == ref.accessible_star_to_dot(g, mu, plain)
    assert heavy_new == ref.accessible_star_to_dot(g, mu, heavy)
    assert heavy_new.martingales != light_new.martingales
    assert heavy_new.scale != light_new.scale
    assert heavy_new.holds and light_new.holds


def test_two_constraint_systems_on_one_measure(ter1, w_ter):
    mu = jump_measure(w_ter)
    nu = mu.compensator(ter1)
    first = detect_fpcc(mu)
    reordered = ConstraintSystem(
        first.filtration, first.dim, first.n,
        {key: tuple(reversed(menu)) for key, menu in first.slots.items()})
    halved = ConstraintSystem(
        first.filtration, first.dim, first.n, first.slots,
        gauges=[lambda x: F(1, 2)] * first.n)
    results = []
    for cs in (first, reordered, halved, first):
        got = constraint_martingales(mu, nu, cs)
        assert same_process(got, ref.constraint_martingales(mu, nu, cs))
        results.append(got)
    assert results[0] is results[3]
    assert results[0] != results[1] and results[0] != results[2]
    g = JumpFunction.component(mu, ter1, 1)
    for cs in (first, reordered, halved):
        h_new, cert_new = star_to_dot(g, mu, cs)
        h_ref, cert_ref = ref.star_to_dot(g, mu, cs)
        assert h_new == h_ref and cert_new == cert_ref and cert_new.holds

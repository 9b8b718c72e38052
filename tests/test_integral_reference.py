"""Shared-cell integrals and memoized conversions against the per-leaf code.

integral_reference keeps the per-leaf star_integral, dot_integral, bracket,
constraint_martingales, star_to_dot and accessible_star_to_dot the library
replaced. On the fuzz corpus, under the base flow and every enlargement, the
library must return equal processes and certificates; it must do so on
inputs whose leaves hold equal but distinct tuples, on repeated calls that
hit a memo, and when one measure serves several slot lists or constraint
systems. The same holds for every running sum or product that now goes
through Process._accumulate, checked against its hand-written loop, and the
reconstructed family and the multiplier's N keep one cell per node. Jump
tables, stored on location cells, read back the entries they were
given in order, and a missing entry raises one message on every path.
Predictable processes built from int cells are slice for slice the ones
the Fraction builder, kept as ref.predictable, gives.
"""

import dataclasses
from fractions import Fraction

import integral_reference as ref
import pytest
from check_reference import atom_labelled

from filtration_lab import (
    JumpFunction,
    Process,
    StoppingTime,
    build_tree,
    bracket,
    covariance_kernel,
    doleans_exponential,
    dot_integral,
    enlarge,
    find_deflator,
    jump_measure,
    reconstruct_accessible,
    single_jump_coefficient,
    solve_drift_multiplier,
    star_integral,
)
from filtration_lab.calculus import _compensate
from filtration_lab.constraint import (
    AccessibleSlot,
    ConstraintSystem,
    _normalize_slots,
    _plan_accessible,
    accessible_star_to_dot,
    constraint_martingales,
    detect_fpcc,
    expand_integrand,
    star_to_dot,
    value_slots_from_measure,
)
from filtration_lab.enlargement import _fbd_integrand
from filtration_lab.errors import (
    DimensionMismatch,
    FiltrationLabError,
    IncompleteFunctionTable,
    NoRepresentation,
)
from filtration_lab.fuzz import (
    random_jump_function,
    random_representable,
    random_scenario,
    rng_for,
)
from filtration_lab.linalg import solve
from filtration_lab.rationals import as_fractions, over_common_denominator
from filtration_lab.representation import ReconstructedBasis

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
        assert same_process(constraint_martingales(mu, cs),
                            ref.constraint_martingales(
                                mu, mu.compensator(filtration), cs))
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


@pytest.mark.parametrize("seed", SEEDS)
def test_jump_tables_read_back_as_given(seed):
    """Both measures of one tree hold one cell per location vector. The
    from_callable and expand_integrand tables list the values their inputs
    give on the compensator's points, in its order; a table rebuilt from
    those entries reads back the same, and every one integrates to the
    reference process under either measure."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    mu, mu_loose = jump_measure(w), jump_measure(unshared(w))
    assert mu.locs == mu_loose.locs
    assert all(as_fractions(*loc) == mu.support[node.id]
               for nodes, locs in zip(tree.nodes_at, mu.locs)
               for node, loc in zip(nodes, locs) if loc is not None)
    assert (len({loc for locs in mu.locs for loc in locs if loc is not None})
            == len(set(mu.support.values())))
    for j, filtration in enumerate(flows(scenario)):
        points = [(t, label, value) for (t, label), dist
                  in mu.compensator(filtration).entries.items() for value in dist]
        rng = rng_for(seed, "tables", str(j))
        drawn = {point: F(rng.randint(-5, 5), rng.randint(1, 3))
                 for point in points}
        by_time_and_value = {(t, value): drawn[(t, label, value)]
                             for t, label, value in points}
        called = {(t, label, value): by_time_and_value[(t, value)]
                  for t, label, value in points}
        cs = detect_fpcc(mu, filtration)
        h = random_predictable(tree, filtration, cs.n, rng)
        expanded = {}
        for t, label, value in points:
            k = cs.slot_of(t, label, value)
            leaf = atom_labelled(filtration, t - 1, label).leaves[0]
            expanded[(t, label, value)] = (h.at(t, leaf)[k]
                                           * cs.slot_weights(t, label)[k])
        tables = [
            (JumpFunction.from_callable(
                mu, filtration, lambda t, v: by_time_and_value[(t, v)]), called),
            (expand_integrand(h, mu, cs), expanded),
            (JumpFunction(filtration, drawn), drawn)]
        for table, given in tables:
            assert list(table.entries.items()) == list(given.items())
            again = JumpFunction(filtration, table.entries)
            assert list(again.entries.items()) == list(given.items())
            expected = ref.star_integral(table, mu, filtration)
            assert same_process(star_integral(table, mu, filtration), expected)
            assert same_process(star_integral(again, mu_loose, filtration),
                                expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_missing_entry_raises_one_message(seed):
    """A table missing one charged entry: value and the star integral,
    under every flow, raise IncompleteFunctionTable with one message."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    mu = jump_measure(scenario.basis_process())
    rng = rng_for(seed, "missing")
    entries = random_jump_function(mu, tree, rng).entries
    if not entries:
        pytest.skip("basis without jumps")
    t, label, location = key = rng.choice(list(entries))
    del entries[key]
    holey = JumpFunction(tree.base_filtration(), entries)
    leaf = atom_labelled(tree.base_filtration(), t - 1, label).leaves[0]
    messages = set()
    for where in (location, list(location)):
        with pytest.raises(IncompleteFunctionTable) as raised:
            holey.value(t, leaf, where)
        messages.add(str(raised.value))
    for filtration in flows(scenario):
        with pytest.raises(IncompleteFunctionTable) as raised:
            star_integral(holey, mu, filtration)
        messages.add(str(raised.value))
    assert messages == {f"no entry at time {t}, atom {label}, location {location}"}


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
    heavy = [dataclasses.replace(slot, weight=F(5, 2)) for slot in plain]
    assert [s.classes for s in plain] == [s.classes for s in heavy]
    light_new = accessible_star_to_dot(g, mu, plain)
    heavy_new = accessible_star_to_dot(g, mu, heavy)
    # the same weights given another way give the same conversion
    ones = [AccessibleSlot(tau=s.tau, classes=s.classes, weight="1")
            for s in plain]
    assert accessible_star_to_dot(g, mu, ones) == light_new
    assert light_new == ref.accessible_star_to_dot(g, mu, plain)
    assert heavy_new == ref.accessible_star_to_dot(g, mu, heavy)
    assert heavy_new.martingales != light_new.martingales
    assert heavy_new.scale != light_new.scale
    assert heavy_new.holds and light_new.holds


@pytest.mark.parametrize("seed", SEEDS)
def test_negative_slot_weights_match_reference(seed, monkeypatch):
    """A negative slot weight flips its sign into the integrand's numerators,
    keeping every denominator handed to Process._predictable positive; the
    conversion still holds."""
    predictable = Process._predictable

    def positive_dens(filtration, dim, cell_of):
        def cell(t, atom):
            den, nums = cell_of(t, atom)
            assert den > 0
            return den, nums
        return predictable(filtration, dim, cell)

    monkeypatch.setattr(Process, "_predictable", staticmethod(positive_dens))
    scenario = random_scenario(seed)
    mu = jump_measure(scenario.basis_process())
    g = random_jump_function(mu, scenario.tree, rng_for(seed, "negative-weights"))
    slots = [dataclasses.replace(slot, weight=F(-3, 2))
             for slot in value_slots_from_measure(mu)]
    conversion = accessible_star_to_dot(g, mu, slots)
    assert conversion.holds
    assert conversion == ref.accessible_star_to_dot(g, mu, slots)


def test_two_constraint_systems_on_one_measure(ter1, w_ter):
    mu = jump_measure(w_ter)
    nu = mu.compensator(ter1)
    first = detect_fpcc(mu)
    reordered = ConstraintSystem(
        first.filtration, first.dim, first.n,
        {key: tuple(reversed(menu)) for key, menu in first.slots.items()})
    results = []
    for cs in (first, reordered, first):
        got = constraint_martingales(mu, cs)
        assert same_process(got, ref.constraint_martingales(mu, nu, cs))
        results.append(got)
    assert results[0] is results[2]
    assert results[0] != results[1]
    g = JumpFunction.component(mu, ter1, 1)
    for cs in (first, reordered):
        h_new, cert_new = star_to_dot(g, mu, cs)
        h_ref, cert_ref = ref.star_to_dot(g, mu, cs)
        assert h_new == h_ref and cert_new == cert_ref and cert_new.holds


# --- running sums and products through Process._accumulate ------------------

def wild(tree, dim, rng, pool=None):
    """Process adapted to no flow: each (time, leaf) cell drawn at random,
    from a small pool of shared tuples when pool is given."""
    def draw():
        return tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(dim))
    shared = [draw() for _ in range(pool)] if pool else None
    return Process(tree, [[rng.choice(shared) if pool else draw()
                           for _ in range(tree.n_leaves)]
                          for _ in range(tree.horizon + 1)], dim=dim)


def error_or(fn, *args):
    """fn(*args), or the type and message of the library error it raised."""
    try:
        return fn(*args)
    except FiltrationLabError as exc:
        return (type(exc), str(exc))


AUDIT_FIELDS = ("time", "atom", "subatoms", "weights", "price_moves",
                "status", "floor", "solution", "separating")


def search_view(search):
    """A deflator search's verdict and every violation and audit row as
    its nine read fields, so int records compare with Fraction ones."""
    def rows(records):
        return [tuple([getattr(r, key) for key in AUDIT_FIELDS]) for r in records]
    return search.feasible, rows(search.violations), rows(search.audit)


def random_time(tree, rng):
    """Predictable time: each time-(t-1) node not yet stopped stops its
    leaves at t with probability 1/2; the rest never stop."""
    values = [tree.horizon + 1] * tree.n_leaves
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t - 1]:
            if values[node.leaf_lo] > tree.horizon and rng.random() < 0.5:
                values[node.leaf_lo:node.leaf_hi] = [t] * len(node.leaves())
    return StoppingTime(tree, values)


def random_slots(tree, rng):
    """One or two slots at random predictable times, each with random
    classes over a random subset of the leaves; classes may overlap, split
    atoms or hold paths their time never reaches."""
    slots = []
    for _ in range(rng.randint(1, 2)):
        count = rng.randint(1, 3)
        classes = [[] for _ in range(count)]
        for leaf in range(tree.n_leaves):
            k = rng.randint(-1, count - 1)
            if k >= 0:
                classes[k].append(leaf)
        if rng.random() < 0.2 and tree.n_leaves:
            classes[-1].append(rng.randrange(tree.n_leaves))
        slots.append(AccessibleSlot(tau=random_time(tree, rng),
                                    classes=tuple(classes),
                                    weight=F(rng.choice([-2, 1, 3]), 2)))
    return slots


@pytest.mark.parametrize("seed", SEEDS)
def test_running_products_match_reference(seed):
    """The Doleans exponential, the deflator product and the fuzz integrand
    on the scenario's processes, unshared copies and wild inputs."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    s = scenario.processes["S"]
    rng = rng_for(seed, "accumulate", "products")
    scalars = w.components() + [s, unshared(s), wild(tree, 1, rng),
                                wild(tree, 1, rng, pool=3)]
    for x in scalars:
        for a in (F(1, 2), F(-3, 4), F(2)):
            assert same_process(doleans_exponential(a, x),
                                ref.doleans_exponential(a, x))
    for filtration in flows(scenario):
        for price in (s, unshared(s), doleans_exponential(F(1, 3), w.component(0)),
                      wild(tree, 1, rng)):
            new = error_or(find_deflator, price, filtration)
            old = error_or(ref.find_deflator, price, filtration)
            if isinstance(old, tuple):
                assert new == old
                continue
            assert search_view(new) == search_view(old)
            if old.feasible:
                assert same_process(new.deflator.process, old.deflator.process)
    new_rng = rng_for(seed, "accumulate", "integrand")
    old_rng = rng_for(seed, "accumulate", "integrand")
    assert same_process(random_representable(w, new_rng),
                        ref.random_representable(w, old_rng))
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("seed", range(10))
def test_deflator_product_over_biased_steps(seed):
    """A 4-ary tree of horizon 2 whose price moves (a, -b, c, -d) straddle
    zero with a nonzero mean in each half {first, last} and {second,
    third}; the larger flow reveals the half one step ahead, so the
    deflator's first factors are away from 1 and the product over both
    steps matters."""
    rng = rng_for(seed, "accumulate", "deflator")
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": None}]
    values = {"r": [F(12)]}
    halves = {}
    for parent in ("r", "r0", "r1", "r2", "r3"):
        a, b = (F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(2))
        c = b + rng.randint(1, 3)
        moves = (a, -b, c, b - a - c)  # each half has a nonzero mean
        for k, move in enumerate(moves):
            child = f"{parent}{k}"
            nodes.append({"id": child, "time": len(parent), "parent": parent,
                          "prob": "1/4"})
            values[child] = [values[parent][0] + move]
        halves[parent] = [[f"{parent}0", f"{parent}3"], [f"{parent}1", f"{parent}2"]]
    tree = build_tree({"horizon": 2, "nodes": nodes})
    price = Process.from_node_values(tree, values, dim=1)

    def cells(parents):
        return [[leaf for child in half for leaf in tree.leaf_ids
                 if leaf.startswith(child)] for p in parents for half in halves[p]]
    ahead = enlarge(tree, {0: cells(["r"]), 1: cells(["r0", "r1", "r2", "r3"])})
    for x in (price, unshared(price)):
        new = find_deflator(x, ahead)
        old = ref.find_deflator(x, ahead)
        assert new.feasible and old.feasible
        assert search_view(new) == search_view(old)
        assert same_process(new.deflator.process, old.deflator.process)
        assert all(v != (1,) for v in new.deflator.process.values[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_compensator_walk_matches_reference(seed):
    """_compensate with moves drawn per atom, and drawn from a small pool of
    shared tuples, under every flow; it takes each move as int numerators
    over a denominator."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "accumulate", "compensate")
    for filtration in flows(scenario):
        for dim in (1, 3):
            pool = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(dim)) for _ in range(2)]
            moves = {}
            for t in range(1, tree.horizon + 1):
                for atom in filtration.atoms(t - 1):
                    moves[(t, atom.label, False)] = tuple(
                        F(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(dim))
                    moves[(t, atom.label, True)] = rng.choice(pool)
            for pooled in (False, True):
                def step(t, atom, pooled=pooled):
                    return moves[(t, atom.label, pooled)]

                def moves_at(t, step=step):
                    cells = [over_common_denominator([step(t, atom)])
                             for atom in filtration.atoms(t - 1)]
                    return [(den, num) for den, (num,) in cells]
                assert same_process(_compensate(filtration, dim, moves_at),
                                    ref._compensate(filtration, dim, step))


@pytest.mark.parametrize("seed", SEEDS)
def test_class_martingales_match_reference(seed):
    """_plan_accessible's Y, scale, class locations and weights, or its
    error with the same message, on the current and the old slot builder
    and on random slots, for shared and unshared measures under every
    flow."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    rng = rng_for(seed, "accumulate", "slots")
    for mu in (jump_measure(w), jump_measure(unshared(w))):
        for filtration in flows(scenario):
            slot_lists = [value_slots_from_measure(mu, filtration),
                          ref.value_slots_from_measure(mu, filtration)]
            slot_lists += [random_slots(tree, rng) for _ in range(4)]
            for slots in slot_lists:
                rows, count = _normalize_slots(tree, slots)
                new = error_or(_plan_accessible, mu, filtration, rows, count)
                old = error_or(ref._plan_accessible, mu, filtration, rows, count)
                if isinstance(old, tuple):
                    assert new == old
                    continue
                assert same_process(new.martingales, old.martingales)
                assert same_process(new.scale, old.scale)
                # the plan keeps location cells and weight ratios; read back
                # as vectors and Fractions, every cell is the reference's
                assert tuple(
                    {label: (tuple(None if loc is None else as_fractions(*loc)
                                   for loc in ids), F(*ratio))
                     for label, (ids, ratio) in cells.items()}
                    for cells in new.cells) == tuple(
                    {atom.label: (locations, weight)
                     for atom, locations, weight in cells}
                    for cells in old.cells)


@pytest.mark.parametrize("seed", SEEDS)
def test_family_and_multiplier_match_reference(seed):
    """The reconstructed family and the multiplier's N, phi and slots, on
    the basis W, its unshared copy and wild inputs, under every flow."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    rng = rng_for(seed, "accumulate", "family")
    for x in (w, unshared(w), wild(tree, w.dim, rng)):
        new = error_or(reconstruct_accessible, x)
        old = error_or(ref.reconstruct_accessible, x)
        if isinstance(old, tuple):
            assert new == old
            continue
        assert same_process(new.process, old.process)
        assert (new.witnesses, new.d) == (old.witnesses, old.d)
    rebuilt = error_or(reconstruct_accessible, w)
    if isinstance(rebuilt, tuple):
        pytest.skip("basis without the representation property")
    width = rebuilt.d + 1
    bases = [rebuilt] + [
        ReconstructedBasis(process=x, witnesses=rebuilt.witnesses, d=rebuilt.d)
        for x in (unshared(rebuilt.process), wild(tree, width, rng, pool=3))]
    for filtration in flows(scenario):
        for basis in bases:
            new = error_or(solve_drift_multiplier, filtration, basis)
            old = error_or(ref.solve_drift_multiplier, filtration, basis)
            if isinstance(old, tuple):
                assert new == old
                continue
            assert same_process(new.n, old.n)
            assert same_process(new.phi, old.phi)
            assert new.holds == old.holds


def one_cell_per_node(x: Process) -> bool:
    tree = x.tree
    return all(
        len({id(x.values[t][i]) for i in node.leaves()}) == 1
        and len({id(vec) for vec in x.values[t]}) == len(tree.nodes_at[t])
        for t in range(tree.horizon + 1) for node in tree.nodes_at[t])


@pytest.mark.parametrize("seed", SEEDS)
def test_family_and_multiplier_share_one_cell_per_node(seed):
    """On a base-adapted basis W, the reconstructed family and N hold one
    cell object per time-t node: the leaves under a node share it."""
    scenario = random_scenario(seed)
    rebuilt = error_or(reconstruct_accessible, scenario.basis_process())
    if isinstance(rebuilt, tuple):
        pytest.skip("basis without the representation property")
    assert one_cell_per_node(rebuilt.process)
    for filtration in flows(scenario):
        assert one_cell_per_node(solve_drift_multiplier(filtration, rebuilt).n)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_certificates_match_reference(seed):
    """The closed-form J and J C give the certificates of the frame-and-
    inverse construction at every witness, under every flow."""
    scenario = random_scenario(seed)
    rebuilt = error_or(reconstruct_accessible, scenario.basis_process())
    if isinstance(rebuilt, tuple):
        pytest.skip("basis without the representation property")
    for filtration in flows(scenario):
        for wit in rebuilt.witnesses:
            new = covariance_kernel(filtration, rebuilt, wit.time, wit.atom)
            old = ref.covariance_kernel(filtration, rebuilt, wit.time, wit.atom)
            assert ref.certificate_fields(new) == ref.certificate_fields(old)


# --- predictable processes from int cells -----------------------------------

def same_slices(a: Process, b: Process) -> bool:
    """Equal processes stored as the same reduced int slices."""
    return (a.dim, a.parts, a.dens, a.nums) == (b.dim, b.parts, b.dens, b.nums)


def fraction_single_jump(xi, r, w):
    """single_jump_coefficient's values as Fraction tuples, built by the
    Fraction builder: the payoff centered on each node of the graph of r,
    solved by linalg.solve against Delta W on its children."""
    tree = w.tree
    values = [F(v) for v in xi]

    def coefficient(t, atom):
        if r.values[atom.leaves[0]] != t:
            return (F(0),) * w.dim
        node = tree.nodes[atom.label]
        mean = sum(tree.leaf_probs[i] * values[i] for i in node.leaves()) / node.prob
        h = solve([list(w.increment(t, child.leaf_lo)) for child in node.children],
                  [values[child.leaf_lo] - mean for child in node.children])
        if h is None:
            raise NoRepresentation("centered payoff outside the basis span")
        return tuple(h)

    return ref.predictable(tree.base_filtration(), w.dim, coefficient)


@pytest.mark.parametrize("seed", SEEDS)
def test_int_cells_match_fraction_builder(seed):
    """single_jump_coefficient on random predictable times, and verify_fbd's
    integrand -1 / Y_{t-1} for the price and each feasible deflator under
    every flow, equal the Fraction builder's processes slice for slice."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    rng = rng_for(seed, "predictable", "single-jump")
    for _ in range(3):
        r = random_time(tree, rng)
        # settled where r reaches: one value per node of its graph
        xi = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(tree.n_leaves)]
        for t in range(1, tree.horizon + 1):
            for node in tree.nodes_at[t]:
                if r.values[node.leaf_lo] == t:
                    for leaf in node.leaves():
                        xi[leaf] = xi[node.leaf_lo]
        got = outcome(single_jump_coefficient, xi, r, w)
        want = outcome(fraction_single_jump, xi, r, w)
        if isinstance(want, type):
            assert got is want
        else:
            assert got == want and same_slices(got, want)
    s = scenario.processes["S"]
    for filtration in flows(scenario):
        search = find_deflator(s, filtration)
        for y in [s] + ([search.deflator.process] if search.feasible else []):
            got = _fbd_integrand(y, filtration)
            want = ref.predictable(filtration, 1, lambda t, atom, y=y: (
                -1 / y.at(t - 1, atom.leaves[0])[0],))
            assert got == want and same_slices(got, want)

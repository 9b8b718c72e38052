"""Computations run on ints and location ids, with no Fraction inside.

Fraction construction is counted through a patched Fraction.__new__ on the
deep-binary benchmark shape (a full binary tree of horizon 7, driver of
dimension 1). The star-to-dot integrand for a drawn g, the h and gh of
accessible_star_to_dot and expand_integrand must build none, and neither
may any other Process._predictable build: those of a full run of the
checks, the representation coefficients and translate_integrand.

On that shape and on fuzz seed 30 (three-way branching, two flows), with
Fraction.__hash__ and Fraction.__eq__ patched too, the rank test, the
compensator scan and the constraint-menu reads must build and hash no
Fraction, and the slot martingales and the slot-event test must compare
none. There jump_measure and detect_fpcc must hash no Fraction, and build
only the dim entries of each location the tree pools for the first time,
and a second solve_drift_multiplier on the same flow and basis must build
no Fraction.

find_deflator under each enlargement of the deep-binary and wide-shallow
shapes and of a feasible flow whose deflator moves at both steps, each
flow built beforehand, and the viability check after it must build none.

On deep-binary, Enlargement.filtration() must build none, and neither may
the partition meets that the reconstruct, drift and multiplier checks make,
the reconstructed family with its witnesses, or the multiplier frame; the
kernel frame builds only the Fraction entries of the certificate it
reports, which the basis keeps. In one pass of the eight checks there, the
drift and multiplier checks, whose report tables are written from int
cells, must build none.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import filtration_lab
from filtration_lab import (
    FilteredTree,
    Process,
    StoppingTime,
    build_tree,
    check_compensator_abs_continuity,
    check_mrp,
    enlarge,
    find_deflator,
    jump_measure,
    representation_coefficient,
    single_jump_coefficient,
    solve_drift_multiplier,
    translate_integrand,
)
from filtration_lab import cli, enlargement
from filtration_lab.cli import (
    CHECKS,
    CheckContext,
    _jump_counter,
    _viability_family,
    run_check,
)
from filtration_lab.constraint import (
    accessible_star_to_dot,
    constraint_martingales,
    detect_fpcc,
    expand_integrand,
    jump_supports_disjoint,
    slot_events_disjoint,
    star_to_dot,
    value_slots_from_measure,
)
from filtration_lab.fuzz import (
    random_increasing,
    random_jump_function,
    random_representable,
    random_scenario,
    rng_for,
)
from filtration_lab.representation import menu_bound
from filtration_lab.scenario import Scenario, load

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def deep_binary(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return shaped_scenario(0, 2, 7, 1, False)


@pytest.fixture
def counted(monkeypatch):
    """counted["all"]: Fractions built so far; counted["predictable"]:
    those built inside each Process._predictable call, in call order."""
    counts = {"all": 0, "predictable": []}
    new = Fraction.__new__
    predictable = Process._predictable

    def counting_new(cls, *args, **kwargs):
        counts["all"] += 1
        return new(cls, *args, **kwargs)

    def counting_predictable(filtration, dim, cell_of):
        before = counts["all"]
        built = predictable(filtration, dim, cell_of)
        counts["predictable"].append(counts["all"] - before)
        return built

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(Process, "_predictable", staticmethod(counting_predictable))
    Fraction(1, 3)
    assert counts["all"] == 1  # the patch sees constructions
    return counts


def test_star_to_dot_integrands_build_no_fraction(deep_binary, counted):
    mu = jump_measure(deep_binary.basis_process())
    cs = detect_fpcc(mu)
    slots = value_slots_from_measure(mu)
    g = random_jump_function(mu, deep_binary.tree, rng_for(0, "star-to-dot", "0"))
    accessible_star_to_dot(g, mu, slots)

    counted["predictable"].clear()
    h, certificate = star_to_dot(g, mu, cs)
    assert counted["predictable"] == [0]

    conversion = accessible_star_to_dot(g, mu, slots)
    assert counted["predictable"] == [0, 0, 0, 0]  # + the plan's scale, h and gh

    before = counted["all"]
    expanded = expand_integrand(h, mu, cs)
    assert counted["all"] == before
    assert certificate.holds and conversion.holds
    assert expanded.entries  # the table is not empty


def test_no_predictable_build_builds_a_fraction(deep_binary, counted):
    """Every check of a run on the deep-binary shape and on the ter1_gb
    fixture, whose price has a deflator so that verify_fbd runs, then the
    representation coefficients and translate_integrand."""
    fixture = load(Path(filtration_lab.__file__).parent / "fixtures" / "ter1_gb.json")
    for scenario in (deep_binary, fixture):
        ctx = CheckContext(scenario, 0, "run")
        statuses = {name: run_check(ctx, name)["status"] for name in CHECKS}
        assert statuses["star-to-dot"] == "pass"
    assert statuses["viability"] == "pass"
    w = deep_binary.basis_process()
    tree = w.tree
    h = representation_coefficient(random_representable(w, rng_for(0, "boundary")), w)
    payoff = [leaf % 3 for leaf in range(tree.n_leaves)]
    single_jump_coefficient(payoff, StoppingTime.constant(tree, tree.horizon), w)
    translate_integrand(h, w)
    assert len(counted["predictable"]) > 20 and not any(counted["predictable"])


@pytest.fixture
def fraction_ops(monkeypatch):
    """Running counts of Fraction constructions, hashes and == calls."""
    counts = dict.fromkeys(("new", "hash", "eq"), 0)
    new, hash_, eq = Fraction.__new__, Fraction.__hash__, Fraction.__eq__

    def counting_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counting_hash(self):
        counts["hash"] += 1
        return hash_(self)

    def counting_eq(self, other):
        counts["eq"] += 1
        return eq(self, other)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    third = Fraction(1, 3)
    assert hash(third) and third == Fraction(2, 6)
    assert all(counts.values())  # the patches see each operation
    return counts


@pytest.mark.parametrize("shape", ["deep-binary", "seed-30"])
def test_rank_scan_and_menus_use_no_fraction(shape, request, fraction_ops):
    """Each call is counted on its second run: the first builds the
    partition meets the tree keeps, whose atoms carry a Fraction
    probability. The slot martingales are counted on a fresh constraint
    system, since each system keeps its own."""
    scenario = (request.getfixturevalue("deep_binary") if shape == "deep-binary"
                else random_scenario(30))
    ctx = CheckContext(scenario, 0, "run")
    tree, w, mu, cs = ctx.tree, ctx.basis(), ctx.measure, ctx.constraint
    flows = [flow for _, flow in sorted(scenario.enlargements.items())]
    scanned = [_jump_counter(ctx)] + [
        random_increasing(tree, rng_for(0, "consistency", name))
        for name in sorted(scenario.enlargements)]
    slot_martingales = constraint_martingales(mu, cs)
    calls = {
        "check_mrp": (check_mrp, w),
        **{f"scan {k} under {j}": (check_compensator_abs_continuity, a, flow)
           for k, a in enumerate(scanned) for j, flow in enumerate(flows)},
        "slot_events_disjoint": (slot_events_disjoint, mu, cs),
        "menu_bound": (menu_bound, cs, w.dim),
        "value_slots_from_measure": (value_slots_from_measure, mu),
        "jump_supports_disjoint": (jump_supports_disjoint, slot_martingales),
    }
    for fn, *args in calls.values():
        fn(*args)
    fresh = detect_fpcc(mu)
    calls["constraint_martingales"] = (constraint_martingales, mu, fresh)

    used = {}
    for name, (fn, *args) in calls.items():
        before = dict(fraction_ops)
        fn(*args)
        used[name] = {op: fraction_ops[op] - before[op] for op in before}
    assert fresh._martingales  # built under the count, not read back
    assert {name: (ops["new"], ops["hash"]) for name, ops in used.items()} == {
        name: (0, 0) for name in calls}
    assert used["constraint_martingales"]["eq"] == 0
    assert used["slot_events_disjoint"]["eq"] == 0


@pytest.mark.parametrize("shape", ["deep-binary", "seed-30"])
def test_measure_and_menus_pool_int_cells(shape, request, fraction_ops):
    scenario = (request.getfixturevalue("deep_binary") if shape == "deep-binary"
                else random_scenario(30))
    w = scenario.basis_process()
    tree = w.tree
    before, pooled = dict(fraction_ops), len(tree.locations)
    cs = detect_fpcc(jump_measure(w))
    fresh = len(tree.locations) - pooled
    assert fresh and cs.n  # locations were pooled and listed in menus
    assert fraction_ops["hash"] == before["hash"]
    assert fraction_ops["new"] - before["new"] <= w.dim * fresh


@pytest.mark.parametrize("shape", ["deep-binary", "seed-30"])
def test_repeated_multiplier_solve_builds_no_fraction(shape, request, counted):
    """The first solve builds the basis side and the partition meets the
    tree keeps; the second reads them and builds phi from int cells."""
    scenario = (request.getfixturevalue("deep_binary") if shape == "deep-binary"
                else random_scenario(30))
    rebuilt = CheckContext(scenario, 0, "run").reconstructed
    built = {}
    for name, flow in sorted(scenario.enlargements.items()):
        solve_drift_multiplier(flow, rebuilt)
        before = counted["all"]
        solve_drift_multiplier(flow, rebuilt)
        built[name] = counted["all"] - before
    assert built and built == dict.fromkeys(built, 0)


@pytest.fixture
def wide_shallow(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return shaped_scenario(0, 5, 3, 4, True)


def biased_steps():
    """A feasible flow whose deflator moves at both steps: a 4-ary tree of
    horizon 2 with price moves (1, -1, 2, -2) below every node, under a
    flow that tells one step ahead whether the next move is in {first,
    last} or {second, third}, halves of nonzero mean."""
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": None}]
    values = {"r": [12]}
    for parent in ("r", "r0", "r1", "r2", "r3"):
        for k, move in enumerate((1, -1, 2, -2)):
            nodes.append({"id": f"{parent}{k}", "time": len(parent),
                          "parent": parent, "prob": "1/4"})
            values[f"{parent}{k}"] = [values[parent][0] + move]
    tree = build_tree({"horizon": 2, "nodes": nodes})
    price = Process.from_node_values(tree, values, dim=1)

    def halves(parents):
        return [[leaf for leaf in tree.leaf_ids if leaf[:len(p) + 1] in
                 (p + a, p + b)] for p in parents for a, b in ("03", "12")]
    ahead = enlarge(tree, {0: halves(["r"]), 1: halves(["r0", "r1", "r2", "r3"])})
    return Scenario(tree, enlargements={"G": ahead}, processes={"S": price},
                    viability_family=("S",))


@pytest.mark.parametrize("shape", ["deep-binary", "wide-shallow", "biased-steps"])
def test_deflator_search_builds_no_fraction(shape, request, counted):
    """find_deflator on every enlargement of the scenario, its flow built
    beforehand, then the viability check, which on the biased steps also
    verifies the deflator found."""
    scenario = (biased_steps() if shape == "biased-steps"
                else request.getfixturevalue(shape.replace("-", "_")))
    ctx = CheckContext(scenario, 0, "run")
    family = _viability_family(scenario)
    flows = {name: enlargement.filtration()
             for name, enlargement in sorted(scenario.enlargements.items())}
    before = counted["all"]
    searches = {name: [find_deflator(price, flow) for _, price in family]
                for name, flow in flows.items()}
    assert counted["all"] == before
    outcome = run_check(ctx, "viability")
    assert counted["all"] == before
    feasible = [s.feasible for rows in searches.values() for s in rows]
    if shape == "biased-steps":
        assert feasible == [True] and outcome["status"] == "pass"
        y = searches["G"][0].deflator.process
        assert {y.dens[t] for t in (1, 2)} != {1}  # both steps move
    else:
        assert not any(feasible) and len(searches) == (2 if shape == "wide-shallow" else 1)


def test_flows_witnesses_and_frames_build_no_fraction(deep_binary, counted,
                                                      monkeypatch):
    """Each call counted from inside, on a fresh context: the flow, then
    the reconstruct, drift, multiplier and kernel checks in turn."""
    inside, certificates = {}, []

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args):
            before = counted["all"]
            out = fn(*args)
            inside[name] = inside.get(name, 0) + counted["all"] - before
            if name == "_kernel_frame":
                certificates.append(out)
            return out
        monkeypatch.setattr(owner, name, counting)

    count(FilteredTree, "meet")
    count(cli, "_reconstruct")
    count(enlargement, "_multiplier_frame")
    count(enlargement, "_kernel_frame")
    ctx = CheckContext(deep_binary, 0, "run")
    before = counted["all"]
    (flow,) = [e.filtration() for e in deep_binary.enlargements.values()]
    assert counted["all"] == before and len(flow.atoms(deep_binary.tree.horizon)) > 1
    meets = len(ctx.tree._meets)
    statuses = [run_check(ctx, name)["status"]
                for name in ("reconstruct", "drift", "multiplier", "kernel")]
    assert statuses == ["pass"] * 4
    assert len(ctx.tree._meets) > meets  # the checks met new partitions
    entries = sum(len(row) for certificate in certificates
                  for rows in (certificate.matrix, certificate.j,
                               certificate.claimed_basis, certificate.kernel_basis)
                  for row in rows)
    assert certificates and inside == {
        "meet": 0, "_reconstruct": 0, "_multiplier_frame": 0,
        "_kernel_frame": entries}


def test_drift_and_multiplier_checks_build_no_fraction(deep_binary, counted):
    """One pass of the eight checks in registry order on a fresh context,
    each counted on its own, as CI's size figures count them."""
    ctx = CheckContext(deep_binary, 0, "run")
    built, statuses = {}, {}
    for name in CHECKS:
        before = counted["all"]
        statuses[name] = run_check(ctx, name)["status"]
        built[name] = counted["all"] - before
    assert statuses["drift"] == statuses["multiplier"] == "pass"
    assert built["drift"] == 0 and built["multiplier"] == 0
    assert built["kernel"]  # the count sees the certificates the kernel reports

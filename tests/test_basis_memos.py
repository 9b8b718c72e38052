"""What the enlargement checks derive from the reconstructed basis alone is
built once per basis, each kernel frame once per (time, one-step law), and
each representation reduction once per (process, child-increment matrix):
the memos are shared where they should be, agree with the per-call paths
they replaced, and die with their basis."""

import dataclasses
import gc
import weakref
from fractions import Fraction as F

import integral_reference as ref
import pytest
from draws import random_martingale

from filtration_lab import (
    Process,
    covariance_kernel,
    random_tree,
    reconstruct_accessible,
    representation_coefficient,
    solve_drift_multiplier,
)
from filtration_lab import enlargement, representation
from filtration_lab.errors import DegeneratePartition, NoRepresentation
from filtration_lab.fuzz import (
    random_representable,
    random_scenario,
    rng_for,
    undersized_basis,
    widest_branching,
)
from filtration_lab.linalg import solve

SEEDS = range(50)


def two_flow_scenarios():
    for seed in SEEDS:
        scenario = random_scenario(seed)
        if len(scenario.enlargements) == 2:
            yield seed, scenario


def walk_coefficient(x, w):
    """representation_coefficient as it was: one linalg.solve per node on
    Fraction increments."""
    tree = w.tree

    def coefficient(t, atom):
        children = tree.nodes[atom.label].children
        rhs = [x.increment(t, child.leaf_lo)[0] for child in children]
        h = solve([list(w.increment(t, child.leaf_lo)) for child in children],
                  rhs)
        if h is None:
            raise NoRepresentation("target increment outside the basis span",
                                   time=t, atom=atom.label, witness=tuple(rhs))
        return tuple(h)

    return ref.predictable(tree.base_filtration(), w.dim, coefficient)


def error_fields(fn, *args):
    try:
        fn(*args)
    except NoRepresentation as exc:
        return str(exc), exc.time, exc.atom, exc.witness
    return None


def test_basis_side_is_shared_across_flows():
    found = 0
    for seed, scenario in two_flow_scenarios():
        found += 1
        rebuilt = reconstruct_accessible(scenario.basis_process())
        flows = [scenario.enlargements[name]
                 for name in sorted(scenario.enlargements)]
        solutions = [solve_drift_multiplier(g, rebuilt) for g in flows]
        assert solutions[0].n is solutions[1].n
        for g, solution in zip(flows, solutions):
            # a fresh basis rebuilds every memo; the answers must agree
            fresh = solve_drift_multiplier(g, dataclasses.replace(rebuilt))
            assert solution.n == fresh.n and solution.phi == fresh.phi
            assert solution.holds == fresh.holds
        for wit in rebuilt.witnesses:
            first, second = (covariance_kernel(g, rebuilt, wit.time, wit.atom)
                             for g in flows)
            assert first.c_ints is second.c_ints
            assert first.j_ints is second.j_ints
            assert first.kernel_ints is second.kernel_ints
            assert first.claimed_ints is second.claimed_ints
            fresh = covariance_kernel(flows[1], dataclasses.replace(rebuilt),
                                      wit.time, wit.atom)
            assert second == fresh
    assert found >= 10


def test_basis_side_work_runs_once(monkeypatch):
    calls = {"frame": 0, "null_space": 0, "reduce": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(enlargement, "_multiplier_frame",
                        counted("frame", enlargement._multiplier_frame))
    monkeypatch.setattr(enlargement, "_int_null_space",
                        counted("null_space", enlargement._int_null_space))
    monkeypatch.setattr(
        representation, "_eliminate_with_identity",
        counted("reduce", representation._eliminate_with_identity))
    seed, scenario = next(two_flow_scenarios())
    w = scenario.basis_process()
    rebuilt = reconstruct_accessible(w)
    tree = w.tree
    for name, g in sorted(scenario.enlargements.items()):
        solution = solve_drift_multiplier(g, rebuilt)
        for j in range(3):
            x = random_representable(w, rng_for(seed, "memo", name, str(j)))
            assert enlargement.verify_drift_multiplier(solution, x, g)
        for wit in rebuilt.witnesses:
            covariance_kernel(g, rebuilt, wit.time, wit.atom)
    # one kernel frame per time and one-step law, the probabilities in
    # lowest terms; one reduction per distinct child-increment matrix
    laws = {(wit.time, wit.probs) for wit in rebuilt.witnesses}
    x2 = rebuilt.process
    matrices = set()
    for t in range(1, tree.horizon + 1):
        part, _, incs = x2._delta(t)
        matrices.update(
            tuple(incs[part.block_of[child.leaf_lo]] for child in node.children)
            for node in tree.nodes_at[t - 1])
    assert calls == {"frame": 1, "null_space": len(laws),
                     "reduce": len(matrices)}


def test_missing_slot_names_time_and_atom():
    seed, scenario = next(two_flow_scenarios())
    rebuilt = reconstruct_accessible(scenario.basis_process())
    g = scenario.enlargements["G0"]
    with pytest.raises(DegeneratePartition, match="no slot at time 9, atom r$"):
        covariance_kernel(g, rebuilt, 9, "r")


@pytest.mark.parametrize("seed", SEEDS)
def test_coefficient_matches_solve_walk(seed):
    scenario = random_scenario(seed)
    w = scenario.basis_process()
    x2 = reconstruct_accessible(w).process
    for basis in (w, x2):
        rng = rng_for(seed, "memo", "coefficient")
        targets = [random_representable(basis, rng), scenario.processes["S"]]
        if basis is x2:
            targets += w.components()
        for x in targets:
            # twice: the second call reads the kept reductions
            for _ in range(2):
                assert representation_coefficient(x, basis) == \
                    walk_coefficient(x, basis)


def test_outside_the_span_raises_as_the_walk_does():
    found = 0
    for seed in SEEDS:
        tree = random_tree(seed, horizon=2, max_branching=4)
        if widest_branching(tree) < 3:
            continue
        w = undersized_basis(tree, rng_for(seed, "under"))
        x = random_martingale(tree, rng_for(seed, "memo", "outside"))
        new = error_fields(representation_coefficient, x, w)
        assert new == error_fields(walk_coefficient, x, w)
        found += new is not None
    assert found >= 10


def test_multiplier_check_raises_as_the_coefficient_does(two_step):
    """verify_drift_multiplier runs only the span test, and an x outside a
    hand-built basis's span fails it with the coefficient's error."""
    w = Process.from_node_values(two_step, {
        "r": 0, "u": 1, "d": -1, "uu": 2, "ud": 0, "du": 0, "dm": -1, "dd": -2})
    x = Process.from_node_values(two_step, {
        "r": 0, "u": 0, "d": 0, "uu": 0, "ud": 0, "du": 1, "dm": -1, "dd": 0})
    zero = Process.zero(two_step, 1)
    solution = enlargement.MultiplierSolution(
        n=zero, phi=zero, holds=True,
        basis=representation.ReconstructedBasis(process=w, witnesses=(), d=1))
    new = error_fields(enlargement.verify_drift_multiplier, solution, x,
                       two_step)
    assert new[1:] == (2, "d", (F(1), F(-1), F(0)))
    assert new == error_fields(representation_coefficient, x, w)
    assert new == error_fields(walk_coefficient, x, w)


def test_memos_die_with_the_basis():
    seed, scenario = next(two_flow_scenarios())
    w = scenario.basis_process()
    rebuilt = reconstruct_accessible(w)
    for name, g in sorted(scenario.enlargements.items()):
        solution = solve_drift_multiplier(g, rebuilt)
        x = random_representable(w, rng_for(seed, "memo", name))
        assert enlargement.verify_drift_multiplier(solution, x, g)
        for wit in rebuilt.witnesses:
            covariance_kernel(g, rebuilt, wit.time, wit.atom)
    assert rebuilt._memos
    ref = weakref.ref(rebuilt)
    del rebuilt, solution
    gc.collect()
    assert ref() is None

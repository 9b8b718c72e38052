"""The per-atom multiplier identity against the Process-level one it replaced.

enlargement._multiplier_holds tests drift(X) = phi . [N, X]^p one
conditioning atom at a time, on int numerators, from the bracket steps of
_bracket_steps. integral_reference keeps the old route, which builds the
drift and the integral as whole processes and compares them, one scalar
component at a time. On the fuzz corpus, under the base flow, every
enlargement and one extra enlargement, both routes must give the same
verdict on the stacked basis, each of its components, representable draws,
outside input and a stacked input broken in its last component only, and
on three faults: phi scaled by 2, phi moved at one
(time, atom), and steps built from a wrong N. Every fault must read False.

verify_drift_multiplier builds no process for the identity and tests its
basis as a martingale once per basis; the target's tests still run, and
still raise, on every call.
"""

from dataclasses import replace

import integral_reference as ref
import pytest

from filtration_lab import Process, reconstruct_accessible, solve_drift_multiplier
from filtration_lab.enlargement import (
    MultiplierSolution,
    _bracket_steps,
    _multiplier_holds,
    verify_drift_multiplier,
)
from filtration_lab.errors import (
    DimensionMismatch,
    NoRepresentation,
    NotAMartingale,
    NotPredictable,
)
from filtration_lab.fuzz import (
    random_enlargement,
    random_representable,
    random_scenario,
    rng_for,
)
from filtration_lab.representation import ReconstructedBasis
from test_int_slices import wild

SEEDS = range(50)


def flows(scenario):
    """Base, every enlargement in name order, and one more enlargement."""
    tree = scenario.tree
    yield tree.base_filtration()
    for _, enlargement in sorted(scenario.enlargements.items()):
        yield enlargement.filtration()
    yield random_enlargement(tree, rng_for(scenario.seed, "multiplier-identity"),
                             name="H").filtration()


def per_atom(phi, n, x, filtration):
    return _multiplier_holds(phi, _bracket_steps(n, x), x, filtration)


def whole_process(phi, n, x, filtration):
    """The old route, component by component."""
    return all(ref.multiplier_identity(phi, ref.n_brackets(n, c), c, filtration)
               for c in x.components())


def moved(phi, t, k, j):
    """phi with 1 added to component j on block k at time t; the slice
    stays reduced, since gcd(den, num + den) = gcd(den, num)."""
    nums = list(phi.nums[t])
    nums[k] = tuple(c + phi.dens[t] * (i == j) for i, c in enumerate(nums[k]))
    slices = list(zip(phi.parts, phi.dens, phi.nums))
    slices[t] = (phi.parts[t], phi.dens[t], tuple(nums))
    return Process._make(phi.tree, slices, phi.dim)


def visible_move(phi, steps, filtration):
    """(t, block of phi, component j) where moving phi_j shows in the
    identity: the node's bracket increments against N_j are not all 0."""
    nodes = phi.tree.base_filtration().parts
    for t in range(1, len(steps)):
        subs = filtration.parts[t - 1]
        for sub, k in zip(subs.atoms, subs.index_in(nodes[t - 1])):
            rows = steps[t][k][1]
            for j in range(phi.dim):
                if any(row[j] for row in rows):
                    return t, phi.parts[t].block_of[sub.leaves[0]], j
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_per_atom_identity_matches_whole_processes(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    try:
        rebuilt = reconstruct_accessible(w)
    except NoRepresentation:
        pytest.skip("driver without the representation property")
    x2 = rebuilt.process
    rng = rng_for(seed, "multiplier-identity")
    scalars = x2.components() + [
        random_representable(w, rng), random_representable(x2, rng),
        wild(tree, 1, rng)]
    # a stacked input whose last component alone breaks the identity
    mixed = Process.stack([x2.component(0), scalars[-1]])
    for filtration in flows(scenario):
        solution = solve_drift_multiplier(filtration, rebuilt)
        phi, n = solution.phi, solution.n
        assert solution.holds
        assert per_atom(phi, n, x2, filtration)
        assert whole_process(phi, n, x2, filtration)
        assert per_atom(phi, n, mixed, filtration) == \
            whole_process(phi, n, mixed, filtration)
        for x in scalars:
            assert per_atom(phi, n, x, filtration) == \
                ref.multiplier_identity(phi, ref.n_brackets(n, x), x, filtration)
        bad = []
        spot = visible_move(phi, _bracket_steps(n, x2), filtration)
        if spot is not None:
            bad.append((moved(phi, *spot), n))
        if any(any(cell) for cells in phi.nums for cell in cells):
            # with phi = 0 there is no drift, and doubling changes nothing
            bad += [(phi.scale(2), n), (phi, n.scale(2))]
        for wrong_phi, wrong_n in bad:
            assert not per_atom(wrong_phi, wrong_n, x2, filtration)
            assert not whole_process(wrong_phi, wrong_n, x2, filtration)


def test_every_fault_kind_occurs():
    """The corpus moves phi visibly and has flows with a nonzero phi; a
    tree whose every node has one child has neither."""
    kinds = {"moved": 0, "doubled": 0}
    for seed in SEEDS:
        scenario = random_scenario(seed)
        rebuilt = reconstruct_accessible(scenario.basis_process())
        for filtration in flows(scenario):
            solution = solve_drift_multiplier(filtration, rebuilt)
            steps = _bracket_steps(solution.n, rebuilt.process)
            kinds["moved"] += visible_move(solution.phi, steps, filtration) is not None
            kinds["doubled"] += any(any(cell) for cells in solution.phi.nums
                                    for cell in cells)
    assert kinds["moved"] >= 50 and kinds["doubled"] >= 50


def counting(monkeypatch, name):
    """Count calls of the Process method name, with their first argument."""
    calls = []
    original = getattr(Process, name)
    if name == "_accumulate":
        def wrapper(cls, *args, **kwargs):
            calls.append(cls)
            return original(*args, **kwargs)
        monkeypatch.setattr(Process, name, classmethod(wrapper))
    else:
        def wrapper(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Process, name, wrapper)
    return calls


def test_identity_builds_no_process(monkeypatch):
    found = 0
    for seed in range(10):
        scenario = random_scenario(seed)
        w = scenario.basis_process()
        rebuilt = reconstruct_accessible(w)
        flows_ = list(flows(scenario))
        solutions = [solve_drift_multiplier(g, rebuilt) for g in flows_]
        xs = [random_representable(w, rng_for(seed, "no-process", str(j)))
              for j in range(3)] + rebuilt.process.components()
        calls = counting(monkeypatch, "_accumulate")
        for g, solution in zip(flows_, solutions):
            again = solve_drift_multiplier(g, rebuilt)
            assert again.holds and again.n is solution.n
            for x in xs:
                assert verify_drift_multiplier(solution, x, g)
                found += 1
        assert calls == []
        monkeypatch.undo()
    assert found > 0


def test_basis_martingale_test_runs_once_per_basis(monkeypatch):
    scenario = random_scenario(1)
    w = scenario.basis_process()
    rebuilt = reconstruct_accessible(w)
    g = scenario.enlargements["G0"]
    solution = solve_drift_multiplier(g, rebuilt)
    xs = [random_representable(w, rng_for(1, "once", str(j))) for j in range(4)]
    calls = counting(monkeypatch, "is_martingale")
    for x in xs:
        assert verify_drift_multiplier(solution, x, g)
    assert sum(c is rebuilt.process for c in calls) == 1
    # the target's own martingale test runs on every call
    assert sum(c is x for x in xs for c in calls) == len(xs)


def drifting(tree):
    """X_t = t on every path: adapted, not a martingale."""
    return Process.from_node_values(
        tree, {node.id: node.time for node in tree.nodes.values()}, dim=1)


def test_target_and_basis_still_raise(two_step):
    scenario = random_scenario(1)
    w = scenario.basis_process()
    rebuilt = reconstruct_accessible(w)
    g = scenario.enlargements["G0"]
    solution = solve_drift_multiplier(g, rebuilt)
    assert verify_drift_multiplier(
        solution, random_representable(w, rng_for(1, "raise")), g)
    # with the basis test kept, a non-martingale target still raises
    for _ in range(2):
        with pytest.raises(NotAMartingale, match="target"):
            verify_drift_multiplier(solution, drifting(scenario.tree), g)
    # phi is read one cell per atom, so it must be predictable and as wide as N
    x = random_representable(w, rng_for(1, "raise"))
    with pytest.raises(NotPredictable):
        verify_drift_multiplier(replace(solution, phi=solution.n), x, scenario.tree)
    with pytest.raises(DimensionMismatch):
        verify_drift_multiplier(
            replace(solution, phi=Process.zero(scenario.tree, rebuilt.d + 1)), x, g)

    w = Process.from_node_values(two_step, {
        "r": 0, "u": 1, "d": -1, "uu": 2, "ud": 0, "du": 0, "dm": -1, "dd": -2})
    outside = Process.from_node_values(two_step, {
        "r": 0, "u": 0, "d": 0, "uu": 0, "ud": 0, "du": 1, "dm": -1, "dd": 0})
    zero = Process.zero(two_step, 1)

    def hand_built(process):
        basis = ReconstructedBasis(process=process, witnesses=(), d=1)
        return basis, MultiplierSolution(n=zero, phi=zero, holds=True,
                                         basis=basis)

    # a non-martingale basis raises on every call: a failed test is not kept
    basis, solution = hand_built(w + drifting(two_step))
    for _ in range(2):
        with pytest.raises(NotAMartingale, match="basis"):
            verify_drift_multiplier(solution, w, two_step)
    assert "martingale" not in basis._memos
    # outside the span of a one-dimensional basis, every call raises
    basis, solution = hand_built(w)
    for _ in range(2):
        with pytest.raises(NoRepresentation, match="outside the basis span"):
            verify_drift_multiplier(solution, outside, two_step)
    assert "martingale" in basis._memos

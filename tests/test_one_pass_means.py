"""The one-pass conditional means against the per-atom route they replaced.

tree._means reads the atom index of the atoms' partition once per slice and
weighs every atom inline; Process.is_martingale, enlargement._bracket_steps
and enlargement._multiplier_holds take their sums from it. check_reference
keeps the route that called Partition.pieces and _weigh once per atom. On
random_scenario seeds 0-49 and four full-tree shapes, under the base flow
and every enlargement, both routes must give the same cells for every
increment slice and terminal slice of the driver, its components, the
reconstructed family, the jump counter, the clock t and the drifts with
their martingale parts; the same martingale verdicts, False for the clock,
the jump counter wherever it moves and every drift that moves under its
own flow; and the same multiplier verdicts for the family
and two representable draws, True for the solved phi and, for phi doubled,
False exactly where the draw has a drift under the flow.
"""

from pathlib import Path

import check_reference as ref
import pytest

from filtration_lab import Process, drift_operator, solve_drift_multiplier
from filtration_lab.cli import CheckContext, _jump_counter
from filtration_lab.enlargement import _bracket_steps, _multiplier_holds
from filtration_lab.fuzz import random_representable, random_scenario, rng_for
from filtration_lab.tree import _means

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(50)
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 10, 1, False), (3, 5, 2, False)]
CASES = [("seed", seed) for seed in SEEDS] + [("shape", shape) for shape in SHAPES]
NULL = "null"


def context(case, monkeypatch) -> CheckContext:
    kind, value = case
    if kind == "seed":
        return CheckContext(random_scenario(value), value, "run")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return CheckContext(shaped_scenario(0, *value), 0, "run")


def flows(ctx):
    """The base flow, then every enlargement's in name order."""
    return [ctx.tree.base_filtration()] + [
        e.filtration() for _, e in sorted(ctx.scenario.enlargements.items())]


def processes(ctx):
    """(name, process, expected) for the driver, its components, the
    reconstructed family, the jump counter, the clock t (adapted to every
    flow, never a martingale), and each component's drift and martingale
    part under every enlargement. expected maps the index in flows(ctx) of
    a flow to the process's verdict there: True, or NULL where it is a
    martingale exactly when it is null (an increasing process, or one
    predictable for the flow)."""
    w = ctx.basis()
    base = {0: True}
    out = [("W", w, base), ("X2", ctx.reconstructed.process, base)] + [
        (f"W{i}", c, base) for i, c in enumerate(w.components())]
    everywhere = dict.fromkeys(range(len(flows(ctx))), NULL)
    clock = Process.from_node_values(ctx.tree, {
        node.id: [node.time] for node in ctx.tree.nodes.values()})
    out += [("counter", _jump_counter(ctx), everywhere), ("clock", clock, everywhere)]
    for k, (name, enlargement) in enumerate(sorted(ctx.scenario.enlargements.items()), 1):
        for i, c in enumerate(w.components()):
            result = drift_operator(c, enlargement)
            out += [(f"drift {name} W{i}", result.drift, {k: NULL}),
                    (f"rest {name} W{i}", result.g_martingale, {k: True})]
    return out


@pytest.mark.parametrize("case", CASES, ids=str)
def test_means_match_per_atom_route(case, monkeypatch):
    ctx = context(case, monkeypatch)
    horizon = ctx.tree.horizon
    for _, x, _ in processes(ctx):
        for flow in flows(ctx):
            for t in range(1, horizon + 1):
                atoms = flow.parts[t - 1].atoms
                assert _means(atoms, *x._delta(t)) == ref.means_by_atom(
                    atoms, *x._delta(t))
                atoms = flow.parts[t].atoms
                assert _means(atoms, *x._row(horizon)) == ref.means_by_atom(
                    atoms, *x._row(horizon))


@pytest.mark.parametrize("case", CASES, ids=str)
def test_martingale_verdicts_match_per_atom_route(case, monkeypatch):
    ctx = context(case, monkeypatch)
    verdicts = []
    for name, x, expected in processes(ctx):
        null = not any(any(cell) for nums in x.nums for cell in nums)
        for k, flow in enumerate(flows(ctx)):
            one_pass = x.is_martingale(flow)
            assert one_pass == ref.is_martingale_by_atom(x, flow), (name, k)
            want = expected.get(k, one_pass)
            assert one_pass == (null if want is NULL else want), (name, k)
            verdicts.append(one_pass)
    assert not all(verdicts)  # the clock is never a martingale


@pytest.mark.parametrize("case", CASES, ids=str)
def test_multiplier_verdicts_match_per_atom_route(case, monkeypatch):
    ctx = context(case, monkeypatch)
    rebuilt = ctx.reconstructed
    w = ctx.basis()
    draws = [rebuilt.process] + [
        random_representable(w, rng_for(ctx.seed, "one-pass-means", str(j)))
        for j in range(2)]
    for flow in flows(ctx):
        solution = solve_drift_multiplier(flow, rebuilt)
        phi, doubled = solution.phi, solution.phi.scale(2)
        assert solution.holds
        for x in draws:
            steps = _bracket_steps(solution.n, x)
            assert steps == ref.bracket_steps_by_atom(solution.n, x)
            assert _multiplier_holds(phi, steps, x, flow)
            assert ref.multiplier_holds_by_atom(phi, steps, x, flow)
            # drift = 2 drift only where the drift is null
            expected = x.is_martingale(flow)
            assert _multiplier_holds(doubled, steps, x, flow) is expected
            assert ref.multiplier_holds_by_atom(doubled, steps, x, flow) is expected


def test_doubled_phi_fails_somewhere(monkeypatch):
    """The corpus reaches the failing branch of both routes."""
    ctx = context(("shape", SHAPES[0]), monkeypatch)
    rebuilt = ctx.reconstructed
    (flow,) = flows(ctx)[1:]
    solution = solve_drift_multiplier(flow, rebuilt)
    steps = _bracket_steps(solution.n, rebuilt.process)
    doubled = solution.phi.scale(2)
    assert not _multiplier_holds(doubled, steps, rebuilt.process, flow)
    assert not ref.multiplier_holds_by_atom(doubled, steps, rebuilt.process, flow)

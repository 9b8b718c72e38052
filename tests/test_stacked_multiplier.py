"""The multiplier check's stacked pass against its per-sample loop.

The check draws its three sample integrands from the same rng_for(seed,
"multiplier", name, j) streams as before, each in time order, then node
order, integrates them against the basis as one dim-3 block integral, and
verifies that stack once: one martingale test, one span test per node and
component over the node's null rows, one predictability test of phi, one
bracket pass and one identity pass. check_reference.multiplier_samples
keeps the loop that drew and verified one sample at a time.

Each component of the stack must be the single draw, slice for slice, and
the stacked verdict must be the loop's on random_scenario seeds 0-49 and
the three fixtures, under the solved phi and under phi doubled. A doubled
phi fails a sample only where the sample has a drift, so on some flows it
fails some of the three samples and not the others, which a component
leaking into another would upset. A component outside the basis span
still raises NoRepresentation, with the error the scalar check gives,
while verify_drift_multiplier and representation_coefficient still refuse
a target of more than one component.
"""

import dataclasses
from fractions import Fraction as F
from pathlib import Path

import check_reference as ref
import pytest

from filtration_lab import Process, cli, enlargement, representation
from filtration_lab.cli import CheckContext, run_check
from filtration_lab.enlargement import (
    _verify_multiplier_stack,
    solve_drift_multiplier,
    verify_drift_multiplier,
)
from filtration_lab.errors import DimensionMismatch, NoRepresentation
from filtration_lab.fuzz import (
    _random_representables,
    random_representable,
    random_scenario,
    rng_for,
)
from filtration_lab.scenario import load

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "fixtures"
SEEDS = range(50)


def contexts():
    """(label, context) for seeds 0-49 and the fixtures whose basis has the
    representation property, which the multiplier check needs."""
    found = [(f"seed {seed}", CheckContext(random_scenario(seed), seed, "run"))
             for seed in SEEDS]
    found += [(path.name, CheckContext(load(path), 0, "run"))
              for path in sorted(FIXTURES.glob("*.json"))]
    return [(label, ctx) for label, ctx in found if ctx.mrp.holds]


def streams(seed, name):
    return [rng_for(seed, "multiplier", name, str(j)) for j in range(3)]


def verdicts(ctx):
    """Per flow and phi (solved, doubled): the stacked verdict and the
    loop's per-sample verdicts."""
    for name, g in sorted(ctx.scenario.enlargements.items()):
        solved = solve_drift_multiplier(g, ctx.reconstructed)
        doubled = dataclasses.replace(solved, phi=solved.phi.scale(2))
        for solution in (solved, doubled):
            stack = _random_representables(ctx.basis(), streams(ctx.seed, name))
            yield (solution is doubled,
                   _verify_multiplier_stack(solution, stack, g),
                   ref.multiplier_samples(solution, ctx.basis(), ctx.seed, name, g))


def slices(x: Process):
    return x.parts, x.dens, x.nums


@pytest.mark.parametrize("seed", SEEDS)
def test_components_are_the_single_draws(seed):
    scenario = random_scenario(seed)
    w = scenario.basis_process()
    for basis in (w, representation.reconstruct_accessible(w).process):
        stacked_rngs, single_rngs = streams(seed, "G0"), streams(seed, "G0")
        stack = _random_representables(basis, stacked_rngs)
        assert stack.dim == 3
        for j, rng in enumerate(single_rngs):
            assert slices(stack.component(j)) == slices(random_representable(basis, rng))
        # each stream is left where its own draw leaves it
        assert [r.random() for r in stacked_rngs] == [r.random() for r in single_rngs]


def test_stacked_verdict_is_the_loops():
    seen = {False: 0, True: 0}
    split = []
    for label, ctx in contexts():
        for doubled, stacked, loop in verdicts(ctx):
            assert stacked == all(loop), (label, doubled, loop)
            seen[doubled] += 1
            if doubled and any(loop) and not all(loop):
                split.append(label)
    assert seen[False] == seen[True] >= 70
    assert split  # some flow fails some samples and not the others


@pytest.mark.parametrize("ctx", [pytest.param(ctx, id=label) for label, ctx in contexts()])
def test_row_matches_the_loop(ctx):
    """The check's row against a row built from the per-sample loop."""
    def body(name, g):
        solution = solve_drift_multiplier(g, ctx.reconstructed)
        good = solution.holds and all(
            ref.multiplier_samples(solution, ctx.basis(), ctx.seed, name, g))
        return good, {"holds": solution.holds, "verified_samples": 3,
                      "phi": cli._phi_table(solution.phi, g.filtration())}

    ok, details = cli._each_enlargement(ctx, body)
    assert run_check(ctx, "multiplier") == {
        "name": "multiplier", "status": "pass" if ok else "fail",
        "details": cli._json_safe(details)}


@pytest.mark.parametrize("bad_at", range(3))
def test_component_outside_the_span_raises(two_step, bad_at):
    """A stack holding one component outside a hand-built basis's span
    fails with the error the scalar check gives on that component."""
    w = Process.from_node_values(two_step, {
        "r": 0, "u": 1, "d": -1, "uu": 2, "ud": 0, "du": 0, "dm": -1, "dd": -2})
    bad = Process.from_node_values(two_step, {
        "r": 0, "u": 0, "d": 0, "uu": 0, "ud": 0, "du": 1, "dm": -1, "dd": 0})
    zero = Process.zero(two_step, 1)
    solution = enlargement.MultiplierSolution(
        n=zero, phi=zero, holds=True,
        basis=representation.ReconstructedBasis(process=w, witnesses=(), d=1))
    parts = [w, w.scale(2), w.scale(-1)]
    parts[bad_at] = bad
    # the public calls still take scalar targets only
    for scalar_only in (lambda x: verify_drift_multiplier(solution, x, two_step),
                        lambda x: representation.representation_coefficient(x, w)):
        with pytest.raises(DimensionMismatch, match="targets are scalar processes"):
            scalar_only(Process.stack(parts))
    with pytest.raises(NoRepresentation) as stacked:
        _verify_multiplier_stack(solution, Process.stack(parts), two_step)
    with pytest.raises(NoRepresentation) as scalar:
        verify_drift_multiplier(solution, bad, two_step)
    fields = [(str(e.value), e.value.time, e.value.atom, e.value.witness)
              for e in (stacked, scalar)]
    assert fields[0] == fields[1]
    assert fields[0][1:] == (2, "d", (F(1), F(-1), F(0)))

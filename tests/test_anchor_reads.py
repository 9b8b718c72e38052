"""Star-to-dot reads of g by anchor label, against the builders they replaced.

star_integral reads g's time-t table at each conditioning atom's anchor
label, resolved once per time: each atom's mean is one int dot of that
table with the compensator law. check_reference keeps the builder that read
g one entry at a time through JumpFunction._numerator; integral_reference
keeps star_to_dot and accessible_star_to_dot as they read g.value per leaf.
On random_scenario seeds 0-49, the same scenarios with their nodes renamed
at random, and the four full-tree benchmark shapes, under the base flow and
under each enlargement, with g anchored on the base and on the flow:

- star_integral matches the old builder slice for slice, partition object,
  denominator and numerators at every t;
- star_to_dot's h, accessible_star_to_dot's h and the gh it integrates
  against Y, and the whole conversion, match the per-leaf references.

One star-to-dot check on the deep-binary shape normalizes its slot list
once, so FilteredTree._leaf_index runs at most 896 times (4,480 when each of
the five samples normalized it), and reads g with no call to
Filtration.conditioning_atom_of or JumpFunction._numerator (2,540 and 7,620
before).
"""

import check_reference as cref
import integral_reference as iref
import pytest
from test_jump_index import SEEDS, SHAPES, flows, relabelled, shaped

from filtration_lab import Process, jump_measure, star_integral
from filtration_lab import constraint
from filtration_lab.calculus import JumpFunction
from filtration_lab.cli import CheckContext, run_check
from filtration_lab.constraint import (
    accessible_star_to_dot,
    detect_fpcc,
    star_to_dot,
    value_slots_from_measure,
)
from filtration_lab.fuzz import random_jump_function, random_scenario, rng_for
from filtration_lab.tree import FilteredTree, Filtration


def same_slices(a: Process, b: Process) -> bool:
    """Equal dims, denominators and numerators on the same partitions."""
    return (a.dim == b.dim and a.dens == b.dens and a.nums == b.nums
            and all(p is q for p, q in zip(a.parts, b.parts)))


def scaled(h: Process, scale: Process) -> Process:
    """h times the one-component scale, leaf by leaf."""
    return Process(h.tree, [
        [tuple(v * s for v in vec) for vec, (s,) in zip(h_row, s_row)]
        for h_row, s_row in zip(h.values, scale.values)], dim=h.dim)


def assert_anchor_reads_match(scenario, seed, monkeypatch):
    integrands = []  # each integrand constraint._dot_blocks is given
    dot_blocks = constraint._dot_blocks
    monkeypatch.setattr(constraint, "_dot_blocks", lambda h, x, flow, width: (
        integrands.append(h), dot_blocks(h, x, flow, width))[1])

    mu = jump_measure(scenario.basis_process())
    base_g = random_jump_function(mu, scenario.tree, rng_for(seed, "anchor-reads"))
    for j, flow in enumerate(flows(scenario)):
        g = random_jump_function(mu, flow, rng_for(seed, "anchor-reads", str(j)))
        cs = detect_fpcc(mu, flow)
        slots = value_slots_from_measure(mu, flow)
        for fn in (g, base_g):
            assert same_slices(star_integral(fn, mu, flow),
                               cref.star_integral_by_entry(fn, mu, flow))

            h, certificate = star_to_dot(fn, mu, cs)
            h_ref, certificate_ref = iref.star_to_dot(fn, mu, cs)
            assert h == h_ref and certificate == certificate_ref

            integrands.clear()
            conversion = accessible_star_to_dot(fn, mu, slots, flow)
            old = iref.accessible_star_to_dot(fn, mu, slots, flow)
            (gh,) = integrands
            assert conversion.integrand == old.integrand
            assert gh == scaled(old.integrand, old.scale)
            assert conversion == old and conversion.holds


@pytest.mark.parametrize("seed", SEEDS)
def test_anchor_reads_match_the_old_builders(seed, monkeypatch):
    assert_anchor_reads_match(random_scenario(seed), seed, monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
def test_anchor_reads_match_on_relabelled_trees(seed, monkeypatch):
    assert_anchor_reads_match(relabelled(random_scenario(seed), seed), seed,
                              monkeypatch)


@pytest.mark.parametrize("shape", SHAPES)
def test_anchor_reads_match_on_bench_shapes(shape, monkeypatch):
    assert_anchor_reads_match(shaped(shape, monkeypatch), 0, monkeypatch)


def test_star_to_dot_check_reads_g_by_anchor_label(monkeypatch):
    calls = dict.fromkeys(("_leaf_index", "conditioning_atom_of", "_numerator"), 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    ctx = CheckContext(shaped(SHAPES[0], monkeypatch), 0, "run")
    for cls, name in ((FilteredTree, "_leaf_index"),
                      (Filtration, "conditioning_atom_of"),
                      (JumpFunction, "_numerator")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    assert run_check(ctx, "star-to-dot")["status"] == "pass"
    assert 0 < calls.pop("_leaf_index") <= 896
    assert calls == {"conditioning_atom_of": 0, "_numerator": 0}

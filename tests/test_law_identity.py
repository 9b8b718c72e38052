"""The consistency check's star clause as one law identity.

For a base-anchored g, g * (mu - nu^G) and the drift-corrected base integral
step on a larger-flow atom a by g - sum_x g(x) nu^G_t(a, x) and by g - sum_x
g(x) P(Delta W_t = x | a), so the clause holds for every such g exactly when
the compensator law under G is the conditional law of the jump given a.
enlargement._law_identity checks that at every atom; the check keeps one
sampled g beside it.

On random_scenario seeds 0-49 and four full-tree shapes the identity's
verdict, and the check's star field, must be those of the three-sample
clause it replaced (check_reference.three_sample_star). With every law under
G replaced by the law of the base node holding the atom (nu^F read under G)
all of them must fail on the same flows, and those flows must be the ones
where that fault moves a conditional law. One corrupted law entry must be
named by the identity's witness, which the check reports. The identity
builds no Fraction.
"""

from fractions import Fraction
from pathlib import Path

import check_reference as ref
import pytest

from filtration_lab.cli import CheckContext, run_check
from filtration_lab.enlargement import _law_identity, g_star_consistency
from filtration_lab.fuzz import random_jump_function, random_scenario, rng_for
from filtration_lab.rationals import as_fractions

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(50)
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 10, 1, False), (3, 5, 2, False)]
CASES = [("seed", seed) for seed in SEEDS] + [("shape", shape) for shape in SHAPES]


def context(case, monkeypatch) -> CheckContext:
    kind, value = case
    if kind == "seed":
        return CheckContext(random_scenario(value), value, "run")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return CheckContext(shaped_scenario(0, *value), 0, "run")


def flows(ctx):
    return sorted(ctx.scenario.enlargements.items())


def base_laws_under(mu, enlargement) -> bool:
    """The nu^F-under-G fault: in the measure's compensator under the flow,
    each atom's law becomes the law of the base node holding the atom.
    True when that moves some conditional law."""
    table = mu.compensator(enlargement)
    nodes = mu.tree.base_filtration().parts
    base_laws = mu.compensator(mu.tree).laws
    faulty = {}
    for t in range(1, mu.tree.horizon + 1):
        for atom in table.filtration.parts[t - 1].atoms:
            node = nodes[t - 1].atoms[nodes[t - 1].block_of[atom.leaves[0]]]
            if (t, node.label) in base_laws:
                faulty[(t, atom.label)] = base_laws[(t, node.label)]
    before = table.entries
    table.laws = faulty
    return table.entries != before


def case_id(case):
    kind, value = case
    return f"{kind}-{value}" if kind == "seed" else "shape-" + "-".join(map(str, value))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_identity_agrees_with_three_samples(case, monkeypatch):
    ctx = context(case, monkeypatch)
    mu = ctx.measure
    row = run_check(ctx, "consistency")
    assert row["status"] == "pass"
    for name, enlargement in flows(ctx):
        verdict = _law_identity(mu, enlargement)
        assert verdict == (True, None)
        assert ref.three_sample_star(mu, ctx.seed, name, enlargement) is verdict[0]
        details = row["details"]["enlargements"][name]
        assert details["star"] is True and details["witness"] is None


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_base_laws_under_the_larger_flow_fail_both(case, monkeypatch):
    """The identity, the three-sample clause, its first draw alone and the
    check's star field fail on the same flows, which are those whose laws
    the fault moves: every flow of the full-tree shapes."""
    ctx = context(case, monkeypatch)
    mu = ctx.measure
    moved = {name: base_laws_under(mu, enlargement)
             for name, enlargement in flows(ctx)}
    if case[0] == "shape":
        assert all(moved.values())
    row = run_check(ctx, "consistency")
    for name, enlargement in flows(ctx):
        identity, witness = _law_identity(mu, enlargement)
        first = random_jump_function(mu, mu.tree,
                                     rng_for(ctx.seed, "consistency", name, "0"))
        verdicts = (identity,
                    ref.three_sample_star(mu, ctx.seed, name, enlargement),
                    g_star_consistency(first, mu, enlargement),
                    row["details"]["enlargements"][name]["star"])
        assert verdicts == (not moved[name],) * 4
        assert (witness is None) is identity


def corrupt(law, how, spare):
    """One law (atom mass, ((location cell, mass), ...)) with one entry
    changed, and the witness's (location cell, law mass, walk mass)."""
    mass, entries = law
    (loc, m), *rest = entries
    if how == "mass":
        return (mass, ((loc, m + 1), *rest)), (loc, m + 1, m)
    if how == "dropped":  # the walk still charges it
        return (mass, tuple(rest)), (loc, 0, m)
    if how == "charged at 0":  # a location the atom never reaches
        return (mass, (*entries, (spare, 0))), (spare, 0, 0)
    # the atom's mass: every location's ratio moves, the first is named
    return (mass + 1, entries), (loc, m, m)


@pytest.mark.parametrize("how", ["mass", "dropped", "charged at 0", "atom mass"])
def test_one_corrupted_law_is_the_witness(how, monkeypatch):
    ctx = context(("shape", SHAPES[0]), monkeypatch)
    (name, enlargement), = flows(ctx)
    mu = ctx.measure
    table = mu.compensator(enlargement)
    # the first law with two charged locations
    key = next(key for key, (_, law) in table.laws.items() if len(law) > 1)
    spare = (7, (1000,))  # a cell no node has
    assert spare not in {loc for locs in mu.locs for loc in locs}
    table.laws[key], (loc, ours, theirs) = corrupt(table.laws[key], how, spare)
    t, label = key
    assert _law_identity(mu, enlargement) == (
        False, (t, label, as_fractions(*loc), ours, theirs))
    row = run_check(ctx, "consistency")
    assert row["status"] == "fail"
    assert row["details"]["enlargements"][name] == {
        "counter_scan": True, "random_scan": True, "star": False,
        "witness": [t, label, [str(c) for c in as_fractions(*loc)], ours, theirs]}


def test_identity_builds_no_fraction(monkeypatch):
    """On deep-binary, with the compensator under G0 built beforehand, and
    then the whole consistency check on a fresh context."""
    ctx = context(("shape", SHAPES[0]), monkeypatch)
    (_, enlargement), = flows(ctx)
    ctx.measure.compensator(enlargement)
    new, calls = Fraction.__new__, [0]

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert _law_identity(ctx.measure, enlargement) == (True, None)
    assert calls[0] == 0
    fresh = CheckContext(ctx.scenario, 0, "run")
    assert run_check(fresh, "consistency")["status"] == "pass"
    assert calls[0] == 0

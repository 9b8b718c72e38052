"""The star-to-dot check's stacked pass against its per-sample loop.

The check draws its five jump functions from the same rng_for(seed,
"star-to-dot", j) streams as before, runs each route (star integral, slot
integrand and dot side, expansion and back integral, accessible integrand
and dot side) once over the stack of the five, and reads each sample's
three booleans off its own component. check_reference.star_to_dot_samples
keeps the loop that converted one sample at a time.

On random_scenario seeds 0-49, of which 12 have a basis that never jumps
(no slot, n = 0), on the four full-tree shapes of test_law_identity and on
the three fixtures, the check's row must be the loop's. With a wrong law
injected into the base compensator table, the masses of the first two
locations swapped on the first atom where they differ, the star sides
compensate by the wrong law while the slot and class martingales read the
successor masses, so a sample fails exactly when its g tells those two
locations apart: the per-sample patterns must still be the loop's, and
some seeds must mix passing and failing samples, which a leak from one
component into another would upset.

One check on the deep-binary shape makes the g-independent scaffold once
for the stack: 6 running sums (22 when each sample ran on its own), 4
predictable builds (16), 4 anchor-label resolutions (20) and 21 jump cuts
(77).
"""

from pathlib import Path

import check_reference as ref
import pytest

from filtration_lab import calculus, constraint
from filtration_lab.calculus import Process
from filtration_lab.cli import CheckContext, run_check
from filtration_lab.fuzz import random_scenario
from filtration_lab.scenario import load

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "filtration_lab" / "fixtures"
SEEDS = range(50)
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 10, 1, False), (3, 5, 2, False)]


def shaped(shape, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return shaped_scenario(0, *shape)


def loop_row(ctx) -> dict:
    """The loop's outcome on ctx as run_check's row."""
    ok, details = ref.star_to_dot_samples(ctx)
    return {"name": "star-to-dot", "status": "pass" if ok else "fail",
            "details": details}


def assert_row_is_the_loops(make):
    """The check's row on one context against the loop's on a fresh one."""
    row = run_check(make(), "star-to-dot")
    assert row == loop_row(make())
    return row["details"]


def swap_first_unequal_pair(ctx) -> bool:
    """In the base compensator table, swap the masses of the first two
    locations of the first atom whose two masses differ; False when no atom
    has two locations of different mass."""
    table = ctx.measure.compensator(ctx.tree)
    for key, (mass, law) in table.laws.items():
        if len(law) >= 2 and law[0][1] != law[1][1]:
            (first, m1), (second, m2), *rest = law
            table.laws[key] = (mass, ((first, m2), (second, m1), *rest))
            return True
    return False


@pytest.mark.parametrize("seed", SEEDS)
def test_row_matches_the_loop_on_fuzz_seeds(seed):
    details = assert_row_is_the_loops(
        lambda: CheckContext(random_scenario(seed), seed, "run"))
    assert all(sample["forward"] and sample["round_trip"] and sample["accessible"]
               for sample in details["samples"])


def test_fuzz_seeds_include_bases_without_jumps():
    slots = [CheckContext(random_scenario(seed), seed, "run").constraint.n
             for seed in SEEDS]
    assert slots.count(0) == 12


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_row_matches_the_loop_on_full_trees(shape, monkeypatch):
    scenario = shaped(shape, monkeypatch)
    assert_row_is_the_loops(lambda: CheckContext(scenario, 0, "run"))


@pytest.mark.parametrize("name", ["bin1", "ter1_ga", "ter1_gb"])
def test_row_matches_the_loop_on_fixtures(name):
    def make():
        scenario = load(FIXTURES / f"{name}.json")
        return CheckContext(scenario, scenario.seed, "run")

    assert_row_is_the_loops(make)


def test_wrong_law_splits_samples_as_the_loop_does():
    swapped = mixed = 0
    for seed in SEEDS:
        stacked = CheckContext(random_scenario(seed), seed, "run")
        looped = CheckContext(random_scenario(seed), seed, "run")
        if not swap_first_unequal_pair(stacked):
            continue
        assert swap_first_unequal_pair(looped)
        swapped += 1
        row = run_check(stacked, "star-to-dot")
        assert row == loop_row(looped), seed
        verdicts = {sample["forward"] and sample["round_trip"] and sample["accessible"]
                    for sample in row["details"]["samples"]}
        mixed += len(verdicts) == 2
    assert (swapped, mixed) == (34, 13)


def test_scaffold_is_built_once_for_the_stack(monkeypatch):
    ctx = CheckContext(shaped(SHAPES[0], monkeypatch), 0, "run")
    calls = dict.fromkeys(("_accumulate", "_predictable", "_anchored", "_jump_cut"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("_accumulate", "_predictable"):
        monkeypatch.setattr(Process, name,
                            staticmethod(counting(name, getattr(Process, name))))
    for name in ("_anchored", "_jump_cut"):
        counted = counting(name, getattr(calculus, name))
        for module in (calculus, constraint):  # each binds its own name
            monkeypatch.setattr(module, name, counted)
    assert run_check(ctx, "star-to-dot")["status"] == "pass"
    assert calls == {"_accumulate": 6, "_predictable": 4, "_anchored": 4,
                     "_jump_cut": 21}

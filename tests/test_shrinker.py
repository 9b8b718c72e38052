"""The document shrinker against the object shrinker it replaced.

Each case forces one check to fail by a predicate swapped in for its runner
in cli.CHECKS, then shrinks random_scenario seeds 0-49: the document
cli.minimize_failure returns must be, byte for byte, the scenario the
reference shrinker in cli_reference returns. The predicates see the whole
candidate: its hash, its enlargement cells, or the drift the real check
computes from its cells and process tables, so a cut that maps a cell or a
table entry wrongly changes which candidates are kept.
"""

import dataclasses

import pytest

from filtration_lab import cli
from filtration_lab.fuzz import random_scenario
from filtration_lab.scenario import canonical_json, dumps, loads, scenario_hash

import cli_reference

ORIGINAL = dict(cli.CHECKS)


def hash_third(ctx):
    return int(scenario_hash(ctx.scenario), 16) % 3 == 0, {}


def strictly_finer(ctx):
    """Fails while some enlargement is finer than the base at some time."""
    base = ctx.tree.base_filtration()
    finer = any(enlargement.partitions[t]
                != tuple(atom.leaves for atom in base.atoms(t))
                for enlargement in ctx.scenario.enlargements.values()
                for t in range(ctx.tree.horizon + 1))
    return not finer, {}


def nonzero_drift(ctx):
    """Fails while the real drift check reports a nonzero increment."""
    ok, details = ORIGINAL["drift"].runner(ctx)
    drifts = any(row["drift"] for rows in details["enlargements"].values()
                 for row in rows)
    return ok and not drifts, details


def always(ctx):
    return False, {}


@pytest.mark.parametrize("horizon", [None, 3], ids=["drawn", "horizon3"])
@pytest.mark.parametrize("name, predicate", [
    ("mrp", hash_third),
    ("viability", strictly_finer),
    ("drift", nonzero_drift),
    ("kernel", always),
])
def test_reproducers_match_reference(monkeypatch, name, predicate, horizon):
    monkeypatch.setitem(cli.CHECKS, name, dataclasses.replace(
        ORIGINAL[name], runner=predicate))
    cut = 0
    for seed in range(50):
        scenario = random_scenario(seed, horizon=horizon,
                                   checks=tuple(ORIGINAL))
        text = canonical_json(cli.minimize_failure(scenario, name, seed))
        assert text == dumps(cli_reference.minimize_failure(
            scenario, name, seed)), seed
        assert text == dumps(loads(text)), seed
        cut += loads(text).tree.horizon < scenario.tree.horizon
    # the horizon cut is exercised, not only the drops
    assert cut > 0

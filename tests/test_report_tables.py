"""The drift and phi report tables, written from int cells.

rationals.ratio_text gives an int ratio's text with one gcd; it must be
the text str(Fraction) gives, for any int numerator, negative and zero
among them, over any positive denominator, 1 among them. The drift and
multiplier checks write their tables with it straight from the int slices;
on random_scenario seeds 0-49 and four full-tree shapes, every table must
be, key for key and in order, the text of the one cli_reference builds
from Fractions. The drift table still leaves out zero increments and the
phi table keeps its zero entries, as the ter1 fixtures show.
"""

from fractions import Fraction
from pathlib import Path

import cli_reference as ref
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from filtration_lab import drift_operator, solve_drift_multiplier
from filtration_lab.cli import CheckContext, _drift_table, _phi_table, run_check
from filtration_lab.fuzz import random_scenario
from filtration_lab.rationals import ratio_text
from filtration_lab.scenario import load

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "filtration_lab" / "fixtures"
SEEDS = range(50)
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 10, 1, False), (3, 5, 2, False)]
CASES = [("seed", seed) for seed in SEEDS] + [("shape", shape) for shape in SHAPES]


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 12)
@example(-7, 1)
@example(7, 1)
@example(-12, 8)
@example(12, 4)
@example(-(3 ** 90), 3 ** 89)
@example(2 ** 127 - 1, 2 ** 61 * 6)
def test_ratio_text_is_the_fraction_text(num, den):
    assert ratio_text(num, den) == str(Fraction(num, den))


def texts(table):
    """A reference table with every Fraction as its text, in key order."""
    return [(key, str(value) if isinstance(value, Fraction) else texts(value)
             if isinstance(value, dict) else [str(v) for v in value])
            for key, value in table.items()]


def in_order(table):
    return [(key, in_order(value) if isinstance(value, dict) else value)
            for key, value in table.items()]


def context(case, monkeypatch) -> CheckContext:
    kind, value = case
    if kind == "seed":
        return CheckContext(random_scenario(value), value, "run")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return CheckContext(shaped_scenario(0, *value), 0, "run")


@pytest.mark.parametrize("case", CASES, ids=str)
def test_tables_match_the_fraction_route(case, monkeypatch):
    ctx = context(case, monkeypatch)
    rebuilt = ctx.reconstructed
    for _, enlargement in sorted(ctx.scenario.enlargements.items()):
        flow = enlargement.filtration()
        for component in ctx.basis().components():
            drift = drift_operator(component, enlargement).drift
            table = _drift_table(drift, flow)
            assert in_order(table) == texts(ref.drift_table(drift, flow))
            assert "0" not in table.values()
        phi = solve_drift_multiplier(enlargement, rebuilt).phi
        assert in_order(_phi_table(phi, flow)) == texts(ref.phi_table(phi, flow))


@pytest.mark.parametrize("name", ["ter1_ga", "ter1_gb"])
def test_zero_drifts_dropped_and_zero_phi_kept(name):
    scenario = load(FIXTURES / f"{name}.json")
    ctx = CheckContext(scenario, scenario.seed, "run")
    drift = run_check(ctx, "drift")["details"]["enlargements"]
    phi = run_check(ctx, "multiplier")["details"]["enlargements"]
    if name == "ter1_ga":
        assert drift["GA"][0]["drift"] == {"1:a": "1", "1:b|c": "-1/2"}
        assert phi["GA"]["phi"] == {"1:r": {"a": ["6", "0"], "b|c": ["-3", "0"]}}
    else:
        # component 0 does not move under GB: every increment is zero
        assert [row["drift"] for row in drift["GB"]] == [{}, {"1:a|b": "1", "1:c": "-2"}]
        assert phi["GB"]["phi"] == {"1:r": {"a|b": ["3/2", "3"], "c": ["-3", "-6"]}}

"""One derivation per run: the checks share the context's rank report, jump
measure and constraint system instead of building their own, and the
reconstructed family is built on the context's rank report."""

import json
import sys
from pathlib import Path

import pytest

from filtration_lab import calculus, constraint, representation
from filtration_lab.cli import CHECKS, main

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "filtration_lab" / "fixtures"
SHORT_BASIS = Path(__file__).resolve().parent / "data" / "ter1_short_basis.json"


def count_calls(monkeypatch, original):
    """Route every package module's binding of original through a counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("filtration_lab.")
                and getattr(module, original.__name__, None) is original):
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


@pytest.mark.parametrize("fixture", ["ter1_ga.json", "ter1_gb.json"])
def test_run_derives_measure_and_constraint_once(fixture, monkeypatch, capsys):
    measures = count_calls(monkeypatch, calculus.jump_measure)
    systems = count_calls(monkeypatch, constraint.detect_fpcc)
    code = main(["run", str(FIXTURES / fixture), "--checks", ",".join(CHECKS),
                 "--format", "json"])
    capsys.readouterr()
    assert code in (0, 1)
    assert len(measures) == 1
    assert len(systems) == 1


def test_basis_without_representation_is_ranked_once(monkeypatch, capsys):
    ranks = count_calls(monkeypatch, representation.check_mrp)
    rebuilds = count_calls(monkeypatch, representation.reconstruct_accessible)
    code = main(["run", str(SHORT_BASIS), "--format", "json"])
    capsys.readouterr()
    assert code == 1
    # reconstruct, multiplier and kernel fail on the context's report
    assert len(ranks) == 1
    assert rebuilds == []


def test_passing_basis_is_ranked_once(monkeypatch, capsys):
    ranks = count_calls(monkeypatch, representation.check_mrp)
    code = main(["run", str(FIXTURES / "ter1_ga.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {row["name"]: row["status"] for row in report["checks"]}["mrp"] == "pass"
    # the context's report on the basis, and the reconstruct check's report
    # on the basis stacked with the slot martingales; the reconstructed
    # family is built on the first
    assert len(ranks) == 2
    assert ranks[0][0] is not ranks[1][0]

"""The kernel check's basis test against the property it states, and the
per-sub-atom tests it replaced.

Component h of the family reconstruct_accessible builds moves by (1/2^t)(1 -
p_h) on the h-th successor class of its atom and by -(1/2^t) p_h on the
others, and padding classes have p_h = 0 and no leaf. So on every leaf the
increment Delta X2_t sums to 0 over the charged classes of the atom above
it, (1 - sum of p_h) / 2^t, and vanishes on the padding classes. Every
sub-atom covariance M of Delta X2 then has M 1 = 0 on the charged classes
and nothing elsewhere, which is M = M J C (J C centres the charged classes),
whatever the flow. covariance_kernel tests the property once per basis
(enlargement._centred) in place of M = M J C per sub-atom. This file holds
that test to centred_on_charged_classes, a leaf-block walk of its own, on
random_scenario seeds 0-49 and the four full-tree shapes, where the
per-sub-atom tests of integral_reference's covariance_kernel pass too. A
hand-built ReconstructedBasis with one component doubled fails both
wherever a node has two children, and, through the check path, fails every
kernel row under every flow, full information included, where the
sub-atom tests passed every row.
"""

from pathlib import Path

import integral_reference as ref
import pytest

from filtration_lab import Process
from filtration_lab.cli import CheckContext, run_check
from filtration_lab.enlargement import _centred
from filtration_lab.fuzz import random_scenario, widest_branching
from filtration_lab.representation import ReconstructedBasis

ROOT = Path(__file__).resolve().parent.parent
SHAPES = [(2, 7, 1, False), (5, 3, 4, True), (2, 10, 1, False), (3, 5, 2, False)]
CASES = [("seed", seed) for seed in range(50)] + [("shape", shape) for shape in SHAPES]


def context(case, monkeypatch) -> CheckContext:
    kind, value = case
    if kind == "seed":
        return CheckContext(random_scenario(value), value, "run")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return CheckContext(shaped_scenario(0, *value), 0, "run")


def case_id(case):
    kind, value = case
    return f"{kind}-{value}" if kind == "seed" else "shape-" + "-".join(map(str, value))


def centred_on_charged_classes(basis: ReconstructedBasis) -> bool:
    """On every block of every increment slice, the numerators sum to 0
    over the charged classes of the witness above it and vanish on its
    padding classes."""
    x2, tree = basis.process, basis.process.tree
    nodes = tree.base_filtration().parts
    for t in range(1, tree.horizon + 1):
        part, _, nums = x2._delta(t)
        for block, cell in zip(part.atoms, nums):
            parent = nodes[t - 1].atoms[nodes[t - 1].block_of[block.leaves[0]]]
            masses = basis._witness(t, parent.label).masses
            if sum(c for c, m in zip(cell, masses) if m) != 0:
                return False
            if any(c for c, m in zip(cell, masses) if not m):
                return False
    return True


def sub_checks_hold(basis: ReconstructedBasis, flows) -> bool:
    """The reference's per-sub-atom M = M J C tests pass at every witness
    under every flow; its holds reads them once the kernel matches."""
    certificates = [ref.covariance_kernel(flow, basis, wit.time, wit.atom)
                    for flow in flows for wit in basis.witnesses]
    assert all(certificate.kernel_matches for certificate in certificates)
    return all(certificate.holds for certificate in certificates)


def doubled_first_component(basis: ReconstructedBasis) -> ReconstructedBasis:
    x2 = basis.process
    parts = x2.components()
    return ReconstructedBasis(process=Process.stack([parts[0].scale(2), *parts[1:]]),
                              witnesses=basis.witnesses, d=basis.d)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reconstructed_increments_centre_the_charged_classes(case, monkeypatch):
    ctx = context(case, monkeypatch)
    basis = ctx.reconstructed
    flows = [enlargement.filtration() for _, enlargement
             in sorted(ctx.scenario.enlargements.items())]
    assert _centred(basis) is centred_on_charged_classes(basis) is True
    assert sub_checks_hold(basis, flows)

    # component 0 is the class of largest mass: it moves below every node
    # with two children, and nowhere on a tree without one
    moves = widest_branching(ctx.tree) >= 2
    doubled = doubled_first_component(basis)
    assert _centred(doubled) is centred_on_charged_classes(doubled) is not moves
    # the base flow's sub-atoms are the witnesses' own atoms, where the
    # doubled component's covariance no longer has M 1 = 0
    assert sub_checks_hold(doubled, [ctx.tree.base_filtration()]) is not moves


@pytest.mark.parametrize("shape, held", [((5, 3, 4, True), {"G0": 21, "G1": 31}),
                                         ((2, 7, 1, False), {"G0": 106})],
                         ids=["shape-5-3-4-True", "shape-2-7-1-False"])
def test_doubled_component_fails_every_kernel_row(shape, held, monkeypatch):
    """The reference's per-sub-atom tests hold `held` rows of the doubled
    basis per flow: under G1 of the (5, 3, 4, True) shape, full
    information, every sub-atom is one leaf and its M is 0, so all of
    them. The basis test fails every row under every flow."""
    ctx = context(("shape", shape), monkeypatch)
    doubled = doubled_first_component(ctx.reconstructed)
    flows = ctx.scenario.enlargements
    assert {name: sum(ref.covariance_kernel(flows[name], doubled, wit.time,
                                            wit.atom).holds
                      for wit in doubled.witnesses)
            for name in held} == held
    ctx.reconstructed = doubled
    row = run_check(ctx, "kernel")
    assert row["status"] == "fail"
    rows = row["details"]["enlargements"]
    assert sorted(rows) == sorted(held)
    assert all(len(rows[name]) == len(doubled.witnesses) for name in held)
    assert not any(r["holds"] for name in held for r in rows[name])

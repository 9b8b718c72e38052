"""Why covariance_kernel's sub-atom tests pass on every reconstructed basis.

Component h of the family reconstruct_accessible builds moves by (1/2^t)(1 -
p_h) on the h-th successor class of its atom and by -(1/2^t) p_h on the
others, and padding classes have p_h = 0 and no leaf. So on every leaf the
increment Delta X2_t sums to 0 over the charged classes of the atom above
it, (1 - sum of p_h) / 2^t, and vanishes on the padding classes. Every
sub-atom covariance M of Delta X2 then has M 1 = 0 on the charged classes
and nothing elsewhere, which is M = M J C (J C centres the charged classes),
whatever the flow. covariance_kernel still tests M = M J C per sub-atom;
this file holds the property that makes those tests pass, on
random_scenario seeds 0-49 and the four full-tree shapes, and shows that a
hand-built ReconstructedBasis with one component doubled breaks both the
property and a sub-atom test wherever a node has two children.
"""

from pathlib import Path

import pytest

from filtration_lab import Process, covariance_kernel
from filtration_lab.cli import CheckContext
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
    return all(ok for flow in flows for wit in basis.witnesses
               for _, ok in covariance_kernel(flow, basis, wit.time,
                                              wit.atom).sub_checks)


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
    assert centred_on_charged_classes(basis)
    assert sub_checks_hold(basis, flows)

    # component 0 is the class of largest mass: it moves below every node
    # with two children, and nowhere on a tree without one
    moves = widest_branching(ctx.tree) >= 2
    doubled = doubled_first_component(basis)
    assert centred_on_charged_classes(doubled) is not moves
    # the base flow's sub-atoms are the witnesses' own atoms, where the
    # doubled component's covariance no longer has M 1 = 0
    assert sub_checks_hold(doubled, [ctx.tree.base_filtration()]) is not moves

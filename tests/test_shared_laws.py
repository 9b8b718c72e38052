"""The basis-side work shared by one-step law, on full trees.

A node's kernel frame depends on its witness only through the time and the
one-step law, the successor masses in lowest terms, and the reduction
behind its representation solves only on its children's int increment
rows. On the full trees of the benchmark's shapes every node at a time has
the same law, with node masses that differ, so one frame per time serves
every witness and the memos hit. Every certificate must still be the
reference's per-witness one, atom included, and every multiplier and
coefficient result that of a reduction built afresh per node.
"""

from pathlib import Path

import integral_reference as ref
import pytest
from test_law_identity import SHAPES

from filtration_lab import (
    covariance_kernel,
    reconstruct_accessible,
    representation_coefficient,
    solve_drift_multiplier,
    verify_drift_multiplier,
)
from filtration_lab import enlargement, representation
from filtration_lab.fuzz import random_representable, rng_for
from filtration_lab.linalg import _eliminate_with_identity

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scenario(request, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import shaped_scenario
    return shaped_scenario(0, *request.param)


def shape_id(shape):
    return "shape-" + "-".join(map(str, shape))


def flows(scenario):
    """The base filtration, then every enlargement's, in name order."""
    yield scenario.tree.base_filtration()
    for _, g in sorted(scenario.enlargements.items()):
        yield g.filtration()


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper counting its calls; returns the count."""
    fn, calls = getattr(owner, name), [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def per_node_solver(w, t, node):
    """representation._solver_at without the kept reductions: one fresh
    reduction of the node's child-increment rows per call."""
    part, den, incs = w._delta(t)
    reduced, pivots, det = _eliminate_with_identity(
        [incs[part.block_of[child.leaf_lo]] for child in node.children])
    return (den, [(c, row[w.dim:]) for row, c in zip(reduced, pivots) if c < w.dim],
            [row[w.dim:] for row, c in zip(reduced, pivots) if c >= w.dim], det)


@pytest.mark.parametrize("scenario", SHAPES, ids=shape_id, indirect=True)
def test_kernel_certificates_match_the_per_witness_reference(scenario,
                                                             monkeypatch):
    frames = counting(monkeypatch, enlargement, "_kernel_frame")
    rebuilt = reconstruct_accessible(scenario.basis_process())
    for filtration in flows(scenario):
        for wit in rebuilt.witnesses:
            new = covariance_kernel(filtration, rebuilt, wit.time, wit.atom)
            assert new.atom == wit.atom
            assert new == ref.covariance_kernel(filtration, rebuilt,
                                                wit.time, wit.atom)
    # one law per time, shared by every node at that time
    assert frames[0] == scenario.tree.horizon < len(rebuilt.witnesses)


@pytest.mark.parametrize("scenario", SHAPES, ids=shape_id, indirect=True)
def test_solves_match_a_per_node_build(scenario, monkeypatch):
    w = scenario.basis_process()
    rebuilt = reconstruct_accessible(w)
    x2 = rebuilt.process
    rng = rng_for(0, "shared", "laws")
    targets = [random_representable(w, rng) for _ in range(2)]
    targets += [scenario.processes["S"], *w.components()]
    gs = [g for _, g in sorted(scenario.enlargements.items())]

    def results():
        solutions = [solve_drift_multiplier(g, rebuilt) for g in gs]
        verdicts = [verify_drift_multiplier(solution, x, g)
                    for solution, g in zip(solutions, gs) for x in targets]
        coefficients = [representation_coefficient(x, basis)
                        for basis in (w, x2) for x in targets]
        return verdicts, coefficients

    with monkeypatch.context() as fresh:
        fresh.setattr(representation, "_solver_at", per_node_solver)
        expected = results()
    reductions = counting(monkeypatch, representation,
                          "_eliminate_with_identity")
    assert results() == expected
    assert all(expected[0])
    inner = sum(len(scenario.tree.nodes_at[t])
                for t in range(scenario.tree.horizon))
    # x2's child-increment rows repeat across nodes: its reductions are shared
    assert len(x2._solvers[1]) < len(x2._solvers[0]) == inner
    assert reductions[0] == len(w._solvers[1]) + len(x2._solvers[1])

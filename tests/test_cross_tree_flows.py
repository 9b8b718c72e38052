"""A flow built on another tree is refused with DimensionMismatch.

Every function below takes a process, measure or basis on one tree and a
flow: random_scenario(1)'s, against random_scenario(2)'s first enlargement.
Each resolves the flow through tree._flow_on, which compares the two trees
as star_integral compares a jump function's with its measure's.
"""

import pytest

from filtration_lab import (
    JumpFunction,
    Process,
    bracket,
    check_compensator_abs_continuity,
    compensate_measure,
    covariance_kernel,
    dot_integral,
    dual_predictable_projection,
    find_deflator,
    jump_measure,
    predictable_bracket,
    project_onto_jump_measure,
    reconstruct_accessible,
    solve_drift_multiplier,
    star_integral,
)
from filtration_lab.enlargement import _law_identity
from filtration_lab.errors import DimensionMismatch
from filtration_lab.fuzz import random_scenario

CALLS = {
    "solve_drift_multiplier": lambda s, g: solve_drift_multiplier(g, s.basis),
    "dual_predictable_projection": lambda s, g: dual_predictable_projection(s.x, g),
    "predictable_bracket": lambda s, g: predictable_bracket(s.x, s.x, g),
    "find_deflator": lambda s, g: find_deflator(s.price, g),
    "_law_identity": lambda s, g: _law_identity(s.mu, g),
    "check_compensator_abs_continuity":
        lambda s, g: check_compensator_abs_continuity(bracket(s.x, s.x), g),
    "covariance_kernel":
        lambda s, g: covariance_kernel(g, s.basis, 1, s.tree.root.id),
    "is_martingale": lambda s, g: s.x.is_martingale(g),
    "compensate_measure": lambda s, g: compensate_measure(s.mu, g),
    "star_integral": lambda s, g: star_integral(s.g, s.mu, g),
    "project_onto_jump_measure":
        lambda s, g: project_onto_jump_measure(s.x, s.mu, g),
    "dot_integral": lambda s, g: dot_integral(Process.zero(s.tree), s.x, g),
}


class Side:
    """The inputs on random_scenario(1)'s tree."""

    def __init__(self):
        scenario = random_scenario(1)
        self.tree = scenario.tree
        w = scenario.basis_process()
        self.basis = reconstruct_accessible(w)
        self.x = w.component(0)
        self.mu = jump_measure(w)
        self.g = JumpFunction.component(self.mu, self.tree, 0)
        self.price = Process.from_node_values(
            self.tree, {node: 2 for node in self.tree.nodes})


@pytest.fixture(scope="module")
def side():
    return Side()


@pytest.fixture(scope="module")
def other_flow():
    scenario = random_scenario(2)
    return next(iter(scenario.enlargements.values()))


@pytest.mark.parametrize("name", CALLS)
def test_flow_from_another_tree_is_refused(name, side, other_flow):
    assert other_flow.tree is not side.tree
    with pytest.raises(DimensionMismatch, match="built on another tree"):
        CALLS[name](side, other_flow)

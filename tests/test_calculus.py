"""Projections, brackets, integrals, and jump measures."""

from fractions import Fraction

import pytest

from filtration_lab import (
    JumpFunction,
    Process,
    bracket,
    compensate_measure,
    decompose,
    dot_integral,
    dual_predictable_projection,
    jump_measure,
    predictable_bracket,
    project_onto_jump_measure,
    random_tree,
    star_integral,
)
from filtration_lab.errors import (
    DimensionMismatch,
    IncompleteFunctionTable,
    NotPredictable,
)
from filtration_lab.fuzz import random_martingale, rng_for

F = Fraction


def indicator(tree, node_id):
    """1 on the named time-1 node from then on, 0 elsewhere."""
    values = {}
    for node in tree.nodes.values():
        hit = node.id == node_id or node.id.startswith(node_id)
        values[node.id] = [1 if hit and node.time >= 1 else 0]
    return Process.from_node_values(tree, values, dim=1)


class TestProcessShape:
    """Outside rows must match the tree: one per time, one cell per leaf."""

    @staticmethod
    def rows(tree, times, cells):
        return [[(F(0),)] * cells for _ in range(times)]

    def test_too_few_time_rows(self):
        tree = random_tree(3, horizon=2, max_branching=3)
        with pytest.raises(DimensionMismatch):
            Process(tree, self.rows(tree, 2, tree.n_leaves))

    def test_too_many_time_rows(self):
        tree = random_tree(3, horizon=2, max_branching=3)
        with pytest.raises(DimensionMismatch):
            Process(tree, self.rows(tree, 5, tree.n_leaves))

    def test_short_rows(self):
        tree = random_tree(3, horizon=2, max_branching=3)
        with pytest.raises(DimensionMismatch):
            Process(tree, self.rows(tree, 3, tree.n_leaves - 1))

    def test_long_rows(self):
        tree = random_tree(3, horizon=2, max_branching=3)
        with pytest.raises(DimensionMismatch):
            Process(tree, self.rows(tree, 3, tree.n_leaves + 2))

    def test_matching_rows_accepted(self):
        tree = random_tree(3, horizon=2, max_branching=3)
        x = Process(tree, self.rows(tree, 3, tree.n_leaves))
        assert x == Process.zero(tree, 1)


class TestDualPredictableProjection:
    def test_bin1_half(self, bin1):
        a = indicator(bin1, "u")
        comp = dual_predictable_projection(a, bin1)
        assert comp.at(0, 0) == (F(0),)
        assert comp.at(1, 0) == (F(1, 2),)
        assert comp.at(1, 1) == (F(1, 2),)

    def test_ter1_under_ga(self, ter1, ga):
        a = indicator(ter1, "a")
        comp = dual_predictable_projection(a, ga)
        # oracle: E[increment | G0] is 1 on {a} and 0 on {b, c}
        assert comp.increment(1, 0) == (F(1),)
        assert comp.increment(1, 1) == (F(0),)
        assert comp.increment(1, 2) == (F(0),)

    def test_martingale_has_null_compensator(self, w_bin, bin1):
        comp = dual_predictable_projection(w_bin, bin1)
        assert comp == Process.zero(bin1, 1)

    def test_compensated_process_is_martingale(self, ter1, ga):
        a = indicator(ter1, "a")
        comp = dual_predictable_projection(a, ga)
        assert (a.minus_initial() - comp).is_martingale(ga)


class TestDecompose:
    def test_martingale_input(self, w_bin, bin1):
        parts = decompose(w_bin, bin1)
        assert parts.drift_part == Process.zero(bin1, 1)

    def test_ter1_drift_under_ga(self, w_ter, ga):
        x = w_ter.component(0)
        parts = decompose(x, ga)
        assert parts.drift_part.increment(1, 0) == (F(1),)
        assert parts.drift_part.increment(1, 1) == (F(-1, 2),)
        assert parts.drift_part.increment(1, 2) == (F(-1, 2),)
        assert parts.martingale_part.is_martingale(ga)
        assert parts.martingale_part + parts.drift_part == x.minus_initial()

    def test_deterministic_increasing(self, bin1):
        x = Process.from_node_values(
            bin1, {"r": [0], "u": [3], "d": [3]}, dim=1)
        parts = decompose(x, bin1)
        assert parts.martingale_part == Process.zero(bin1, 1)


class TestBracket:
    def test_bin1_square(self, w_bin):
        sq = bracket(w_bin, w_bin)
        assert sq.at(1, 0) == (F(1),)
        assert sq.at(1, 1) == (F(1),)

    def test_disjoint_supports_vanish(self, two_step):
        x = Process.from_node_values(two_step, {
            "r": [0], "u": [1], "d": [-1],
            "uu": [1], "ud": [1], "du": [-1], "dm": [-1], "dd": [-1]}, dim=1)
        y = Process.from_node_values(two_step, {
            "r": [0], "u": [0], "d": [0],
            "uu": [1], "ud": [-1], "du": [1], "dm": [1], "dd": [-2]}, dim=1)
        assert bracket(x, y) == Process.zero(two_step, 1)

    def test_ter1_cross_bracket(self, w_ter):
        # oracle: componentwise product of (1,-1,0) and (1,1,-2)
        cross = bracket(w_ter.component(0), w_ter.component(1))
        assert [cross.at(1, i)[0] for i in range(3)] == [F(1), F(-1), F(0)]

    def test_predictable_bracket_two_routes_agree(self):
        for seed in range(5):
            tree = random_tree(seed, horizon=3, max_branching=3)
            rng = rng_for(seed, "bracket-routes")
            x = random_martingale(tree, rng)
            y = random_martingale(tree, rng)
            direct = predictable_bracket(x, y, tree)
            projected = dual_predictable_projection(bracket(x, y), tree)
            assert direct == projected


class TestDotIntegral:
    def test_unit_integrand(self, w_ter):
        ones = Process.from_node_values(
            w_ter.tree, {n: [1, 1] for n in ["r", "a", "b", "c"]}, dim=2)
        # componentwise: sum of both increments
        total = dot_integral(ones, w_ter)
        assert [total.at(1, i)[0] for i in range(3)] == [F(2), F(0), F(-2)]

    def test_zero_integrand(self, w_bin, bin1):
        zeros = Process.zero(bin1, 1)
        assert dot_integral(zeros, w_bin) == Process.zero(bin1, 1)

    def test_bin1_scaling(self, w_bin, bin1):
        h = Process.from_node_values(
            bin1, {"r": [0], "u": [3], "d": [3]}, dim=1)
        scaled = dot_integral(h, w_bin)
        assert scaled.at(1, 0) == (F(3),)
        assert scaled.at(1, 1) == (F(-3),)

    def test_non_predictable_rejected(self, w_bin, bin1):
        h = Process.from_node_values(
            bin1, {"r": [0], "u": [1], "d": [2]}, dim=1)
        with pytest.raises(NotPredictable):
            dot_integral(h, w_bin)

    def test_dimension_mismatch(self, w_ter, ter1):
        h = Process.zero(ter1, 1)
        with pytest.raises(DimensionMismatch):
            dot_integral(h, w_ter)


class TestJumpMeasure:
    def test_constant_process_empty(self, bin1):
        x = Process.from_node_values(
            bin1, {"r": [4], "u": [4], "d": [4]}, dim=1)
        assert jump_measure(x).support == {}

    def test_bin1_support(self, w_bin):
        mu = jump_measure(w_bin)
        assert mu.support == {"u": (F(1),), "d": (F(-1),)}

    def test_zero_vector_increment_excluded(self, ter1):
        x = Process.from_node_values(
            ter1, {"r": [0, 0], "a": [1, 1], "b": [-1, 1], "c": [0, 0]}, dim=2)
        mu = jump_measure(x)
        assert set(mu.support) == {"a", "b"}

    def test_compensator_cached_per_filtration(self, w_ter, ga):
        mu = jump_measure(w_ter)
        fine = mu.compensator(ga)
        assert mu.compensator(ga.filtration()) is fine
        assert mu.compensator(w_ter.tree) is not fine


class TestCompensateMeasure:
    def test_bin1_half_each(self, w_bin, bin1):
        table = compensate_measure(jump_measure(w_bin), bin1)
        assert table.entries[(1, "r")] == {(F(1),): F(1, 2), (F(-1),): F(1, 2)}

    def test_ter1_under_ga(self, w_ter, ga):
        # on {b, c} the two locations split the mass evenly
        table = compensate_measure(jump_measure(w_ter), ga)
        assert table.entries[(1, "b|c")] == {
            (F(-1), F(1)): F(1, 2), (F(0), F(-2)): F(1, 2)}
        assert table.entries[(1, "a")] == {(F(1), F(1)): F(1)}

    def test_empty_measure(self, bin1):
        x = Process.from_node_values(
            bin1, {"r": [4], "u": [4], "d": [4]}, dim=1)
        table = compensate_measure(jump_measure(x), bin1)
        assert table.entries == {}


class TestStarIntegral:
    def test_counting_minus_compensator(self, ter1):
        x = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [-1], "c": [0]}, dim=1)
        mu = jump_measure(x)
        g = JumpFunction.from_callable(mu, ter1, lambda t, value: 1)
        z = star_integral(g, mu, ter1)
        # two of three children jump, so the compensator step is 2/3
        assert [z.at(1, i)[0] for i in range(3)] == [F(1, 3), F(1, 3), F(-2, 3)]
        assert z.is_martingale(ter1)

    def test_identity_integrand_recovers_martingale(self, w_ter):
        x = w_ter.component(0)
        mu = jump_measure(x)
        g = JumpFunction.component(mu, x.tree, 0)
        assert star_integral(g, mu, x.tree) == x.minus_initial()

    def test_missing_entry_raises(self, w_bin, bin1):
        mu = jump_measure(w_bin)
        g = JumpFunction(bin1.base_filtration(), {})
        with pytest.raises(IncompleteFunctionTable):
            star_integral(g, mu, bin1)

    def test_function_from_another_tree_is_refused(self):
        # location ids are per tree, so a twin tree's table cannot be read
        tree, twin = (random_tree(2, horizon=2, max_branching=3) for _ in "ab")
        x = random_martingale(tree, rng_for(2, "twin"))
        mu = jump_measure(x)
        g = JumpFunction.component(jump_measure(Process(twin, x.values)), twin, 0)
        with pytest.raises(DimensionMismatch):
            star_integral(g, mu, tree)

    def test_always_martingale(self):
        for seed in range(5):
            tree = random_tree(seed, horizon=2, max_branching=3)
            rng = rng_for(seed, "star-martingale")
            x = random_martingale(tree, rng)
            mu = jump_measure(x)
            g = JumpFunction.from_callable(
                mu, tree, lambda t, value: t * value[0] ** 2 - 1)
            assert star_integral(g, mu, tree).is_martingale(tree)


class TestProjectionOntoMeasure:
    def test_self_projection(self, w_bin, bin1):
        mu = jump_measure(w_bin)
        g = project_onto_jump_measure(w_bin, mu, bin1)
        lhs = predictable_bracket(w_bin, w_bin, bin1)
        rhs = predictable_bracket(star_integral(g, mu, bin1), w_bin, bin1)
        assert lhs == rhs

    def test_disjoint_jumps_give_zero(self, two_step):
        m = Process.from_node_values(two_step, {
            "r": [0], "u": [1], "d": [-1],
            "uu": [1], "ud": [1], "du": [-1], "dm": [-1], "dd": [-1]}, dim=1)
        y = Process.from_node_values(two_step, {
            "r": [0], "u": [0], "d": [0],
            "uu": [1], "ud": [-1], "du": [1], "dm": [1], "dd": [-2]}, dim=1)
        mu = jump_measure(m)
        g = project_onto_jump_measure(y, mu, two_step)
        zero = Process.zero(two_step, 1)
        assert predictable_bracket(y, m, two_step) == zero
        assert predictable_bracket(star_integral(g, mu, two_step), m,
                                   two_step) == zero

    def test_ter1_cross_projection(self, w_ter, ter1):
        m = w_ter.component(0)
        y = w_ter.component(1)
        mu = jump_measure(m)
        g = project_onto_jump_measure(y, mu, ter1)
        lhs = predictable_bracket(y, m, ter1)
        rhs = predictable_bracket(star_integral(g, mu, ter1), m, ter1)
        assert lhs == rhs

"""Constraint detection, star-to-dot rewrites, and the K solvers."""

from fractions import Fraction

import pytest

from filtration_lab import (
    JumpFunction,
    Process,
    bracket,
    dot_integral,
    jump_measure,
    random_tree,
    star_integral,
)
from filtration_lab.constraint import (
    AccessibleSlot,
    ConstraintSystem,
    accessible_star_to_dot,
    constraint_martingales,
    detect_fpcc,
    expand_integrand,
    jump_supports_disjoint,
    slot_events_disjoint,
    solve_accessible_K,
    solve_inaccessible_K,
    star_to_dot,
    value_slots_from_measure,
)
from filtration_lab.errors import (
    ConstraintMismatch,
    NotAStoppingTime,
    NotOrthogonal,
    PartitionNotMeasurable,
    ProbabilitySumNotOne,
    RankDeficient,
    SpanDeficient,
    VanishingWeight,
)
from filtration_lab.fuzz import (
    random_basis,
    random_jump_function,
    random_scenario,
    rng_for,
)

F = Fraction


@pytest.fixture
def shared_value_tree(ter1):
    """Two children share the jump value 1, the third jumps by -2."""
    return Process.from_node_values(
        ter1, {"r": [0], "a": [1], "b": [1], "c": [-2]}, dim=1)


class TestDetectFpcc:
    def test_bin1_menu(self, w_bin):
        cs = detect_fpcc(jump_measure(w_bin))
        assert cs.n == 2
        # slots are sorted ascending on the location vectors
        assert cs.slots[(1, "r")] == ((F(-1),), (F(1),))

    def test_ter1_all_distinct(self, w_ter):
        cs = detect_fpcc(jump_measure(w_ter))
        assert cs.n == 3

    def test_shared_value_shrinks_menu(self, shared_value_tree):
        # oracle: distinct-location count per atom is 2, not 3
        cs = detect_fpcc(jump_measure(shared_value_tree))
        assert cs.n == 2
        assert cs.slots[(1, "r")] == ((F(-2),), (F(1),))


class TestConstraintMartingales:
    def test_bin1_increments(self, w_bin, bin1):
        mu = jump_measure(w_bin)
        cs = detect_fpcc(mu)
        x = constraint_martingales(mu, cs)
        # slot for location +1 is index 1; increment 1{u} - 1/2
        assert x.increment(1, 0) == (F(-1, 2), F(1, 2))
        assert x.increment(1, 1) == (F(1, 2), F(-1, 2))
        assert x.is_martingale(bin1)

    def test_empty_slot_component_vanishes(self, two_step):
        x = Process.from_node_values(two_step, {
            "r": [0], "u": [0], "d": [0],
            "uu": [1], "ud": [-1], "du": [1], "dm": [2], "dd": [-3]}, dim=1)
        mu = jump_measure(x)
        cs = detect_fpcc(mu)
        assert cs.n == 3
        assert cs.slots[(2, "u")][2] is None
        xs = constraint_martingales(mu, cs)
        # third slot is empty above u: its component stays put there
        assert xs.at(2, 0)[2] == xs.at(1, 0)[2]
        assert xs.at(2, 1)[2] == xs.at(1, 1)[2]

    def test_slot_events_disjoint(self, w_ter, ter1):
        mu = jump_measure(w_ter)
        cs = detect_fpcc(mu)
        assert slot_events_disjoint(mu, cs)

    def test_slot_events_disjoint_fails_off_menu(self, w_ter):
        # a hand-built menu leaving out the charged location of node c; a
        # system detect_fpcc builds lists every one, so the CLI never sees this
        mu = jump_measure(w_ter)
        cs = detect_fpcc(mu)
        short = {key: tuple(None if v == mu.location("c") else v for v in menu)
                 for key, menu in cs.slots.items()}
        assert not slot_events_disjoint(
            mu, ConstraintSystem(cs.filtration, cs.dim, cs.n, short))

    def test_compensated_components_comove(self, w_bin):
        # the raw slot events are disjoint, but compensating couples the
        # components through their predictable parts on a shared atom
        mu = jump_measure(w_bin)
        x = constraint_martingales(mu, detect_fpcc(mu))
        cross = bracket(x.component(0), x.component(1))
        assert cross.at(1, 0) == (F(-1, 4),)
        assert not jump_supports_disjoint(x)

    def test_constraint_mismatch_detected(self, w_bin, w_ter):
        # the measure lives on bin1, the system on ter1
        mu_bin = jump_measure(w_bin)
        cs_ter = detect_fpcc(jump_measure(w_ter))
        with pytest.raises(ConstraintMismatch, match="different trees"):
            constraint_martingales(mu_bin, cs_ter)

    def test_menu_listing_a_location_twice_rejected(self, w_bin):
        # both slots would claim the location, expand_integrand only the first
        cs = detect_fpcc(jump_measure(w_bin))
        doubled = {key: menu + menu[:1] for key, menu in cs.slots.items()}
        with pytest.raises(ConstraintMismatch, match="twice"):
            ConstraintSystem(cs.filtration, cs.dim, cs.n + 1, doubled)


class TestStarToDot:
    def test_idempotence_on_slot_indicator(self, w_ter, ter1):
        mu = jump_measure(w_ter)
        cs = detect_fpcc(mu)
        xs = constraint_martingales(mu, cs)
        alpha = cs.slots[(1, "r")][1]
        gauge = cs.gauges[1]
        g = JumpFunction.from_callable(
            mu, ter1, lambda t, v: gauge(v) if v == alpha else 0)
        h, certificate = star_to_dot(g, mu, cs)
        assert certificate.holds
        assert h.at(1, 0) == (F(0), F(1), F(0))
        assert certificate.star_side == xs.component(1)

    def test_zero_function(self, w_ter, ter1):
        mu = jump_measure(w_ter)
        cs = detect_fpcc(mu)
        g = JumpFunction.from_callable(mu, ter1, lambda t, v: 0)
        h, certificate = star_to_dot(g, mu, cs)
        assert h == Process.zero(ter1, cs.n)
        assert certificate.holds

    def test_ter1_quadratic_both_sides(self, w_ter, ter1):
        mu = jump_measure(w_ter)
        cs = detect_fpcc(mu)
        g = JumpFunction.from_callable(mu, ter1, lambda t, v: v[0] ** 2)
        h, certificate = star_to_dot(g, mu, cs)
        assert certificate.holds
        # oracle: evaluate both sides independently
        star = star_integral(g, mu, ter1)
        dot = dot_integral(h, constraint_martingales(mu, cs))
        assert star == dot

    def test_reexpansion_closes_the_loop(self):
        for seed in range(4):
            tree = random_tree(seed, horizon=2, max_branching=3)
            rng = rng_for(seed, "reexpand")
            w = random_basis(tree, rng)
            mu = jump_measure(w)
            cs = detect_fpcc(mu)
            xs = constraint_martingales(mu, cs)
            g = JumpFunction.from_callable(
                mu, tree, lambda t, v: v[0] - 2 * v[-1] ** 2 + 1)
            h, certificate = star_to_dot(g, mu, cs)
            assert certificate.holds
            back = expand_integrand(h, mu, cs)
            assert star_integral(back, mu, tree) == dot_integral(h, xs)

    def test_wrong_compensator_breaks_both_certificates(self, w_bin, bin1):
        # the slot martingales read the successor masses, not the table, so
        # a star side compensated by a wrong nu no longer matches them
        mu = jump_measure(w_bin)
        g = JumpFunction.from_callable(mu, bin1, lambda t, v: v[0] + 3)
        # the stored law at (1, "r"): 3/4 on -1 and 1/4 on +1, as masses over 4
        table = mu.compensator(bin1)
        table.laws[(1, "r")] = (4, ((bin1.location_id((F(-1),)), 3),
                                    (bin1.location_id((F(1),)), 1)))
        assert table.entries[(1, "r")] == {(F(-1),): F(3, 4), (F(1),): F(1, 4)}
        cs = detect_fpcc(mu)
        h, certificate = star_to_dot(g, mu, cs)
        assert not certificate.holds
        back = expand_integrand(h, mu, cs)
        assert star_integral(back, mu, bin1) != certificate.dot_side


class TestAccessibleStarToDot:
    def test_unit_weights(self, w_ter, ter1):
        mu = jump_measure(w_ter)
        slots = [AccessibleSlot(tau=1, classes=(["a"], ["b"], ["c"]))]
        g = JumpFunction.from_callable(mu, ter1, lambda t, v: v[1] + 3)
        conversion = accessible_star_to_dot(g, mu, slots)
        assert conversion.holds
        assert conversion.star_side == star_integral(g, mu, ter1)

    def test_weight_scaling_cancels(self, w_ter, ter1):
        mu = jump_measure(w_ter)
        g = JumpFunction.from_callable(mu, ter1, lambda t, v: v[0])
        plain = accessible_star_to_dot(
            g, mu, [AccessibleSlot(tau=1, classes=(["a"], ["b"], ["c"]))])
        scaled = accessible_star_to_dot(
            g, mu,
            [AccessibleSlot(tau=1, classes=(["a"], ["b"], ["c"]), weight=2)])
        assert plain.holds and scaled.holds
        assert scaled.scale.at(1, 0) == (F(1, 2),)
        assert scaled.martingales == plain.martingales.scale(2)
        assert scaled.dot_side == plain.dot_side

    def test_unknown_leaf_rejected(self, w_ter):
        mu = jump_measure(w_ter)
        slots = [AccessibleSlot(tau=1, classes=(["a"], ["b"], ["zz"]))]
        with pytest.raises(PartitionNotMeasurable):
            accessible_star_to_dot(
                JumpFunction.from_callable(mu, w_ter.tree, lambda t, v: 1),
                mu, slots)

    @pytest.mark.parametrize("tau", [1.5, F(3, 2), True])
    def test_non_integral_time_rejected(self, w_ter, tau):
        mu = jump_measure(w_ter)
        slots = [AccessibleSlot(tau=tau, classes=(["a"], ["b"], ["c"]))]
        with pytest.raises(NotAStoppingTime):
            accessible_star_to_dot(
                JumpFunction.from_callable(mu, w_ter.tree, lambda t, v: 1),
                mu, slots)

    def test_zero_weight_rejected(self, w_ter):
        mu = jump_measure(w_ter)
        slots = [AccessibleSlot(tau=1, classes=(["a"], ["b"], ["c"]), weight=0)]
        with pytest.raises(VanishingWeight):
            accessible_star_to_dot(
                JumpFunction.from_callable(mu, w_ter.tree, lambda t, v: 1),
                mu, slots)

    def test_slots_from_measure(self, ter1):
        x = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [-1], "c": [0]}, dim=1)
        mu = jump_measure(x)
        slots = value_slots_from_measure(mu)
        assert len(slots) == 1
        # locations in ascending order, quiet class last
        assert slots[0].classes == (frozenset({1}), frozenset({0}),
                                    frozenset({2}))

    def test_slots_from_measure_under_every_enlargement(self):
        """Each conditioning atom puts only its own leaves into the classes,
        so they stay disjoint and the conversion holds under all 72
        enlargements of fuzz seeds 0-49 (seed 1's G0 used to overlap)."""
        converted = 0
        for seed in range(50):
            scenario = random_scenario(seed)
            mu = jump_measure(scenario.basis_process())
            for name, enlargement in sorted(scenario.enlargements.items()):
                filtration = enlargement.filtration()
                g = random_jump_function(mu, filtration,
                                         rng_for(seed, "slots", name))
                slots = value_slots_from_measure(mu, filtration)
                assert accessible_star_to_dot(g, mu, slots, filtration).holds
                converted += 1
        assert converted == 72


class TestSolveAccessibleK:
    def test_two_state_worked_numbers(self):
        gamma = [[1], [-1]]
        p = [F(1, 2), F(1, 2)]
        k = solve_accessible_K(gamma, p)
        assert k == [[F(1, 2), F(-1, 2)]]

    def test_underdetermined_substitutes_back(self):
        gamma = [[1, 0, 1], [-1, 1, 0], [0, -1, -1]]
        p = [F(1, 3), F(1, 3), F(1, 3)]
        k = solve_accessible_K(gamma, p)
        n, d = 3, 3
        for h in range(n):
            target = [(1 if j == h else 0) - p[h] for j in range(n)]
            combo = [sum(F(gamma[j][i]) * k[i][h] for i in range(d))
                     for j in range(n)]
            assert combo == target

    def test_span_deficient(self):
        with pytest.raises(SpanDeficient):
            solve_accessible_K([[0], [0]], [F(1, 2), F(1, 2)])

    def test_probability_sum_checked(self):
        with pytest.raises(ProbabilitySumNotOne):
            solve_accessible_K([[1], [-1]], [F(1, 2), F(1, 3)])

    def test_orthogonality_checked(self):
        with pytest.raises(NotOrthogonal):
            solve_accessible_K([[1], [1]], [F(1, 2), F(1, 2)])


class TestSolveInaccessibleK:
    def test_identity(self):
        k = solve_inaccessible_K([[1, 0], [0, 1]])
        assert k == [[F(1), F(0)], [F(0), F(1)]]

    def test_wide_row_least_index(self):
        k = solve_inaccessible_K([[2, 3]])
        assert k == [[F(1, 2)], [F(0)]]

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            solve_inaccessible_K([[1, 2], [2, 4]])

"""Representation property, reconstruction, and the orthogonal family."""

from fractions import Fraction

import pytest

from filtration_lab import (
    Process,
    StoppingTime,
    bracket,
    dot_integral,
    jump_measure,
)
from filtration_lab.constraint import l1_gauge, slot_events_disjoint
from filtration_lab.errors import (
    ConstraintMismatch,
    NoRepresentation,
    NotAMartingale,
    NotMeasurable,
)
from filtration_lab.fuzz import random_basis, rng_for
from filtration_lab.representation import (
    check_mrp,
    conditional_multiplicity,
    jump_constraint,
    orthogonalize,
    reconstruct_accessible,
    representation_coefficient,
    single_jump_coefficient,
    translate_integrand,
)

F = Fraction


class TestCheckMrp:
    def test_bin1_complete(self, w_bin):
        report = check_mrp(w_bin)
        assert report.holds
        assert report.ranks["r"] == (2, 1)

    def test_ter1_scalar_fails_with_witness(self, ter1):
        w = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [-1], "c": [0]}, dim=1)
        report = check_mrp(w)
        assert not report.holds
        assert report.failing_atom == "r"
        # oracle: the mean-zero vector outside the span of (1,-1,0)
        assert report.counterexample == (F(1), F(1), F(-2))

    def test_ter1_two_dims_hold(self, w_ter):
        assert check_mrp(w_ter).holds

    def test_non_martingale_rejected(self, ter1):
        x = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [1], "c": [1]}, dim=1)
        with pytest.raises(NotAMartingale):
            check_mrp(x)


class TestRepresentationCoefficient:
    def test_basis_component_gets_unit_vector(self, w_ter):
        h = representation_coefficient(w_ter.component(1), w_ter)
        assert h.at(1, 0) == (F(0), F(1))

    def test_constant_gets_zero(self, w_ter, ter1):
        x = Process.from_node_values(
            ter1, {n: [7] for n in ["r", "a", "b", "c"]}, dim=1)
        h = representation_coefficient(x, w_ter)
        assert h == Process.zero(ter1, 2)

    def test_ter1_solved_coefficients(self, w_ter, ter1):
        x = Process.from_node_values(
            ter1, {"r": [0], "a": [5], "b": [-1], "c": [-4]}, dim=1)
        h = representation_coefficient(x, w_ter)
        # oracle: 2x2 solve of H1 (1,-1) + H2 (1,1) = (5,-1), checked on c
        assert h.at(1, 0) == (F(3), F(2))
        assert dot_integral(h, w_ter) == x.minus_initial()

    def test_unrepresentable_raises(self, ter1):
        w = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [-1], "c": [0]}, dim=1)
        x = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [1], "c": [-2]}, dim=1)
        with pytest.raises(NoRepresentation):
            representation_coefficient(x, w)


class TestConditionalMultiplicity:
    def test_bin1_root(self, bin1):
        count, witness = conditional_multiplicity(bin1, 1, "r", d=1)
        assert count == 2
        assert witness.probs == (F(1, 2), F(1, 2))

    def test_ter1_root(self, ter1):
        count, witness = conditional_multiplicity(ter1, 1, "r")
        assert count == 3
        assert witness.subatoms == ("a", "b", "c")


class TestSingleJump:
    def test_settled_payoff_gets_zero(self, w_bin, bin1):
        tau = StoppingTime.constant(bin1, 1)
        h = single_jump_coefficient([3, 3], tau, w_bin)
        assert h == Process.zero(bin1, 1)

    def test_bin1_indicator(self, w_bin, bin1):
        tau = StoppingTime.constant(bin1, 1)
        h = single_jump_coefficient([1, 0], tau, w_bin)
        # oracle: H solves H * (+-1) = 1{u} - 1/2
        assert h.at(1, 0) == (F(1, 2),)
        assert h.at(1, 1) == (F(1, 2),)

    def test_basis_jump_gets_unit_vector(self, w_ter, ter1):
        tau = StoppingTime.constant(ter1, 1)
        h = single_jump_coefficient([1, 1, -2], tau, w_ter)
        assert h.at(1, 0) == (F(0), F(1))

    def test_unsettled_payoff_rejected(self, two_step):
        rng = rng_for(0, "single-jump")
        w = random_basis(two_step, rng)
        tau = StoppingTime.constant(two_step, 1)
        with pytest.raises(NotMeasurable):
            single_jump_coefficient([1, 2, 0, 0, 0], tau, w)


class TestReconstructAccessible:
    def test_ter1_worked_increments(self, w_ter):
        basis = reconstruct_accessible(w_ter)
        assert basis.d == 2
        x2 = basis.process
        # oracle: (1/2)(1{a} - 1/3) on (a, b, c)
        assert [x2.increment(1, i)[0] for i in range(3)] == [
            F(1, 3), F(-1, 6), F(-1, 6)]
        assert [x2.increment(1, i)[1] for i in range(3)] == [
            F(-1, 6), F(1, 3), F(-1, 6)]
        wit = basis.witnesses[0]
        assert wit.subatoms == ("a", "b", "c")

    def test_empty_class_component_flat(self, two_step):
        rng = rng_for(1, "reconstruct")
        w = random_basis(two_step, rng)
        basis = reconstruct_accessible(w)
        wit = next(w2 for w2 in basis.witnesses
                   if w2.time == 2 and w2.atom == "u")
        assert wit.subatoms[2] is None        # padding class
        x2 = basis.process
        for leaf in (0, 1):                   # leaves below u
            assert x2.increment(2, leaf)[2] == 0

    def test_jump_bound_and_value_menu(self, two_step):
        """Each component moves by at most 1 and, per conditioning atom,
        takes at most two distinct nonzero increment values."""
        rng = rng_for(2, "reconstruct")
        w = random_basis(two_step, rng)
        basis = reconstruct_accessible(w)
        x2 = basis.process
        for t in range(1, 3):
            for node in two_step.nodes_at[t - 1]:
                for h in range(basis.d + 1):
                    seen = set()
                    for leaf in node.leaves():
                        step = x2.increment(t, leaf)[h]
                        assert abs(step) <= 1
                        if step != 0:
                            seen.add(step)
                    assert len(seen) <= 2

    def test_mrp_required(self, ter1):
        w = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [-1], "c": [0]}, dim=1)
        with pytest.raises(NoRepresentation):
            reconstruct_accessible(w)


class TestOrthogonalize:
    def test_slot_events_stay_disjoint(self, w_ter):
        m = w_ter.component(0)
        xo = orthogonalize(m)
        mu = jump_measure(m)
        from filtration_lab.constraint import detect_fpcc
        assert slot_events_disjoint(mu, detect_fpcc(mu))
        assert xo.is_martingale(m.tree)

    def test_translated_integrand_identity(self, w_ter, ter1):
        m = w_ter.component(0)
        xo = orthogonalize(m)
        h = Process.from_node_values(
            ter1, {"r": [0], "a": [5], "b": [5], "c": [5]}, dim=1)
        translated = translate_integrand(h, m)
        assert dot_integral(h, m) == dot_integral(translated, xo)

    def test_slot_integrand_recovers_component(self, w_ter, ter1):
        from filtration_lab.constraint import detect_fpcc
        m = w_ter.component(0)
        mu = jump_measure(m)
        cs = detect_fpcc(mu)
        xo = orthogonalize(m)
        k = 1
        alpha = cs.slots[(1, "r")][k]
        gauge_value = l1_gauge(alpha)
        # integrand picking slot k: dot against X recovers component k
        hk = Process.from_node_values(
            ter1,
            {"r": [0] * cs.n,
             **{n: [gauge_value if j == k else 0 for j in range(cs.n)]
                for n in ["a", "b", "c"]}},
            dim=cs.n)
        lifted = dot_integral(hk.scale(1 / gauge_value ** 2), xo)
        assert lifted == xo.component(k).scale(1 / gauge_value)


class TestJumpConstraint:
    def test_bin1_menu(self, w_bin):
        cs = jump_constraint(w_bin)
        assert cs.n == 2
        assert set(cs.slots[(1, "r")]) == {(F(1),), (F(-1),)}

    def test_ter1_within_bound(self, w_ter):
        cs = jump_constraint(w_ter)
        assert cs.n == 3                     # = d + 1 with d = 2

    def test_constant_driver_empty_menu(self):
        # a constant driver only has the representation property on a
        # single path, where nothing ever jumps
        from filtration_lab import random_tree
        tree = random_tree(0, horizon=2, max_branching=1)
        w = Process.from_node_values(
            tree, {n: [2] for n in tree.nodes}, dim=1)
        cs = jump_constraint(w)
        assert cs.n == 0

    def test_overwide_menu_rejected(self, ter1):
        # three distinct jump values with a one-dimensional driver
        w = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [-1], "c": [0]}, dim=1)
        with pytest.raises((ConstraintMismatch, NoRepresentation)):
            jump_constraint(w)


class TestReconstructedFamilyMrp:
    def test_ter1_stacked_family(self, w_ter):
        basis = reconstruct_accessible(w_ter)
        xo = orthogonalize(w_ter)
        stacked = Process.stack([basis.process, xo])
        assert check_mrp(stacked).holds

"""Drift operator, deflators, the multiplier solve, and covariance kernels."""

import dataclasses
from fractions import Fraction

import pytest

from filtration_lab import Process, build_tree, enlarge, random_tree
from filtration_lab.enlargement import (
    check_compensator_abs_continuity,
    check_full_viability,
    covariance_kernel,
    default_viability_family,
    doleans_exponential,
    drift_operator,
    find_deflator,
    g_star_consistency,
    solve_drift_multiplier,
    verify_drift_multiplier,
    verify_fbd,
)
from filtration_lab.calculus import JumpFunction, jump_measure
from filtration_lab.errors import (
    DimensionMismatch,
    NotADeflator,
    NotAMartingale,
    NotIncreasing,
    NotStrictlyPositive,
)
from filtration_lab.fuzz import (
    random_basis,
    random_enlargement,
    random_representable,
    rng_for,
)
from filtration_lab.linalg import null_space
from filtration_lab.representation import reconstruct_accessible

F = Fraction


@pytest.fixture
def two_step_g(two_step):
    """Reveals the first move at time 0; refines nothing further at time 1."""
    return enlarge(two_step, {0: [["uu", "ud"], ["du", "dm", "dd"]],
                              1: [["uu", "ud"], ["du", "dm", "dd"]]},
                   name="G2")


class TestDriftOperator:
    def test_trivial_enlargement(self, w_ter, ter1):
        result = drift_operator(w_ter.component(0), ter1)
        assert result.drift == Process.zero(ter1, 1)
        assert result.g_martingale == w_ter.component(0)

    def test_ter1_ga_worked_numbers(self, w_ter, ga):
        result = drift_operator(w_ter.component(0), ga)
        # oracle: conditional increment means under G0
        assert result.drift.increment(1, 0) == (F(1),)
        assert result.drift.increment(1, 1) == (F(-1, 2),)
        assert result.drift.increment(1, 2) == (F(-1, 2),)
        assert result.g_martingale.is_martingale(ga)

    def test_linearity(self, two_step, two_step_g):
        rng = rng_for(3, "drift-linear")
        x = random_representable(random_basis(two_step, rng), rng)
        z = random_representable(random_basis(two_step, rng), rng)
        left = drift_operator(x.scale(3) + z.scale(-2), two_step_g).drift
        right = (drift_operator(x, two_step_g).drift.scale(3)
                 + drift_operator(z, two_step_g).drift.scale(-2))
        assert left == right

    def test_non_martingale_rejected(self, ter1, ga):
        x = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [1], "c": [1]}, dim=1)
        with pytest.raises(NotAMartingale):
            drift_operator(x, ga)


class TestDoleansExponential:
    def test_positive_martingale(self, w_bin, bin1):
        y = doleans_exponential(F(1, 2), w_bin)
        assert y.is_martingale(bin1)
        assert all(y.at(t, i)[0] > 0
                   for t in range(2) for i in range(2))
        assert y.at(1, 0) == (F(3, 2),)
        assert y.at(1, 1) == (F(1, 2),)


class TestFindDeflator:
    def test_trivial_enlargement_unit(self, s_ter, ter1):
        search = find_deflator(s_ter, ter1)
        assert search.feasible
        y = search.deflator.process
        assert all(y.at(t, i) == (F(1),) for t in range(2) for i in range(3))

    def test_gb_unit_deflator(self, s_ter, gb):
        # oracle: conditional means of dS vanish on {a,b} and on {c}
        search = find_deflator(s_ter, gb)
        assert search.feasible
        y = search.deflator.process
        assert all(y.at(t, i) == (F(1),) for t in range(2) for i in range(3))

    def test_ga_infeasible_with_witness(self, s_ter, ga):
        search = find_deflator(s_ter, ga)
        assert not search.feasible
        assert "b|c" in {audit.atom for audit in search.violations}
        by_atom = {audit.atom: audit for audit in search.audit}
        # on {b,c} the price can only move down: one-sided witness -1
        assert by_atom["b|c"].separating == -1
        assert by_atom["b|c"].floor == 0
        # on {a} the price must move up: witness +1
        assert by_atom["a"].separating == 1

    def test_positive_price_required(self, ter1, ga):
        s = Process.from_node_values(
            ter1, {"r": [1], "a": [2], "b": [-1], "c": [2]}, dim=1)
        with pytest.raises(NotStrictlyPositive):
            find_deflator(s, ga)

    def test_martingale_price_required(self, ter1, ga):
        s = Process.from_node_values(
            ter1, {"r": [1], "a": [2], "b": [2], "c": [2]}, dim=1)
        with pytest.raises(NotAMartingale):
            find_deflator(s, ga)


class TestFullViability:
    def test_trivial_enlargement_passes(self, w_ter, ter1):
        report = check_full_viability(ter1, default_viability_family(w_ter))
        assert report.viable

    def test_ga_refuted_by_price(self, s_ter, ga):
        report = check_full_viability(ga, [("S", s_ter)])
        assert not report.viable
        name, search = report.results[0]
        assert name == "S"
        assert "b|c" in {audit.atom for audit in search.violations}

    def test_gb_viable_for_price_with_unit_deflator(self, s_ter, gb):
        report = check_full_viability(gb, [("S", s_ter)])
        assert report.viable
        name, search = report.results[0]
        assert search.feasible
        for t in range(2):
            for i in range(3):
                assert search.deflator.process.at(t, i) == (1,)

    def test_gb_first_component_family_passes(self, w_ter, gb):
        # exponentials of the first component are flat on the revealed
        # singleton {c} and mixed-sign on {a,b}, so every member clears
        report = check_full_viability(
            gb, default_viability_family(w_ter.component(0)))
        assert report.viable
        for _, search in report.results:
            assert search.feasible

    def test_gb_second_component_exponential_refuted(self, w_ter, gb):
        # the second component still moves by -2 on the singleton {c}; a
        # deflator there would need 1 + a*(-2) = 1, impossible for a != 0
        price = doleans_exponential(F(1, 4), w_ter.component(1))
        report = check_full_viability(gb, [("exp2", price)])
        assert not report.viable
        _, search = report.results[0]
        assert "c" in {audit.atom for audit in search.violations}


class TestVerifyFbd:
    def test_trivial_both_sides_zero(self, w_bin, bin1):
        search = find_deflator(doleans_exponential(F(1, 2), w_bin), bin1)
        assert verify_fbd(w_bin, search.deflator, bin1)

    def test_gb_zero_drift_driver(self, w_ter, gb):
        # increments (1,-1,0) have zero conditional mean on {a,b} and {c}
        x = w_ter.component(0)
        price = doleans_exponential(F(1, 2), x)
        search = find_deflator(price, gb)
        assert search.feasible
        assert drift_operator(x, gb).drift == Process.zero(x.tree, 1)
        assert verify_fbd(x, search.deflator, gb)

    def test_nontrivial_deflator(self, two_step, two_step_g):
        rng = rng_for(5, "fbd")
        w = random_basis(two_step, rng)
        x = random_representable(w, rng)
        bound = max(abs(c) for t in range(1, 3)
                    for i in range(5) for c in x.increment(t, i))
        a = F(1, 2) / bound
        search = find_deflator(doleans_exponential(a, x), two_step_g)
        if search.feasible:
            assert verify_fbd(x, search.deflator, two_step_g)

    def test_bad_deflator_rejected(self, w_bin, bin1):
        search = find_deflator(doleans_exponential(F(1, 2), w_bin), bin1)
        doubled = dataclasses.replace(
            search.deflator, process=search.deflator.process.scale(2))
        with pytest.raises(NotADeflator):
            verify_fbd(w_bin, doubled, bin1)

    @pytest.mark.parametrize("wrong, error, message", [
        ("doubled", NotADeflator, "deflator must start at 1"),
        ("not-a-martingale", NotADeflator,
         "deflator is not a martingale for the larger flow"),
        ("two-dimensional-target", DimensionMismatch,
         "pathwise products take scalar processes"),
        ("unfair-target", NotADeflator, "deflated price is not a martingale"),
    ])
    def test_each_refusal_is_named(self, ter1, s_ter, w_ter, gb, wrong, error,
                                   message):
        search = find_deflator(s_ter, gb)
        assert search.feasible
        y = search.deflator.process
        lifted = Process.from_node_values(  # mean 5/4 on the GB atom {a, b}
            ter1, {"r": [1], "a": [2], "b": [F(1, 2)], "c": [1]}, dim=1)
        deflator = {
            "doubled": dataclasses.replace(search.deflator, process=y.scale(2)),
            "not-a-martingale": dataclasses.replace(search.deflator,
                                                    process=lifted),
            "two-dimensional-target": dataclasses.replace(search.deflator,
                                                          target=w_ter),
            "unfair-target": dataclasses.replace(search.deflator, target=lifted),
        }[wrong]
        with pytest.raises(error, match=f"^{message}$"):
            verify_fbd(s_ter, deflator, gb)


class TestCompensatorAbsContinuity:
    def test_trivial_enlargement(self, ter1):
        a = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [0], "c": [0]}, dim=1)
        ok, witness = check_compensator_abs_continuity(a, ter1)
        assert ok and witness is None

    def test_ter1_ga_indicator(self, ter1, ga):
        a = Process.from_node_values(
            ter1, {"r": [0], "a": [1], "b": [0], "c": [0]}, dim=1)
        ok, witness = check_compensator_abs_continuity(a, ga)
        assert ok and witness is None

    def test_decreasing_rejected(self, ter1, ga):
        a = Process.from_node_values(
            ter1, {"r": [1], "a": [0], "b": [0], "c": [0]}, dim=1)
        with pytest.raises(NotIncreasing):
            check_compensator_abs_continuity(a, ga)


class TestSolveDriftMultiplier:
    def test_trivial_enlargement(self, w_ter, ter1):
        basis = reconstruct_accessible(w_ter)
        sol = solve_drift_multiplier(ter1, basis)
        assert sol.holds
        assert sol.phi == Process.zero(ter1, 2)

    def test_ter1_ga_worked_numbers(self, w_ter, ga):
        basis = reconstruct_accessible(w_ter)
        sol = solve_drift_multiplier(ga, basis)
        assert sol.holds
        # phi is constant per G0-atom: 4 sigma with the frame built from p
        assert sol.phi.at(1, 0) == (F(6), F(0))
        assert sol.phi.at(1, 1) == (F(-3), F(0))
        assert sol.phi.at(1, 2) == (F(-3), F(0))
        # frozen drift of the first reconstructed component on {b, c}
        drift = drift_operator(basis.process.component(0), ga).drift
        assert drift.increment(1, 1) == (F(-1, 6),)
        assert drift.increment(1, 2) == (F(-1, 6),)

    def test_empty_class_convention(self, two_step, two_step_g):
        # the atom with two children pads to three classes; the empty class
        # contributes rho = 0 by the 0/0 - 1 = 0 convention
        rng = rng_for(7, "multiplier")
        basis = reconstruct_accessible(random_basis(two_step, rng))
        slot_probs = {(wit.time, wit.atom): wit.probs
                      for wit in basis.witnesses}
        assert slot_probs[(2, "u")].count(F(0)) == 1
        sol = solve_drift_multiplier(two_step_g, basis)
        assert sol.holds


class TestVerifyDriftMultiplier:
    def test_basis_components(self, w_ter, ga):
        basis = reconstruct_accessible(w_ter)
        sol = solve_drift_multiplier(ga, basis)
        for h in range(basis.d + 1):
            assert verify_drift_multiplier(sol, basis.process.component(h), ga)

    def test_random_representable(self, two_step, two_step_g):
        rng = rng_for(11, "verify-multiplier")
        basis = reconstruct_accessible(random_basis(two_step, rng))
        sol = solve_drift_multiplier(two_step_g, basis)
        assert sol.holds
        for _ in range(5):
            x = random_representable(basis.process, rng)
            assert verify_drift_multiplier(sol, x, two_step_g)

    def test_corrupted_multiplier_detected(self, w_ter, ga):
        basis = reconstruct_accessible(w_ter)
        sol = solve_drift_multiplier(ga, basis)
        bad = dataclasses.replace(sol, phi=sol.phi.scale(2))
        assert not verify_drift_multiplier(bad, basis.process.component(0), ga)


class TestCovarianceKernel:
    def test_half_half_zero_worked_example(self, two_step, two_step_g):
        rng = rng_for(13, "kernel")
        basis = reconstruct_accessible(random_basis(two_step, rng))
        certificate = covariance_kernel(two_step_g, basis, 2, "u")
        assert certificate.holds
        # oracle: C = (1/16)(diag(p) - p pT) with p = (1/2, 1/2, 0)
        s = F(1, 16)
        expected = (
            (s * F(1, 4), -s * F(1, 4), F(0)),
            (-s * F(1, 4), s * F(1, 4), F(0)),
            (F(0), F(0), F(0)),
        )
        assert certificate.matrix == expected
        assert certificate.claimed_basis == (
            (F(1), F(1), F(0)), (F(0), F(0), F(1)))
        independent = null_space([list(row) for row in expected])
        assert len(independent) == 2
        assert certificate.kernel_matches

    def test_uniform_kernel_is_constants(self, w_ter, ga):
        basis = reconstruct_accessible(w_ter)
        certificate = covariance_kernel(ga, basis, 1, "r")
        assert certificate.holds
        assert certificate.claimed_basis == ((F(1), F(1), F(1)),)

    def test_trivial_enlargement_projector(self, w_ter, ter1):
        basis = reconstruct_accessible(w_ter)
        certificate = covariance_kernel(ter1, basis, 1, "r")
        assert certificate.holds


class TestGStarConsistency:
    def test_identity_function_gives_drift_corrected_basis(self, w_ter, ga):
        basis = reconstruct_accessible(w_ter)
        x2 = basis.process.component(0)
        mu = jump_measure(x2)
        g = JumpFunction.component(mu, x2.tree, 0)
        assert g_star_consistency(g, mu, ga)

    def test_trivial_enlargement(self, w_ter, ter1):
        mu = jump_measure(w_ter.component(0))
        g = JumpFunction.from_callable(mu, ter1, lambda t, v: v[0] + 2)
        assert g_star_consistency(g, mu, ter1)

    def test_ter1_ga_arbitrary_table(self, w_ter, ga):
        mu = jump_measure(w_ter.component(1))
        g = JumpFunction.from_callable(
            mu, w_ter.tree, lambda t, v: 3 * v[0] ** 2 - v[0] + 1)
        assert g_star_consistency(g, mu, ga)

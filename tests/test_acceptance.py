"""Acceptance gate: ten exact-arithmetic guarantees, one test per criterion.

Every check runs over a deterministic fuzzed corpus (trees up to horizon 3,
branching up to 4) plus the worked scenarios from conftest. All equalities
are exact; a single counterexample fails the criterion.
"""

from fractions import Fraction as F

import pytest
from draws import random_martingale

from filtration_lab import (
    JumpFunction,
    Process,
    accessible_star_to_dot,
    check_compensator_abs_continuity,
    check_full_viability,
    check_mrp,
    conditional_multiplicity,
    constraint_martingales,
    covariance_kernel,
    detect_fpcc,
    doleans_exponential,
    dot_integral,
    drift_operator,
    enlarge,
    expand_integrand,
    find_deflator,
    jump_measure,
    max_abs_increment,
    orthogonalize,
    predictable_bracket,
    project_onto_jump_measure,
    reconstruct_accessible,
    slot_events_disjoint,
    solve_accessible_K,
    solve_drift_multiplier,
    solve_inaccessible_K,
    star_integral,
    star_to_dot,
    verify_drift_multiplier,
    verify_fbd,
)
from filtration_lab.cli import main
from filtration_lab.errors import (
    NotOrthogonal,
    ProbabilitySumNotOne,
    RankDeficient,
    SpanDeficient,
)
from filtration_lab.fuzz import (
    random_basis,
    random_enlargement,
    random_increasing,
    random_jump_function,
    random_representable,
    rng_for,
    undersized_basis,
    widest_branching,
)
from filtration_lab.linalg import null_space, rank, right_inverse
from filtration_lab.tree import random_tree

CORPUS_SIZE = 100


@pytest.fixture(scope="module")
def corpus():
    """100 deterministic instances: tree, representing basis, enlargement."""
    instances = []
    for seed in range(CORPUS_SIZE):
        horizon = 1 + seed % 3
        branching = 2 + (seed // 3) % 3
        tree = random_tree(seed, horizon=horizon, max_branching=branching)
        w = random_basis(tree, rng_for(seed, "acceptance", "w"))
        g = random_enlargement(tree, rng_for(seed, "acceptance", "g"))
        instances.append((seed, tree, w, g))
    return instances


def announce(number, detail):
    print(f"criterion {number:02d} PASS: {detail}")


def test_criterion_01_star_to_dot_identity(corpus):
    """Measure integrals equal dot integrals, both directions, node for node."""
    conversions = 0
    for seed, tree, w, _ in corpus:
        mu = jump_measure(w)
        cs = detect_fpcc(mu)
        xs = constraint_martingales(mu, cs)
        for j in range(5):
            g = random_jump_function(mu, tree, rng_for(seed, "c1", j))
            h, certificate = star_to_dot(g, mu, cs)
            assert certificate.holds
            star = star_integral(g, mu, tree)
            dot = dot_integral(h, xs)
            assert star == dot
            assert certificate.star_side == star
            assert certificate.dot_side == dot
            back = expand_integrand(h, mu, cs)
            assert star_integral(back, mu, tree) == dot
            conversions += 1
    assert conversions == 5 * CORPUS_SIZE
    announce(1, f"{conversions} conversions exact with re-expansion")


def test_criterion_02_accessible_conversions(corpus):
    """Accessible-time conversions and both coefficient solvers, exactly."""
    from filtration_lab import value_slots_from_measure

    for seed, tree, w, _ in corpus:
        mu = jump_measure(w)
        slots = value_slots_from_measure(mu)
        for j in range(2):
            g = random_jump_function(mu, tree, rng_for(seed, "c2", j))
            conversion = accessible_star_to_dot(g, mu, slots)
            assert conversion.holds
            assert conversion.star_side == star_integral(g, mu, tree)

    solved = 0
    violations = 0
    for i in range(500):
        rng = rng_for(i, "c2", "accessible")
        n = rng.randrange(2, 5)
        weights = [rng.randrange(1, 6) for _ in range(n)]
        total = sum(weights)
        p = [F(wt, total) for wt in weights]
        # columns p_last e_i - p_i e_last are orthogonal to p and span
        base = [[(p[n - 1] if k == i2 else F(0))
                 - (p[i2] if k == n - 1 else F(0))
                 for i2 in range(n - 1)] for k in range(n)]
        while True:
            mix = [[F(rng.randrange(-3, 4)) for _ in range(n - 1)]
                   for _ in range(n - 1)]
            if right_inverse(mix) is not None:
                break
        gamma = [[sum(base[k][j] * mix[j][i2] for j in range(n - 1))
                  for i2 in range(n - 1)] for k in range(n)]
        k_matrix = solve_accessible_K(gamma, p)
        for h in range(n):
            for k in range(n):
                combo = sum(gamma[k][i2] * k_matrix[i2][h]
                            for i2 in range(n - 1))
                assert combo == (F(1) if k == h else F(0)) - p[h]
        solved += 1
        if i % 10 == 0:
            with pytest.raises(ProbabilitySumNotOne):
                solve_accessible_K(gamma, [p[0] + 1] + p[1:])
            ones = [[F(1)] * (n - 1) for _ in range(n)]
            with pytest.raises(NotOrthogonal):
                solve_accessible_K(ones, p)
            zero = [[F(0)] * (n - 1) for _ in range(n)]
            with pytest.raises(SpanDeficient):
                solve_accessible_K(zero, p)
            violations += 3

    for i in range(500):
        rng = rng_for(i, "c2", "inaccessible")
        n = rng.randrange(1, 4)
        d = n + rng.randrange(0, 3)
        while True:
            gamma = [[F(rng.randrange(-4, 5)) for _ in range(d)]
                     for _ in range(n)]
            if rank([list(row) for row in gamma]) == n:
                break
        k_matrix = solve_inaccessible_K(gamma)
        for a in range(n):
            for b in range(n):
                combo = sum(gamma[a][j] * k_matrix[j][b] for j in range(d))
                assert combo == (F(1) if a == b else F(0))
        solved += 1
        if i % 10 == 0:
            doubled = [list(gamma[0]), [2 * c for c in gamma[0]]]
            with pytest.raises(RankDeficient):
                solve_inaccessible_K(doubled)
            violations += 1
    assert solved == 1000
    announce(2, f"{solved} coefficient systems exact, "
                f"{violations} precondition violations detected")


def test_criterion_03_reconstructed_family(corpus):
    """Class indicators plus orthogonalized drivers: joint representation,
    disjoint slot events, increments bounded by one."""
    for seed, tree, w, _ in corpus:
        assert check_mrp(w).holds
        rebuilt = reconstruct_accessible(w)
        combined = Process.stack([rebuilt.process, orthogonalize(w)])
        assert check_mrp(combined).holds
        mu = jump_measure(w)
        assert slot_events_disjoint(mu, detect_fpcc(mu))
        assert max_abs_increment(rebuilt.process) <= 1
    announce(3, f"{CORPUS_SIZE} reconstructed families pass jointly")


def test_criterion_04_conditional_multiplicity(corpus):
    """Child counts never exceed dimension + 1; one dimension less fails."""
    probed = 0
    for seed, tree, w, _ in corpus:
        base = tree.base_filtration()
        for t in range(1, tree.horizon + 1):
            for atom in base.atoms(t - 1):
                count, _ = conditional_multiplicity(tree, t, atom.label)
                assert count <= w.dim + 1
        if widest_branching(tree) >= 3:
            short = undersized_basis(tree, rng_for(seed, "c4"))
            assert not check_mrp(short).holds
            probed += 1
    assert probed > 0
    announce(4, f"multiplicity bounded on {CORPUS_SIZE} instances, "
                f"{probed} undersized bases rejected")


def test_criterion_05_jump_constraint_menu(corpus):
    """Every realized jump sits in the detected predictable menu."""
    nodes_checked = 0
    for seed, tree, w, _ in corpus:
        cs = detect_fpcc(jump_measure(w))
        base = tree.base_filtration()
        zero = (F(0),) * w.dim
        for t in range(1, tree.horizon + 1):
            label_of = {}
            for atom in base.atoms(t - 1):
                for leaf in atom.leaves:
                    label_of[leaf] = atom.label
            for leaf in range(len(tree.leaves)):
                jump = tuple(w.increment(t, leaf))
                menu = cs.slots.get((t, label_of[leaf]), ())
                assert jump == zero or jump in menu
                nodes_checked += 1
    announce(5, f"{nodes_checked} jumps all inside their menus")


def test_criterion_06_drift_multiplier(corpus, w_ter, ga):
    """One multiplier pair reproduces every representable drift."""
    verified = 0
    for seed, tree, w, g in corpus:
        rebuilt = reconstruct_accessible(w)
        solution = solve_drift_multiplier(g, rebuilt)
        assert solution.holds
        rng = rng_for(seed, "c6")
        for _ in range(10):
            x = random_representable(rebuilt.process, rng)
            assert verify_drift_multiplier(solution, x, g)
            verified += 1

    # worked numbers, derived by hand from the three-leaf scenario
    drift_w1 = drift_operator(w_ter.component(0), ga).drift
    assert drift_w1.increment(1, 0) == (F(1),)
    assert drift_w1.increment(1, 1) == (F(-1, 2),)
    assert drift_w1.increment(1, 2) == (F(-1, 2),)
    rebuilt = reconstruct_accessible(w_ter)
    drift_x0 = drift_operator(rebuilt.process.component(0), ga).drift
    assert drift_x0.increment(1, 1) == (F(-1, 6),)
    assert drift_x0.increment(1, 2) == (F(-1, 6),)
    solution = solve_drift_multiplier(ga, rebuilt)
    assert solution.holds
    assert solution.phi.at(1, 0) == (F(6), F(0))
    assert solution.phi.at(1, 1) == (F(-3), F(0))
    assert solution.phi.at(1, 2) == (F(-3), F(0))
    announce(6, f"{verified} representable drifts matched plus worked numbers")


def test_criterion_07_deflator_viability(corpus, s_ter, ga, gb):
    """Deflator search refutes and certifies correctly; deflated basis
    martingales verify exactly on every feasible fuzzed instance."""
    search = find_deflator(s_ter, ga)
    assert not search.feasible
    assert "b|c" in {audit.atom for audit in search.violations}
    report = check_full_viability(ga, [("S", s_ter)])
    assert not report.viable

    search = find_deflator(s_ter, gb)
    assert search.feasible
    for t in range(2):
        for leaf in range(3):
            assert search.deflator.process.at(t, leaf) == (1,)
    report = check_full_viability(gb, [("S", s_ter)])
    assert report.viable

    feasible = 0
    for seed, tree, w, g in corpus:
        rebuilt = reconstruct_accessible(w)
        rng = rng_for(seed, "c7")
        for _ in range(3):
            x = random_representable(rebuilt.process, rng)
            bound = max_abs_increment(x)
            if bound == 0:
                continue
            price = doleans_exponential(F(1, 2) / bound, x)
            result = find_deflator(price, g)
            if result.feasible:
                assert verify_fbd(x, result.deflator, g)
                feasible += 1
    assert feasible > 0
    announce(7, f"witness and unit deflator exact, "
                f"{feasible} fuzzed deflators verified")


def test_criterion_08_compensator_and_kernel(corpus, two_step):
    """Enlarged compensators only charge where the base one does; conditional
    covariance kernels match their claimed null spaces."""
    kernels = 0
    for seed, tree, w, g in corpus:
        a = random_increasing(tree, rng_for(seed, "c8"))
        ok, witness = check_compensator_abs_continuity(a, g)
        assert ok, witness
        rebuilt = reconstruct_accessible(w)
        base = tree.base_filtration()
        for t in range(1, tree.horizon + 1):
            for atom in base.atoms(t - 1):
                certificate = covariance_kernel(g, rebuilt, t, atom.label)
                assert certificate.holds
                kernels += 1

    # worked kernel: successor weights (1/2, 1/2, 0) above one atom
    g2 = enlarge(two_step, {
        0: [["uu", "ud"], ["du", "dm", "dd"]],
        1: [["uu", "ud"], ["du", "dm", "dd"]],
    }, name="G2")
    rebuilt = reconstruct_accessible(
        random_basis(two_step, rng_for(13, "kernel")))
    certificate = covariance_kernel(g2, rebuilt, 2, "u")
    assert certificate.holds
    scale = F(1, 16)
    expected = (
        (scale * F(1, 4), -scale * F(1, 4), F(0)),
        (-scale * F(1, 4), scale * F(1, 4), F(0)),
        (F(0), F(0), F(0)),
    )
    assert certificate.matrix == expected
    assert certificate.claimed_basis == ((F(1), F(1), F(0)),
                                         (F(0), F(0), F(1)))
    assert len(null_space([list(row) for row in expected])) == 2
    assert certificate.kernel_matches
    announce(8, f"{kernels} kernel certificates plus worked example exact")


def test_criterion_09_projection_bracket_identity(corpus):
    """Projecting onto the jump measure preserves predictable brackets."""
    pairs = 0
    for seed, tree, _, _ in corpus:
        m = random_martingale(tree, rng_for(seed, "c9", "m"), dim=1)
        y = random_martingale(tree, rng_for(seed, "c9", "y"), dim=1)
        mu = jump_measure(m)
        g = project_onto_jump_measure(y, mu, tree)
        lhs = predictable_bracket(y, m, tree)
        rhs = predictable_bracket(star_integral(g, mu, tree), m, tree)
        assert lhs == rhs
        pairs += 1
    assert pairs == CORPUS_SIZE
    announce(9, f"{pairs} projected brackets identical")


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    """Same seeds, same bytes, for both report-producing commands."""
    from pathlib import Path

    fixtures = Path(__file__).resolve().parents[1] / \
        "src" / "filtration_lab" / "fixtures"
    outputs = []
    for stem in ("a", "b"):
        target = tmp_path / f"run_{stem}.json"
        code = main(["run", str(fixtures / "ter1_ga.json"),
                     "--format", "json", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]

    outputs = []
    for stem in ("a", "b"):
        target = tmp_path / f"fuzz_{stem}.json"
        code = main(["fuzz", "--count", "5", "--seed", "0",
                     "--format", "json", "--out", str(target),
                     "--repro-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    announce(10, "run and campaign reports byte-identical across reruns")

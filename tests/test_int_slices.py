"""Int slices against the Fraction code they replaced.

Each process slice holds int numerators over one denominator. On the fuzz
corpus, the slice-wise arithmetic (+, -, scale, component, stack,
minus_initial, the pathwise product, the increments), the martingale and
measurability tests, process comparison and the batched phi . [N, X]^p of
the multiplier identity must give exactly what a leaf-by-leaf walk in
Fraction arithmetic gives, on adapted, leaf-stored and enlarged inputs.
Every slice the library stores must have a positive denominator and be
reduced.
"""

from fractions import Fraction
from math import gcd

import pytest

from filtration_lab import (
    Process,
    bracket,
    dot_integral,
    drift_operator,
    dual_predictable_projection,
    find_deflator,
    jump_measure,
    predictable_bracket,
    reconstruct_accessible,
    solve_drift_multiplier,
    star_integral,
)
from filtration_lab.calculus import _predictable_products
from filtration_lab.enlargement import doleans_exponential
from filtration_lab.errors import DimensionMismatch, NoRepresentation
from filtration_lab.fuzz import (
    random_enlargement,
    random_jump_function,
    random_representable,
    random_scenario,
    rng_for,
)

F = Fraction
ZERO = Fraction(0)
SEEDS = range(50)


# --- the Fraction walks ------------------------------------------------------

def leafwise(x: Process, fn):
    """fn(t, leaf) on every (time, leaf) as a leaf-stored process."""
    tree = x.tree
    return [[tuple(fn(t, leaf)) for leaf in range(tree.n_leaves)]
            for t in range(tree.horizon + 1)]


def ref_linear(x, y, sign):
    return leafwise(x, lambda t, i: (a + sign * b for a, b in
                                     zip(x.values[t][i], y.values[t][i])))


def ref_measurable(x, t, part):
    """The leaf values at t constant on every block of part."""
    return all(len({x.values[t][i] for i in atom.leaves}) == 1
               for atom in part.atoms)


def ref_is_martingale(x, filtration):
    """Adapted, and each atom's probability-weighted leaf sum of X_t equals
    its mass times X_{t-1}."""
    tree = x.tree
    if not all(ref_measurable(x, t, part) for t, part in enumerate(filtration.parts)):
        return False
    for t in range(1, tree.horizon + 1):
        for atom in filtration.atoms(t - 1):
            total = [ZERO] * x.dim
            for i in atom.leaves:
                for k, c in enumerate(x.values[t][i]):
                    total[k] += tree.leaf_probs[i] * c
            if [c / atom.prob for c in total] != list(x.values[t - 1][atom.leaves[0]]):
                return False
    return True


def ref_first_divergence(x, y):
    for t in range(x.tree.horizon + 1):
        for i in range(x.tree.n_leaves):
            if x.values[t][i] != y.values[t][i]:
                return (t, i)
    return None


def ref_phi_bracket(phi, n, x, filtration):
    """Leaf walk of phi . [N, X]^p: [N_j, X]^p moves on each time-(t-1)
    node by the leaf-probability-weighted mean of Delta N_j Delta X, and
    the integral adds <phi, Delta [N, X]^p> along each path."""
    tree = x.tree
    rows = [[(ZERO,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        moves = {}
        for node in tree.nodes_at[t - 1]:
            total = [ZERO] * n.dim
            for i in node.leaves():
                dx = x.values[t][i][0] - x.values[t - 1][i][0]
                for j in range(n.dim):
                    total[j] += (tree.leaf_probs[i] * dx
                                 * (n.values[t][i][j] - n.values[t - 1][i][j]))
            for i in node.leaves():
                moves[i] = [c / node.prob for c in total]
        rows.append([(rows[-1][i][0] + sum(
            (a * b for a, b in zip(phi.values[t][i], moves[i])), start=ZERO),)
            for i in range(tree.n_leaves)])
    return rows


# --- inputs ------------------------------------------------------------------

def n_brackets(n, x):
    """The d base-flow brackets [N_j, X]^p of a scalar X, batched into one
    process: one conditional mean of width d per node."""
    return _predictable_products(n, x, x.tree.base_filtration(), n.dim,
                                 lambda dn, dx: tuple(c * dx[0] for c in dn))


def same(x: Process, rows) -> bool:
    return [list(row) for row in x.values] == [list(row) for row in rows]


def leaf_stored(x: Process) -> Process:
    return Process(x.tree, [list(row) for row in x.values], dim=x.dim)


def wild(tree, dim, rng):
    return Process(tree, [[tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(dim))
                           for _ in range(tree.n_leaves)]
                          for _ in range(tree.horizon + 1)], dim=dim)


def flows(scenario):
    tree = scenario.tree
    yield tree.base_filtration()
    for _, enlargement in sorted(scenario.enlargements.items()):
        yield enlargement.filtration()
    yield random_enlargement(tree, rng_for(scenario.seed, "int-slices"),
                             name="H").filtration()


def processes(scenario, rng):
    """Base-adapted, leaf-stored, enlarged and predictable inputs."""
    tree = scenario.tree
    w, s = scenario.basis_process(), scenario.processes["S"]
    out = [w, s, leaf_stored(w), wild(tree, 1, rng), wild(tree, w.dim, rng)]
    for filtration in list(flows(scenario))[1:]:
        terminal = [(F(rng.randint(-4, 4), rng.randint(1, 3)),)
                    for _ in range(tree.n_leaves)]
        out.append(Process.doob(tree, terminal, filtration))
        out.append(dual_predictable_projection(w, filtration))
        out.append(drift_operator(w.component(0), filtration).g_martingale)
    return out


# --- the sites ---------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_slice_arithmetic_matches_fraction_walk(seed):
    scenario = random_scenario(seed)
    rng = rng_for(seed, "int-slices", "arithmetic")
    inputs = processes(scenario, rng)
    for x in inputs:
        factor = F(rng.randint(-6, 6), rng.randint(1, 5))
        assert same(x.scale(factor),
                    leafwise(x, lambda t, i: (factor * c for c in x.values[t][i])))
        for k in range(x.dim):
            assert same(x.component(k), leafwise(x, lambda t, i: (x.values[t][i][k],)))
        assert same(x.minus_initial(), leafwise(x, lambda t, i: (
            a - b for a, b in zip(x.values[t][i], x.values[0][i]))))
        assert leafwise(x, x.increment) == leafwise(x, lambda t, i: (
            a - b for a, b in zip(x.values[t][i], x.values[t - 1][i])) if t
            else (ZERO,) * x.dim)
        assert all(x._delta(t) is x._delta(t)
                   for t in range(1, x.tree.horizon + 1))
        for y in inputs:
            if y.dim != x.dim:
                with pytest.raises(DimensionMismatch):
                    x + y
                continue
            assert same(x + y, ref_linear(x, y, 1))
            assert same(x - y, ref_linear(x, y, -1))
            assert same(x._times(y), leafwise(x, lambda t, i: (
                a * b for a, b in zip(x.values[t][i], y.values[t][i]))))
        others = [y for y in inputs if y is not x][:2]
        assert same(Process.stack([x, *others]), leafwise(x, lambda t, i: sum(
            (p.values[t][i] for p in (x, *others)), ())))


@pytest.mark.parametrize("seed", SEEDS)
def test_martingale_and_measurability_tests_match_fraction_walk(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    inputs = processes(scenario, rng_for(seed, "int-slices", "tests"))
    for filtration in flows(scenario):
        for x in inputs:
            assert x.is_martingale(filtration) == ref_is_martingale(x, filtration)
            for t in range(tree.horizon + 1):
                for part in filtration.parts:
                    assert x._measurable(t, part) == ref_measurable(x, t, part)


@pytest.mark.parametrize("seed", SEEDS)
def test_comparison_matches_fraction_walk(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "int-slices", "compare")
    inputs = processes(scenario, rng)
    # equal values stored differently, and one value moved anywhere
    w = scenario.basis_process()
    t, leaf = rng.randrange(tree.horizon + 1), rng.randrange(tree.n_leaves)
    moved = [list(row) for row in w.values]
    moved[t][leaf] = tuple(c + F(1, 3) for c in moved[t][leaf])
    inputs += [w.scale(3).scale(F(1, 3)), Process(tree, moved, dim=w.dim)]
    for x in inputs:
        for y in inputs:
            if x.dim != y.dim:
                continue
            expected = ref_first_divergence(x, y)
            assert x.first_divergence(y) == expected
            assert (x == y) == (expected is None)
    assert w.first_divergence(inputs[-1]) == (t, leaf)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_phi_bracket_matches_fraction_walk(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    try:
        rebuilt = reconstruct_accessible(scenario.basis_process())
    except NoRepresentation:
        pytest.skip("driver without the representation property")
    rng = rng_for(seed, "int-slices", "phi")
    xs = rebuilt.process.components() + [
        random_representable(rebuilt.process, rng).minus_initial(),
        wild(tree, 1, rng)]
    for filtration in flows(scenario):
        solution = solve_drift_multiplier(filtration, rebuilt)
        assert solution.holds
        for x in xs:
            batched = dot_integral(solution.phi, n_brackets(solution.n, x),
                                   filtration)
            assert same(batched,
                        ref_phi_bracket(solution.phi, solution.n, x, filtration))


def reduced(x: Process) -> bool:
    """Every slice: a positive denominator, one cell of dim ints per block,
    and no prime dividing the denominator and every numerator."""
    return all(
        type(den) is int and den > 0
        and len(nums) == len(part.atoms)
        and all(len(cell) == x.dim and all(type(c) is int for c in cell)
                for cell in nums)
        and gcd(den, *(c for cell in nums for c in cell)) == 1
        for part, den, nums in zip(x.parts, x.dens, x.nums))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_stored_slice_is_reduced(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "int-slices", "reduced")
    w, s = scenario.basis_process(), scenario.processes["S"]
    mu = jump_measure(w)
    built = processes(scenario, rng) + [
        w + w, w - w, w.scale(0), w.scale(F(-4, 6)), Process.zero(tree, 2),
        Process.stack([w, s]), bracket(w, w), predictable_bracket(s, s, tree),
        doleans_exponential(F(1, 3), s), s._times(s),
        random_representable(w, rng),
        star_integral(random_jump_function(mu, tree, rng), mu, tree)]
    for filtration in flows(scenario):
        built.append(dot_integral(dual_predictable_projection(w, filtration)
                                  .scale(0), w, filtration))
        search = find_deflator(s, filtration)
        if search.feasible:
            built.append(search.deflator.process)
    try:
        rebuilt = reconstruct_accessible(w)
    except NoRepresentation:
        rebuilt = None
    if rebuilt is not None:
        built.append(rebuilt.process)
        for enlargement in scenario.enlargements.values():
            solution = solve_drift_multiplier(enlargement, rebuilt)
            built += [solution.n, solution.phi]
    for x in built:
        assert reduced(x)

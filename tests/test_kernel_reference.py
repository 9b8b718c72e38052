"""The conditional-mean kernel against the hand-written loops it replaced.

Each old_* function below is a verbatim copy of a weighted-mean loop the
library used to carry (Doob martingales, the martingale test, the
compensator of a process, the predictable bracket, the compensator table's
overlap masses, the projection onto a jump measure, the leafwise
conditional expectation, the accessible class masses, the deflator's
one-period weights, the drift multiplier's p_bar, the covariance step and
the single-jump coefficient's centring mean), plus the old per-cell process
comparison and the old subset scans of enlargement validation. On the fuzz
corpus, under the base flow and every enlargement, the library must return
exactly what they return: on the scenarios' own processes, on copies whose
every cell is its own tuple, and on processes that are not adapted to any
flow, with or without shared cells. The library no longer keeps p_bar, so
the old p_bar is held to phi and the Gram-Schmidt frame instead:
p_bar_h / p_h = 1 + 2^-t sum_i phi_i eps_ih on every charged class h.
The kernel check no longer takes sub-atom moments, so the old covariance
step is held to integral_reference's _moment_sums, the reference the
kernel certificates are compared with.
"""

from fractions import Fraction

import pytest

from filtration_lab import (
    JumpFunction,
    Process,
    StoppingTime,
    drift_operator,
    dual_predictable_projection,
    enlarge,
    find_deflator,
    jump_measure,
    predictable_bracket,
    project_onto_jump_measure,
    reconstruct_accessible,
    single_jump_coefficient,
    solve_drift_multiplier,
)
from filtration_lab.constraint import (
    _normalize_slots,
    _plan_accessible,
    value_slots_from_measure,
)
from filtration_lab.errors import (
    DimensionMismatch,
    FiltrationLabError,
    NoRepresentation,
    NotARefinement,
    NotMeasurable,
    NotMonotone,
    NotPredictable,
    TimeOutOfRange,
)
from filtration_lab.fuzz import random_increasing, random_scenario, rng_for
from filtration_lab.linalg import gram_schmidt, solve
from filtration_lab.rationals import as_fractions, to_fraction
from filtration_lab.tree import as_filtration, conditional_expectation_leafwise
from check_reference import atom_labelled
from integral_reference import Shared, _atoms_within, _moment_sums, class_leaves

F = Fraction
ZERO = Fraction(0)
SEEDS = range(50)


# --- the replaced loops, verbatim -------------------------------------------

def old_doob(tree, terminal, filtration=None):
    """Process.doob."""
    filtration = as_filtration(filtration or tree)
    vecs = []
    for v in terminal:
        if not isinstance(v, (list, tuple)):
            v = (v,)
        vecs.append(tuple(to_fraction(c) for c in v))
    if len(vecs) != tree.n_leaves:
        raise DimensionMismatch(
            f"expected {tree.n_leaves} terminal values, got {len(vecs)}")
    dims = {len(v) for v in vecs}
    if len(dims) != 1:
        raise DimensionMismatch("ragged terminal vectors")
    d = dims.pop()
    data = []
    for t in range(tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t):
            mean = [ZERO] * d
            for i in atom.leaves:
                w = tree.leaf_probs[i]
                for k in range(d):
                    mean[k] += w * vecs[i][k]
            mean = tuple(m / atom.prob for m in mean)
            for i in atom.leaves:
                row[i] = mean
        data.append(row)
    return Process(tree, data, dim=d)


def old_is_martingale(self, filtration_like) -> bool:
    """Process.is_martingale."""
    filtration = as_filtration(filtration_like)
    if not self.is_adapted(filtration):
        return False
    tree = self.tree
    for t in range(1, tree.horizon + 1):
        for atom in filtration.atoms(t - 1):
            mean = [ZERO] * self.dim
            for i in atom.leaves:
                w = tree.leaf_probs[i]
                inc = self.increment(t, i)
                for k in range(self.dim):
                    mean[k] += w * inc[k]
            if any(m != 0 for m in mean):
                return False
    return True


def old_conditional_increment_means(x, filtration, t):
    """calculus._conditional_increment_means."""
    tree = x.tree
    out = {}
    for atom in filtration.atoms(t - 1):
        mean = [ZERO] * x.dim
        for i in atom.leaves:
            w = tree.leaf_probs[i]
            inc = x.increment(t, i)
            for k in range(x.dim):
                mean[k] += w * inc[k]
        out[atom] = tuple(m / atom.prob for m in mean)
    return out


def old_dual_predictable_projection(a, filtration_like):
    """calculus.dual_predictable_projection."""
    filtration = as_filtration(filtration_like)
    tree = a.tree
    data = [[tuple([ZERO] * a.dim)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        means = old_conditional_increment_means(a, filtration, t)
        row = [None] * tree.n_leaves
        for atom, mean in means.items():
            move = Shared(lambda prev: tuple(p + m for p, m in zip(prev, mean)))
            moved = move([data[t - 1][i] for i in atom.leaves])
            for i, vec in zip(atom.leaves, moved):
                row[i] = vec
        data.append(row)
    return Process(tree, data, dim=a.dim)


def old_predictable_bracket(x, y, filtration_like):
    """calculus.predictable_bracket."""
    filtration = as_filtration(filtration_like)
    if x.tree is not y.tree:
        raise DimensionMismatch("bracket across different trees")
    if x.dim != y.dim:
        raise DimensionMismatch(f"bracket dims {x.dim} and {y.dim}")
    tree = x.tree
    data = [[(ZERO,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t - 1):
            mean = ZERO
            for i in atom.leaves:
                w = tree.leaf_probs[i]
                xi = x.increment(t, i)
                yi = y.increment(t, i)
                mean += w * sum((a * b for a, b in zip(xi, yi)), start=ZERO)
            mean /= atom.prob
            move = Shared(lambda prev: (prev[0] + mean,))
            moved = move([data[t - 1][i] for i in atom.leaves])
            for i, vec in zip(atom.leaves, moved):
                row[i] = vec
        data.append(row)
    return Process(tree, data, dim=1)


def old_compensator_entries(measure, filtration):
    """CompensatorTable.__init__."""
    tree = measure.tree
    entries = {}
    for t in range(1, tree.horizon + 1):
        if not measure.nodes_at(t):
            continue
        for atom in filtration.atoms(t - 1):
            # the atom's mass under each support node, from its own leaves
            overlap = {}
            for i in atom.leaves:
                node = tree.node_at(t, i)
                if node.id in measure.support:
                    overlap[node] = overlap.get(node, ZERO) + tree.leaf_probs[i]
            dist = {}
            for node in sorted(overlap, key=lambda n: n.id):
                value = measure.location(node.id)
                dist[value] = dist.get(value, ZERO) + overlap[node] / atom.prob
            if dist:
                entries[(t, atom.label)] = dist
    return entries


def old_project_onto_jump_measure(y, mu, filtration_like):
    """calculus.project_onto_jump_measure."""
    filtration = as_filtration(filtration_like)
    if y.dim != 1:
        raise DimensionMismatch("projection expects a scalar martingale")
    y.require_martingale(filtration, what="projected process")
    tree = y.tree
    table = mu.compensator(filtration)
    entries = {}
    for (t, label), dist in table.entries.items():
        atom = atom_labelled(filtration, t - 1, label)
        atom_leaves = set(atom.leaves)
        # numerator and denominator of the conditional mean per location
        num = {v: ZERO for v in dist}
        den = {v: ZERO for v in dist}
        for node in mu.nodes_at(t):
            value = mu.location(node.id)
            for i in range(node.leaf_lo, node.leaf_hi):
                if i in atom_leaves:
                    w = tree.leaf_probs[i] / atom.prob
                    num[value] += w * y.increment(t, i)[0]
                    den[value] += w
        mass = sum(dist.values(), start=ZERO)
        hat = sum((num[v] for v in dist), start=ZERO)
        if mass == 1:
            correction = ZERO
        else:
            correction = hat / (1 - mass)
        for v in dist:
            entries[(t, label, v)] = num[v] / den[v] + correction
    return JumpFunction(filtration, entries)


def old_conditional_expectation_leafwise(x, t, filtration_like):
    """tree.conditional_expectation_leafwise."""
    filtration = as_filtration(filtration_like)
    tree = filtration.tree
    values = [to_fraction(v) for v in x]
    if len(values) != tree.n_leaves:
        raise TimeOutOfRange(
            f"expected {tree.n_leaves} leaf values, got {len(values)}")
    out = [ZERO] * tree.n_leaves
    for atom in filtration.atoms(t):
        mean = sum((tree.leaf_probs[i] * values[i] for i in atom.leaves),
                   start=ZERO) / atom.prob
        for i in atom.leaves:
            out[i] = mean
    return out


def old_class_probs(tree, atom, classes):
    """The class masses of constraint._plan_accessible."""
    probs = []
    for k, cls in enumerate(classes):
        members = [leaf for leaf in atom.leaves if leaf in cls]
        mass = sum((tree.leaf_probs[i] for i in members), start=ZERO)
        probs.append(mass / atom.prob)
    return probs


def old_deflator_weights(filtration, t, atom):
    """find_deflator's q."""
    subs = _atoms_within(filtration, t, atom.leaves)
    q = [sub.prob / atom.prob for sub in subs]
    return q


def old_p_bar(tree, wit, sub, width):
    """solve_drift_multiplier's p_bar."""
    sub_leaves = set(sub.leaves)
    p_bar = []
    leaves = class_leaves(tree, wit)
    for h in range(width):
        mass = sum((tree.leaf_probs[i] for i in leaves[h]
                    if i in sub_leaves), start=ZERO)
        p_bar.append(mass / sub.prob)
    return p_bar


def old_increment_moments(tree, x2, time, sub, width):
    """covariance_kernel's mean and second moment."""
    mean = [ZERO] * width
    for i in sub.leaves:
        w = tree.leaf_probs[i] / sub.prob
        inc = x2.increment(time, i)
        for h in range(width):
            mean[h] += w * inc[h]
    m = [[ZERO] * width for _ in range(width)]
    for i in sub.leaves:
        w = tree.leaf_probs[i] / sub.prob
        inc = x2.increment(time, i)
        for g in range(width):
            for h in range(width):
                m[g][h] += w * (inc[g] - mean[g]) * (inc[h] - mean[h])
    return mean, m


def old_single_jump_coefficient(xi, r, w):
    """representation.single_jump_coefficient."""
    tree = w.tree
    if r.tree is not tree:
        raise DimensionMismatch("stopping time and basis on different trees")
    if not r.is_predictable():
        raise NotPredictable("single-jump coefficients need a predictable time")
    w.require_martingale(tree, what="basis")
    values = [to_fraction(v) for v in xi]
    if len(values) != tree.n_leaves:
        raise DimensionMismatch(
            f"expected {tree.n_leaves} payoff values, got {len(values)}")
    # measurability at the reached time: constant on each atom of that time
    for t in range(tree.horizon + 1):
        for node in tree.nodes_at[t]:
            leaves = list(node.leaves())
            if r.values[leaves[0]] != t:
                continue
            first = values[leaves[0]]
            if any(values[i] != first for i in leaves[1:]):
                raise NotMeasurable(
                    f"payoff not settled at time {t} on atom {node.id}")

    data = [[tuple([ZERO] * w.dim)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [tuple([ZERO] * w.dim)] * tree.n_leaves
        for node in tree.nodes_at[t - 1]:
            leaves = list(node.leaves())
            if r.values[leaves[0]] != t:
                continue
            mean = sum((tree.leaf_probs[i] * values[i] for i in leaves),
                       start=ZERO) / node.prob
            children = node.children
            matrix = [[w.increment(t, child.leaf_lo)[j] for j in range(w.dim)]
                      for child in children]
            rhs = [values[child.leaf_lo] - mean for child in children]
            h = solve(matrix, rhs)
            if h is None:
                raise NoRepresentation(
                    "centered payoff outside the basis span",
                    time=t, atom=node.id, witness=tuple(rhs))
            vec = tuple(h)
            for i in leaves:
                row[i] = vec
        data.append(row)
    return Process(tree, data, dim=w.dim)


def old_eq(self, other):
    """Process.__eq__."""
    return (isinstance(other, Process) and other.tree is self.tree
            and other.values == self.values)


def old_first_divergence(self, other):
    """Process.first_divergence."""
    if other.tree is not self.tree or other.dim != self.dim:
        raise DimensionMismatch("process shapes differ")
    for t in range(self.tree.horizon + 1):
        for leaf in range(self.tree.n_leaves):
            if self.values[t][leaf] != other.values[t][leaf]:
                return (t, leaf)
    return None


def old_enlarged_partitions(tree, given):
    """The validation and completion loop of Enlargement.__init__, on
    partitions already turned into sorted leaf-index tuples."""
    def common_refinement(base_cells, previous):
        if previous is None:
            return [tuple(sorted(b)) for b in base_cells]
        out = []
        for b in base_cells:
            for p in previous:
                cell = sorted(b & set(p))
                if cell:
                    out.append(tuple(cell))
        return out

    partitions = []
    previous = None
    base = tree.base_filtration()
    for t in range(tree.horizon + 1):
        base_cells = [set(a.leaves) for a in base.atoms(t)]
        if t in given:
            cells = [tuple(c) for c in given[t]]
            check_partition(cells, tree.n_leaves, t)
            for cell in cells:
                if not any(set(cell) <= b for b in base_cells):
                    raise NotARefinement(
                        f"cell {cell} at time {t} is not inside a base atom")
            if previous is not None:
                prev_cells = [set(c) for c in previous]
                for cell in cells:
                    if not any(set(cell) <= p for p in prev_cells):
                        raise NotMonotone(
                            f"cell {cell} at time {t} splits across time-{t-1} cells")
        else:
            cells = common_refinement(base_cells, previous)
        cells = tuple(sorted(cells, key=lambda c: c[0]))
        partitions.append(cells)
        previous = cells
    return partitions


def check_partition(cells, n_leaves, t):
    seen = set()
    for cell in cells:
        for leaf in cell:
            if leaf in seen:
                raise NotARefinement(f"leaf {leaf} duplicated at time {t}")
            seen.add(leaf)
    if len(seen) != n_leaves:
        raise NotARefinement(f"partition at time {t} does not cover all leaves")


# --- inputs -----------------------------------------------------------------

def flows(scenario):
    """The base filtration, then every enlargement's, in name order."""
    yield scenario.tree.base_filtration()
    for _, enlargement in sorted(scenario.enlargements.items()):
        yield enlargement.filtration()


def unshared(x: Process) -> Process:
    """Equal process whose every (time, leaf) cell is its own tuple."""
    return Process(x.tree, [[tuple(list(vec)) for vec in row]
                            for row in x.values], dim=x.dim)


def wild(tree, dim, rng, pool=None):
    """Process adapted to no flow: each (time, leaf) cell drawn at random,
    from a small pool of shared tuples when pool is given."""
    def draw():
        return tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(dim))
    shared = [draw() for _ in range(pool)] if pool else None
    return Process(tree, [[rng.choice(shared) if pool else draw()
                           for _ in range(tree.n_leaves)]
                          for _ in range(tree.horizon + 1)], dim=dim)


def processes(scenario, rng):
    """The scenario's processes, unshared copies, and wild ones."""
    tree = scenario.tree
    w = scenario.basis_process()
    s = scenario.processes["S"]
    out = [w, s, unshared(w), unshared(s), random_increasing(tree, rng)]
    for dim in (1, w.dim):
        out.append(wild(tree, dim, rng))
        out.append(wild(tree, dim, rng, pool=3))
    return out


def same(a, b):
    return a.dim == b.dim and a.values == b.values


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raised."""
    try:
        return fn(*args)
    except FiltrationLabError as exc:
        return (type(exc), str(exc))


# --- the sites --------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_conditional_means_of_processes(seed):
    """Doob martingales, the martingale test, compensators of processes and
    predictable brackets, on adapted, unshared and wild inputs."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "kernel-reference")
    inputs = processes(scenario, rng)
    terminal = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(2)) for _ in range(tree.n_leaves)]
    for filtration in flows(scenario):
        assert same(Process.doob(tree, terminal, filtration),
                    old_doob(tree, terminal, filtration))
        scalar = [v[0] for v in terminal]
        assert same(Process.doob(tree, scalar, filtration),
                    old_doob(tree, scalar, filtration))
        drifted = drift_operator(scenario.basis_process(), filtration)
        for x in inputs + [drifted.g_martingale, drifted.drift]:
            assert x.is_martingale(filtration) == old_is_martingale(x, filtration)
            assert same(dual_predictable_projection(x, filtration),
                        old_dual_predictable_projection(x, filtration))
            for y in (x, [z for z in inputs if z.dim == x.dim][-1]):
                assert same(predictable_bracket(x, y, filtration),
                            old_predictable_bracket(x, y, filtration))


@pytest.mark.parametrize("seed", SEEDS)
def test_leafwise_conditional_expectation(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "kernel-reference", "leafwise")
    x = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(tree.n_leaves)]
    for filtration in flows(scenario):
        for t in range(tree.horizon + 1):
            assert (conditional_expectation_leafwise(x, t, filtration)
                    == old_conditional_expectation_leafwise(x, t, filtration))


@pytest.mark.parametrize("seed", SEEDS)
def test_compensator_and_projection(seed):
    """Overlap masses in order, and the projection of every martingale the
    flow has at hand onto the driver's jump measure."""
    scenario = random_scenario(seed)
    w = scenario.basis_process()
    s = scenario.processes["S"]
    for mu in (jump_measure(w), jump_measure(unshared(w))):
        for filtration in flows(scenario):
            got = mu.compensator(filtration).entries
            want = old_compensator_entries(mu, filtration)
            assert [(k, list(d.items())) for k, d in got.items()] == \
                [(k, list(d.items())) for k, d in want.items()]
            ys = [drift_operator(c, filtration).g_martingale
                  for c in w.components() + [s]]
            ys += [unshared(y) for y in ys]
            for y in ys:
                new = outcome(project_onto_jump_measure, y, mu, filtration)
                old = outcome(old_project_onto_jump_measure, y, mu, filtration)
                if isinstance(old, tuple):
                    assert new == old
                else:
                    assert new.entries == old.entries
                    assert list(new.entries) == list(old.entries)


@pytest.mark.parametrize("seed", SEEDS)
def test_accessible_class_masses(seed):
    """Class probabilities, read back from the class martingales' jumps."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    mu = jump_measure(scenario.basis_process())
    for filtration in flows(scenario):
        slots = value_slots_from_measure(mu, filtration)
        rows, count = _normalize_slots(tree, slots)
        try:
            plan = _plan_accessible(mu, filtration, rows, count)
        except FiltrationLabError:
            continue  # rejected before any mass is weighed
        y = plan.martingales
        for t in range(1, tree.horizon + 1):
            for atom in filtration.atoms(t - 1):
                i = atom.leaves[0]
                slot = [row for row in rows if row[0].values[i] == t]
                if not slot:
                    continue
                (_, classes, weight), = slot
                got = [(1 if i in cls else 0) - (now - before) / weight
                       for cls, now, before in zip(classes, y.values[t][i],
                                                   y.values[t - 1][i])]
                assert got == old_class_probs(tree, atom, classes)


@pytest.mark.parametrize("seed", SEEDS)
def test_deflator_weights(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    s = scenario.processes["S"]
    for filtration in flows(scenario):
        audit = find_deflator(s, filtration).audit
        want = [tuple(old_deflator_weights(filtration, t, atom))
                for t in range(1, tree.horizon + 1)
                for atom in filtration.atoms(t - 1)]
        assert [record.weights for record in audit] == want


@pytest.mark.parametrize("seed", SEEDS)
def test_multiplier_and_covariance_moments(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    try:
        rebuilt = reconstruct_accessible(scenario.basis_process())
    except NoRepresentation:
        pytest.skip("driver without the representation property")
    width = rebuilt.d + 1
    by_slot = {(wit.time, wit.atom): wit for wit in rebuilt.witnesses}
    rng = rng_for(seed, "kernel-reference", "moments")
    xs = [rebuilt.process, unshared(rebuilt.process),
          wild(tree, width, rng), wild(tree, width, rng, pool=3)]
    for filtration in flows(scenario):
        solution = solve_drift_multiplier(filtration, rebuilt)
        for t in range(1, tree.horizon + 1):
            for node in tree.nodes_at[t - 1]:
                wit = by_slot[(t, node.id)]
                p = wit.probs
                units = [[F(int(j == h)) for j in range(width)] for h in range(width)]
                epsilons = gram_schmidt([p, *units])[1:]
                for sub in _atoms_within(filtration, t - 1, node.leaves()):
                    # from masses alone: p_bar_h / p_h = 1 + 2^-t sum_i
                    # phi_i eps_ih on every charged class h
                    phi = solution.phi.at(t, sub.leaves[0])
                    p_bar = old_p_bar(tree, wit, sub, width)
                    for h in range(width):
                        if p[h]:
                            assert p_bar[h] / p[h] == 1 + F(1, 2 ** t) * sum(
                                c * eps[h] for c, eps in zip(phi, epsilons))
                    for x in xs:
                        mean_den, mean, cov_den, cov = _moment_sums(x, t, sub)
                        m = [list(as_fractions(cov_den, row)) for row in cov]
                        old_mean, old_m = old_increment_moments(
                            tree, x, t, sub, width)
                        assert list(as_fractions(mean_den, mean)) == old_mean
                        assert m == old_m


@pytest.mark.parametrize("seed", SEEDS)
def test_single_jump_coefficient(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    w = scenario.basis_process()
    rng = rng_for(seed, "kernel-reference", "single-jump")
    for t in range(1, tree.horizon + 1):
        r = StoppingTime.constant(tree, t)
        # settled at t: constant on each time-t node
        xi = [None] * tree.n_leaves
        for node in tree.nodes_at[t]:
            v = F(rng.randint(-5, 5), rng.randint(1, 3))
            for i in node.leaves():
                xi[i] = v
        new = outcome(single_jump_coefficient, xi, r, w)
        old = outcome(old_single_jump_coefficient, xi, r, w)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert same(new, old)


# --- one walk for process comparison ----------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_process_comparison_matches_cellwise_walk(seed):
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "kernel-reference", "compare")
    inputs = processes(scenario, rng)
    pairs = [(x, y) for x in inputs for y in inputs if x.dim == y.dim]
    # one cell changed, late, in a process that shares its cells
    w = scenario.basis_process()
    t, leaf = tree.horizon, tree.n_leaves - 1
    bumped = [list(row) for row in w.values]
    bumped[t][leaf] = tuple(c + 1 for c in bumped[t][leaf])
    bumped = Process(tree, bumped, dim=w.dim)
    pairs += [(w, bumped), (bumped, w), (unshared(w), bumped), (w, w)]
    for x, y in pairs:
        assert (x == y) == old_eq(x, y)
        assert (x != y) == (not old_eq(x, y))
        assert x.first_divergence(y) == old_first_divergence(x, y)
    assert w.first_divergence(bumped) == (t, leaf)
    assert not (w == Process.zero(tree, dim=w.dim + 1))


# --- enlargement validation by leaf lookup -----------------------------------

def enlarged(tree, spec):
    """New partitions, or the error type and message."""
    try:
        return list(enlarge(tree, spec).partitions)
    except FiltrationLabError as exc:
        return (type(exc), str(exc))


def old_enlarged(tree, spec):
    given = {int(t): [tuple(sorted(cell)) for cell in cells]
             for t, cells in spec.items()}
    try:
        return old_enlarged_partitions(tree, given)
    except FiltrationLabError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("seed", SEEDS)
def test_enlargement_validation_matches_subset_scans(seed):
    """Cells, error classes, messages and the first offending cell, on
    valid specs, specs with times left out, and specs with leaves moved."""
    scenario = random_scenario(seed)
    tree = scenario.tree
    rng = rng_for(seed, "kernel-reference", "enlarge")
    specs = []
    for enlargement in scenario.enlargements.values():
        full = {t: [list(cell) for cell in cells]
                for t, cells in enumerate(enlargement.partitions)}
        specs.append(full)
        for t in full:
            specs.append({s: cells for s, cells in full.items() if s != t})
        specs.append({t: cells for t, cells in full.items() if t % 2})
        for _ in range(6):
            spec = {t: [list(cell) for cell in cells]
                    for t, cells in full.items()}
            t = rng.randrange(tree.horizon + 1)
            cells = spec[t]
            if len(cells) > 1:
                a, b = rng.sample(range(len(cells)), 2)
                if len(cells[a]) > 1:
                    cells[b].append(cells[a].pop())
                else:
                    cells[b].extend(cells.pop(a))
            specs.append(spec)
    specs.append({0: [[i] for i in range(tree.n_leaves)]})
    for spec in specs:
        assert enlarged(tree, spec) == old_enlarged(tree, spec)

"""The rank test, the compensator scan and the jump locations on Fractions,
as the library had them.

Test-only reference. check_mrp ranked each node's increments read through
Process.increment, one Fraction per (component, child), and took the
counterexample from the null space of those rows stacked with the branch
probabilities. compensator_scan built both compensators as processes, for
the base flow and for the larger one, and compared their increments. Each
location was a Fraction vector, its cell the vector over the lcm of its
denominators (cell), and each menu gauge was taken from the vector (gauge).
The library now works on Delta W's and Delta A's int slices and keys each
location by its reduced int cell; test_check_reference holds it to these
functions on the fuzz corpus.

The jump measure was a {support node id: location cell} dict (jump_ids), and
each reader walked it on its own: the compensator laws per atom's node
pieces, the slot martingales, the star integral over the meet of three
partitions, the projection per atom's cut, the value slots and the jump
counter through each block's time-t node. The library reads one location
cell per time-t node (JumpMeasure.locs); test_jump_index holds it to these.

star_integral_by_entry is star_integral as it read g one entry at a time,
through JumpFunction._numerator per (conditioning atom, charged location)
and per jumping block. The library reads g's time-t table at each anchor
label resolved once per time; test_anchor_reads holds it to this builder.

witness_classes is conditional_multiplicity's class order and Fraction
probabilities as the witness held them, from the branch probabilities, and
multiplier_frame is _multiplier_frame's Gram-Schmidt frame as it was built
on those Fractions. The library orders the classes by int mass and builds
the frame on the witness's masses; test_witness_masses holds it to these.

three_sample_star is the consistency check's star clause as it was: three
seeded base-anchored jump functions per flow, each held to
g_star_consistency. The check now tests the law identity that clause
samples, at every atom, and keeps only the first draw; test_law_identity
holds it to this clause.

star_to_dot_samples is the star-to-dot check as it ran its five samples,
one g at a time: each drawn from its own rng_for(seed, "star-to-dot", j)
stream, converted by star_to_dot, expanded back and star-integrated, and
converted over the value slots, each sample with its own star integral,
slot-martingale integral and accessible integral. The check now runs every
route once over the stack of the five and reads each sample off its own
component; test_stacked_star_to_dot holds it to this loop.

multiplier_samples is the multiplier check's sample clause as it ran,
one sample at a time: each random_representable drawn from its own
rng_for(seed, "multiplier", name, j) stream and held to
verify_drift_multiplier on its own. The check now integrates the three
draws as one stack and verifies it once, each sample on its own component;
test_stacked_multiplier holds it to this loop.

atom_labelled is Filtration.atom_labelled, the scan of a time's partition
for the atom with a given label, which only the references called.

node_probs and leaf_masses are the tree's probabilities as FilteredTree
built them, a Fraction per node from its parent's, with the leaf
denominator and masses taken from the leaves' Fractions. The tree now
reduces the leaves' int path products once and builds its Fraction views
when read; test_tree_masses holds it to these.

means_by_atom, is_martingale_by_atom, bracket_steps_by_atom and
multiplier_holds_by_atom are the conditional means as the library took
them one atom at a time, each through one Partition.pieces lookup and one
call of _weigh, the one-atom kernel tree.py held beside _means, kept here
as it was. tree._means now reads the atom index once per slice and loops
over the atoms inline, and Process.is_martingale, _bracket_steps and
_multiplier_holds take their sums from it; test_one_pass_means holds them
to these. The library's projection onto a jump measure,
check_compensator_abs_continuity and single_jump_coefficient called _weigh
too, and take their means from _means as well; so did _moment_sums, which
integral_reference now keeps with the kernel's per-sub-atom tests.

random_basis, undersized_basis and random_positive_martingale are the fuzz
generators as they drew on Fractions: each node's draws centred on the
branch probabilities and ranked as Fraction rows, the values accumulated
per node and built through Process.from_node_values, and the price a Doob
martingale of Fraction ratios scaled by its initial value. The library
centres and normalises the same draws on int masses; test_fuzz holds it to
these, slice for slice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from filtration_lab import calculus, constraint
from filtration_lab.calculus import (
    JumpFunction,
    JumpMeasure,
    Process,
    _jump_cut,
    _lifted,
    _products,
    dual_predictable_projection,
)
from filtration_lab.constraint import AccessibleSlot
from filtration_lab.enlargement import g_star_consistency, verify_drift_multiplier
from filtration_lab.errors import (
    DegeneratePartition,
    DimensionMismatch,
    NotIncreasing,
)
from filtration_lab.fuzz import (
    random_jump_function,
    random_representable,
    rng_for,
    widest_branching,
)
from filtration_lab.linalg import null_space, rank
from filtration_lab.rationals import (
    as_fractions,
    gathered,
    over_common_denominator,
    over_lcm,
    reduced_cell,
)
from filtration_lab.representation import MrpReport
from filtration_lab.tree import as_filtration


def _increment_matrix(w: Process, t: int, children):
    return [list(row) for row in
            zip(*(w.increment(t, child.leaf_lo) for child in children))]


def check_mrp(w: Process) -> MrpReport:
    """Rank test: increments must span each node's mean-zero space."""
    tree = w.tree
    w.require_martingale(tree, what="candidate basis")
    ranks = {}
    failing = None
    counterexample = None
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t - 1]:
            children = node.children
            m = len(children)
            matrix = _increment_matrix(w, t, children)
            r = rank(matrix) if matrix else 0
            ranks[node.id] = (m, r)
            if r < m - 1 and failing is None:
                failing = node.id
                probs = [child.branch_prob for child in children]
                basis = null_space(matrix + [probs])
                counterexample = tuple(basis[0])
    return MrpReport(holds=failing is None, dim=w.dim, ranks=ranks,
                     failing_atom=failing, counterexample=counterexample)


def compensator_scan(a: Process, enlargement_like):
    """Null base-flow compensator increments stay null under the larger flow:
    (True, None) or (False, (time, base atom, larger atom))."""
    if a.dim != 1:
        raise DimensionMismatch("compensator scan takes scalar processes")
    filtration = as_filtration(enlargement_like)
    tree = a.tree
    for t in range(1, tree.horizon + 1):
        if any(inc[0] < 0 for inc in a._delta(t)[2]):
            raise NotIncreasing(f"decrement at time {t}")
    base = tree.base_filtration()
    fine = dual_predictable_projection(a, filtration)
    coarse = dual_predictable_projection(a, base)
    for t in range(1, tree.horizon + 1):
        subs = filtration.parts[t - 1]
        for atom in base.atoms(t - 1):
            if coarse.increment(t, atom.leaves[0])[0] != 0:
                continue
            for sub in [subs.atoms[k] for k, _ in subs.pieces(atom)]:
                if fine.increment(t, sub.leaves[0])[0] != 0:
                    return False, (t, atom.label, sub.label)
    return True, None


def cell(vector):
    """The cell of a Fraction location vector: the lcm of its denominators
    and its entries over it."""
    den = lcm(*[c.denominator for c in vector])
    return den, tuple([int(c * den) for c in vector])


def gauge(vector):
    """The slot gauge of a Fraction location vector, as the int ratio (num,
    den) over the lcm of its denominators."""
    den, nums = over_lcm([c.as_integer_ratio() for c in vector])
    return min(sum(map(abs, nums)), den), den


# --- the jump measure as a {support node id: location cell} dict ------------

def jump_ids(x: Process) -> dict:
    """jump_measure's walk: each support node's reduced location cell, in
    time, then node order."""
    tree, jumps = x.tree, {}
    for t in range(1, tree.horizon + 1):
        part, den, nums = x._delta(t)
        for node in tree.nodes_at[t]:
            inc = nums[part.block_of[node.leaf_lo]]
            if any(inc):
                jumps[node.id] = reduced_cell(den, inc)
    return jumps


def laws(tree, jumps, filtration) -> dict:
    """CompensatorTable.laws: per atom, the masses of its node pieces added
    per location cell, in node-label order."""
    out = {}
    for t in range(1, tree.horizon + 1):
        nodes = tree.base_filtration().parts[t]
        for atom in filtration.atoms(t - 1):
            masses = {}
            for k, m in sorted(nodes.pieces(atom),
                               key=lambda piece: nodes.atoms[piece[0]].label):
                loc = jumps.get(nodes.atoms[k].label)
                if loc is not None:
                    masses[loc] = masses.get(loc, 0) + m
            if masses:
                out[(t, atom.label)] = (atom.mass, tuple(masses.items()))
    return out


def constraint_martingales(tree, jumps, cs) -> Process:
    """The slot martingales, each block's jump read at its time-t node."""
    filtration = cs.filtration

    def classes_at(t):
        atoms = filtration.parts[t - 1]
        part = tree.meet(atoms, tree.base_filtration().parts[t])
        kind = []
        for block, k in zip(part.atoms, part.index_in(atoms)):
            loc = jumps.get(tree.node_at(t, block.leaves[0]).id)
            kind.append(None if loc is None
                        else cs._slot(t, atoms.atoms[k].label, loc))
        return part, kind, [over_lcm(cs._menus[(t, atom.label)][1])
                            if (t, atom.label) in cs._menus else None
                            for atom in atoms.atoms]

    return Process._compensated_classes(filtration, cs.n, classes_at)


def star_integral(g: JumpFunction, tree, jumps, filtration) -> Process:
    """star_integral over the meet of the conditioning atoms, g's atoms and
    the time-t nodes, g's atom found per conditioning atom's first leaf."""
    table, at = laws(tree, jumps, filtration), g._numerator

    def increments_at(t):
        gden = g._tables.get(t, (1,))[0]
        atoms = filtration.parts[t - 1]
        comps = []
        for atom in atoms.atoms:
            label = g.filtration.conditioning_atom_of(t, atom.leaves[0]).label
            mass, law = table.get((t, atom.label), (1, ()))
            comps.append((mass, sum(m * at(t, label, loc) for loc, m in law)))
        g_part = g.filtration.parts[t - 1]
        nodes = tree.base_filtration().parts[t]
        part, (comp_of, g_atom_of, node_of) = _lifted(tree, (
            (atoms, None, comps), (g_part, None, g_part.atoms),
            (nodes, None, nodes.atoms)))
        cells = []
        for (den, total), g_atom, node in zip(comp_of, g_atom_of, node_of):
            loc = jumps.get(node.label)
            gain = 0 if loc is None else at(t, g_atom.label, loc)
            cells.append((den * gden, (gain * den - total,)))
        return (part, *gathered(cells))

    return Process._accumulate(tree, (0,), increments_at)


def star_integral_by_entry(g: JumpFunction, mu: JumpMeasure, filtration) -> Process:
    """star_integral on _jump_cut's blocks, g read through _numerator once
    per (atom, charged location) and once per jumping block."""
    tree = mu.tree
    laws, at = mu.compensator(filtration).laws, g._numerator

    def increments_at(t):
        gden = g._tables.get(t, (1,))[0]
        atoms, anchors = filtration.parts[t - 1], g.filtration.parts[t - 1]
        labels = [anchors.atoms[j].label for j in atoms.index_in(anchors)]
        comps = []  # per time-(t-1) atom: the mean of g, as (den, numerator)
        for atom, label in zip(atoms.atoms, labels):
            mass, law = laws.get((t, atom.label), (1, ()))
            comps.append((mass, sum(m * at(t, label, loc) for loc, m in law)))
        cut, atom_of, loc_of = _jump_cut(mu, filtration, t)
        cells = []
        for k, loc in zip(atom_of, loc_of):
            den, total = comps[k]
            gain = 0 if loc is None else at(t, labels[k], loc)
            cells.append((den * gden, (gain * den - total,)))
        return (cut, *gathered(cells))

    return Process._accumulate(tree, (0,), increments_at)


def atom_labelled(filtration, t, label):
    """Filtration.atom_labelled: the time-t atom with the given label, found
    by a scan of the time-t partition; KeyError when it holds none."""
    for atom in filtration.parts[t].atoms if 0 <= t < len(filtration.parts) else ():
        if atom.label == label:
            return atom
    raise KeyError((t, label))


def project_onto_jump_measure(y: Process, jumps, filtration) -> JumpFunction:
    """The projection, each conditioning atom cut by the time-t nodes on
    its own."""
    tree = y.tree
    y.require_martingale(filtration, what="projected process")
    base = tree.base_filtration()
    items = []
    for (t, label), (_, law) in laws(tree, jumps, filtration).items():
        atom = atom_labelled(filtration, t - 1, label)
        num = dict.fromkeys([loc for loc, _ in law], 0)
        nodes = base.parts[t]
        cut = tree.meet(nodes, atom.partition)
        node_of = cut.index_in(nodes)
        part, den, nums = y._delta(t)
        for k, mass in cut.pieces(atom):
            loc = jumps.get(nodes.atoms[node_of[k]].label)
            if loc is not None:
                (total,), weight = _weigh(cut.atoms[k], part, nums)
                num[loc] += total * mass if weight == 1 else total
        rest = atom.mass - sum(m for _, m in law)
        correction = 0 if rest == 0 else Fraction(sum(num.values()), den * rest)
        items += [((t, label, loc),
                   (Fraction(num[loc], den * m) + correction).as_integer_ratio())
                  for loc, m in law]
    return JumpFunction._from_ratios(filtration, items)


def value_slots_from_measure(tree, jumps, filtration) -> list:
    """The value slots, each child's jump read at its time-t node."""
    slots = []
    for t in sorted({tree.nodes[nid].time for nid in jumps}):
        ranked, quiet = {}, set()
        children = filtration.parts[t]
        for atom in filtration.atoms(t - 1):
            groups = {}
            for child in [children.atoms[k] for k, _ in children.pieces(atom)]:
                loc = jumps.get(tree.node_at(t, child.leaves[0]).id)
                groups.setdefault(loc, set()).update(child.leaves)
            quiet |= groups.pop(None, set())
            for rank, loc in enumerate(sorted(groups, key=lambda c: as_fractions(*c))):
                ranked.setdefault(rank, set()).update(groups[loc])
        classes = [frozenset(ranked[k]) for k in range(len(ranked))]
        classes.append(frozenset(quiet))
        slots.append(AccessibleSlot(tau=t, classes=tuple(classes)))
    return slots


def jump_counter(tree, jumps) -> Process:
    """cli._jump_counter: one count per support node, by node label."""
    nodes = tree.base_filtration().parts
    return Process._accumulate(tree, (0,), lambda t: (nodes[t], 1, tuple(
        [(int(atom.label in jumps),) for atom in nodes[t].atoms])))


def witness_classes(node, width):
    """conditional_multiplicity's classes of a node as it ordered them, by
    descending branch probability, ties by id: (ids, branch probabilities),
    padded to width with None and 0."""
    children = sorted(node.children, key=lambda c: (-c.branch_prob, c.id))
    pad = width - len(children)
    return (tuple(c.id for c in children) + (None,) * pad,
            tuple(c.branch_prob for c in children) + (Fraction(0),) * pad)


def multiplier_frame(p):
    """_multiplier_frame's frame at one node as it was built on the class
    probabilities p, Fractions: (den, nums) of the Gram-Schmidt frame of
    (p, e_0, ..., e_d), p as reduced int ratios, and the lcm of their
    charged numerators."""
    width = len(p)
    last = max(h for h in range(width) if p[h])
    tails = list(accumulate(v * v for v in reversed(p)))[::-1]
    coeffs = [p[h] / tails[h] if p[h] else Fraction(0) for h in range(width)]
    eps_den, eps_nums = over_common_denominator([
        (Fraction(0),) * h + (1 - c * p[h],) + tuple(-c * v for v in p[h + 1:])
        for h, c in enumerate(coeffs) if h != last])
    ratios = [c.as_integer_ratio() for c in p]
    return eps_den, eps_nums, ratios, lcm(*[a for a, _ in ratios if a])


def three_sample_star(mu: JumpMeasure, seed, name, enlargement) -> bool:
    """_run_consistency's star clause for the flow called name: three
    base-anchored jump functions, draw j from rng_for(seed, "consistency",
    name, str(j)), each integrated under the flow and held to the
    drift-corrected base integral."""
    star_ok = True
    for j in range(3):
        rng = rng_for(seed, "consistency", name, str(j))
        g = random_jump_function(mu, mu.tree, rng)
        star_ok = star_ok and g_star_consistency(g, mu, enlargement)
    return star_ok


def multiplier_samples(solution, w: Process, seed, name, enlargement) -> list:
    """_run_multiplier's samples for the flow called name as it verified
    them, one at a time: draw j from rng_for(seed, "multiplier", name,
    str(j)), a random_representable against w held to
    verify_drift_multiplier; the verdict of each."""
    return [verify_drift_multiplier(
                solution, random_representable(w, rng_for(seed, "multiplier", name, str(j))),
                enlargement)
            for j in range(3)]


def star_to_dot_samples(ctx):
    """cli._run_star_to_dot as it was, one sample at a time: (ok, details).
    The check built its slot plan once and converted each g with it; here
    accessible_star_to_dot builds the same plan per sample from the slot
    list made once. The library's functions are called through their
    modules, since this module defines its own star_integral and
    value_slots_from_measure."""
    mu, cs = ctx.measure, ctx.constraint
    base = ctx.tree.base_filtration()
    slots = constraint.value_slots_from_measure(mu)
    samples = []
    ok = True
    for j in range(5):
        rng = rng_for(ctx.seed, "star-to-dot", str(j))
        g = random_jump_function(mu, ctx.tree, rng)
        h, certificate = constraint.star_to_dot(g, mu, cs)
        back = calculus.star_integral(constraint.expand_integrand(h, mu, cs),
                                      mu, base)
        round_trip = back == certificate.dot_side
        accessible = constraint.accessible_star_to_dot(g, mu, slots, base)
        good = certificate.holds and round_trip and accessible.holds
        ok = ok and good
        samples.append({
            "sample": j,
            "forward": certificate.holds,
            "round_trip": round_trip,
            "accessible": accessible.holds,
        })
    return ok, {"n": cs.n, "samples": samples}


# --- conditional means one atom at a time, through _weigh -------------------

def _weigh(atom, part, nums):
    """tree._weigh, the one-atom kernel: E[X | atom] as (sums, weight) for X
    holding nums[k], int numerators over some denominator den, on block k
    of part; nums need only hold the blocks meeting the atom. The mean is
    sums / (den * weight): each block meeting the atom is weighed once, by
    the int mass of the intersection, and weight is the atom's mass, or 1
    when one block holds the whole atom."""
    pieces = part.pieces(atom)
    if len(pieces) == 1:
        return nums[pieces[0][0]], 1
    masses = [m for _, m in pieces]
    return (tuple(sum(map(mul, masses, col))
                  for col in zip(*[nums[k] for k, _ in pieces])), atom.mass)


def means_by_atom(atoms, part, den, nums):
    """tree._means as it was: one (den * weight, sums) cell per atom, each
    from its own _weigh call."""
    cells = []
    for atom in atoms:
        sums, weight = _weigh(atom, part, nums)
        cells.append((den * weight, sums))
    return cells


def is_martingale_by_atom(x: Process, filtration_like) -> bool:
    """Process.is_martingale as it was: every atom's mean increment
    weighed on its own."""
    filtration = as_filtration(filtration_like)
    if not x.is_adapted(filtration):
        return False
    for t in range(1, x.tree.horizon + 1):
        part, _, nums = x._delta(t)
        for atom in filtration.parts[t - 1].atoms:
            if any(_weigh(atom, part, nums)[0]):
                return False
    return True


def bracket_steps_by_atom(n: Process, x: Process):
    """enlargement._bracket_steps with its per-node sums from
    means_by_atom."""
    tree, d = x.tree, n.dim
    nodes = tree.base_filtration().parts
    steps = [None]
    for t in range(1, tree.horizon + 1):
        sliced = _products(tree, n._delta(t), x._delta(t),
                           lambda dn, dx: tuple([c * v for v in dx for c in dn]))
        steps.append([(scale, [sums[h:h + d] for h in range(0, len(sums), d)])
                      for scale, sums in means_by_atom(nodes[t - 1].atoms, *sliced)])
    return steps


def multiplier_holds_by_atom(phi: Process, steps, x: Process, filtration) -> bool:
    """enlargement._multiplier_holds as it was: the drift on each
    conditioning atom from its own _weigh call."""
    tree = x.tree
    nodes = tree.base_filtration().parts
    for t in range(1, tree.horizon + 1):
        part, den, incs = x._delta(t)
        subs = filtration.parts[t - 1]
        phi_of, phi_den, phi_nums = phi.parts[t].block_of, phi.dens[t], phi.nums[t]
        for sub, k in zip(subs.atoms, subs.index_in(nodes[t - 1])):
            sums, weight = _weigh(sub, part, incs)  # the drift, over den * weight
            coeffs = phi_nums[phi_of[sub.leaves[0]]]
            step_den, rows = steps[t][k]
            left, right = phi_den * step_den, den * weight
            if any(s * left != right * sum(map(mul, coeffs, row))
                   for s, row in zip(sums, rows)):
                return False
    return True


# --- the tree's probabilities on Fractions ----------------------------------

def node_probs(tree) -> dict:
    """Each node's probability as FilteredTree built it: the root's is 1,
    a child's its parent's times its branch probability, by node id."""
    probs = {tree.root.id: Fraction(1)}
    for node in tree._preorder():
        for child in node.children:
            probs[child.id] = probs[node.id] * child.branch_prob
    return probs


def leaf_masses(tree):
    """(leaf_den, leaf masses) as FilteredTree took them from node_probs:
    the lcm of the leaves' reduced denominators, and each leaf's
    probability over it."""
    probs = node_probs(tree)
    ratios = [probs[leaf.id].as_integer_ratio() for leaf in tree.leaves]
    den = lcm(*[d for _, d in ratios])
    return den, [n * (den // d) for n, d in ratios]


# --- the fuzz generators on Fractions ---------------------------------------

ZERO = Fraction(0)


def _centered_rows(rng, probs, d):
    """d random rows over the children, centered to conditional mean zero."""
    rows = []
    for _ in range(d):
        draw = [Fraction(rng.randint(-3, 3)) for _ in probs]
        mean = sum((q * v for q, v in zip(probs, draw)), start=ZERO)
        rows.append([v - mean for v in draw])
    return rows


def _accumulate_basis(tree, rng, d, require_full_rank):
    node_values = {tree.root.id: tuple([ZERO] * d)}
    for t in range(1, tree.horizon + 1):
        for parent in tree.nodes_at[t - 1]:
            children = parent.children
            probs = [child.branch_prob for child in children]
            while True:
                rows = _centered_rows(rng, probs, d)
                if not require_full_rank or rank(rows) == len(children) - 1:
                    break
            base = node_values[parent.id]
            for k, child in enumerate(children):
                node_values[child.id] = tuple(
                    base[j] + rows[j][k] for j in range(d))
    return Process.from_node_values(tree, node_values, dim=d)


def random_basis(tree, rng, d=None) -> Process:
    """Martingale driver with the representation property by construction.

    Per node the centered child increments are redrawn until they span the
    mean-zero hyperplane, so the rank test holds everywhere. d defaults to
    the widest branching minus one and may not be smaller.
    """
    widest = widest_branching(tree)
    if d is None:
        d = max(1, widest - 1)
    if d < widest - 1:
        raise DimensionMismatch(
            f"dimension {d} cannot span {widest}-fold branching")
    return _accumulate_basis(tree, rng, d, require_full_rank=True)


def undersized_basis(tree, rng) -> Process:
    """Driver two dimensions short of the widest branching.

    The rank test must then fail at every widest node: d rows can never
    reach rank d + 1."""
    widest = widest_branching(tree)
    if widest < 3:
        raise DegeneratePartition(
            "undersized driver needs a node with at least 3 children")
    return _accumulate_basis(tree, rng, widest - 2, require_full_rank=False)


def random_positive_martingale(tree, rng) -> Process:
    """Strictly positive martingale normalized to start at 1."""
    terminal = [Fraction(rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(tree.n_leaves)]
    x = Process.doob(tree, terminal)
    return x.scale(1 / x.initial()[0])

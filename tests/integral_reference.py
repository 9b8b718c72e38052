"""Per-leaf integrals and star-to-dot conversions, as the library had them.

Test-only reference: these step every (time, leaf) cell on its own and
rebuild every g-independent object on each call. The library now evaluates
each step once per distinct tuple of input objects and memoizes the
g-independent side of a conversion; the differential tests in
test_integral_reference hold it to these functions, which must give equal
processes and certificates on any input.

The last section keeps, verbatim, the hand-written running sums and
products that Process._accumulate replaced: the compensator walk, the
accessible class martingales Y (with the slot builder and leaf scans of
that time), the reconstructed indicator family, the multiplier's N, the
deflator product, the Doleans exponential and the fuzz integrand.

The final section keeps, verbatim, the per-leaf conditional-mean kernel
(leaf grouping by cell identity, conditional_law, conditional_mean) and the
identity-keyed Shared memo that atom-indexed process rows replaced; the
functions above call them, and test_atom_kernel holds the partition kernel
to them.

predictable keeps Process._predictable's Fraction builder (a tuple of
rationals per atom, brought over one denominator per time) from before the
int cells; the differential tests hold every int-cell build to it.

multiplier_identity and n_brackets keep the multiplier identity as the
library tested it before the per-atom test: the drift and phi . [N, X]^p
built as whole processes and compared; test_multiplier_identity holds the
per-atom test to it.

find_deflator keeps the deflator search on Fractions, with the closed form
_one_period_deflator and the AtomAudit record it filled, from before the
search ran on int masses and move numerators; test_integral_reference
holds the library's audit views and deflators to it.

The closing section keeps, verbatim, covariance_kernel as it was before
the closed-form pseudo-inverse: J from a sum-zero frame B and the inverse
of B^T C B, and J C as a matrix product. test_integral_reference holds the
library's certificates to it. It also keeps the per-sub-atom M = M J C
tests the library ran under every flow, inside holds, with _moment_sums,
their conditional mean and covariance, verbatim: the library now tests
once per basis that the increments centre the charged classes, which
makes every such test pass, so the certificates still agree, holds
included, and test_reconstructed_increments reads the sub-atom verdict
from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from filtration_lab.calculus import (
    JumpFunction,
    JumpMeasure,
    Process,
    _predictable_products,
    dual_predictable_projection,
)
from filtration_lab.constraint import (
    AccessibleConversion,
    AccessibleSlot,
    ConstraintSystem,
    ConversionCertificate,
    _AccessiblePlan,
    _normalize_slots,
    l1_gauge,
)
from filtration_lab.enlargement import (
    INFEASIBLE,
    OPTIMAL,
    Deflator,
    DeflatorSearch,
    KernelCertificate,
    MultiplierSolution,
    _require_positive,
)
from filtration_lab.errors import (
    ConstraintMismatch,
    DegeneratePartition,
    DimensionMismatch,
    NoRepresentation,
    NotPredictable,
    PartitionNotMeasurable,
)
from filtration_lab.linalg import gram_schmidt, null_space
from filtration_lab.rationals import (
    as_fractions,
    over_common_denominator,
    to_fraction,
)
from filtration_lab.representation import (
    ReconstructedBasis,
    check_mrp,
    conditional_multiplicity,
)
from filtration_lab.tree import Atom, FilteredTree, _means, as_filtration
from linalg_reference import dot, invert, mat_mul, transpose

ZERO = Fraction(0)
ONE = Fraction(1)


def _atoms_within(filtration, t, leaves):
    """Distinct time-t atoms holding the given leaves, in first-leaf order:
    the reference's own leaf scan, apart from the atom index it checks."""
    part = filtration.partition(t)
    return tuple(part.atoms[k]
                 for k in dict.fromkeys(part.block_of[leaf] for leaf in leaves))


def class_leaves(tree, witness):
    """The leaves of each class of a successor-class witness, read off the
    class's node through tree.nodes; () for a padding class."""
    return tuple(() if node_id is None else tree.nodes[node_id].leaves()
                 for node_id in witness.subatoms)


def predictable(filtration, dim, value_of) -> Process:
    """Process._predictable as it was: null at 0, holding value_of(t,
    atom), a tuple of dim rationals, on each time-(t-1) atom for t >= 1,
    each time's tuples brought over one denominator by
    over_common_denominator."""
    tree = filtration.tree
    parts = filtration.parts
    rows = [((0,) * dim,)] + [[value_of(t, atom) for atom in parts[t - 1].atoms]
                              for t in range(1, tree.horizon + 1)]
    return Process._make(tree, [
        (part, *over_common_denominator(row)) for part, row
        in zip((tree.base_filtration().parts[0],) + parts[:-1], rows)], dim)


def bracket(x: Process, y: Process) -> Process:
    """Pathwise covariation sum of Delta X . Delta Y; scalar output.

    Inputs must share their dimension; components pair up, so two scalars give
    the ordinary bracket.
    """
    if x.tree is not y.tree:
        raise DimensionMismatch("bracket across different trees")
    if x.dim != y.dim:
        raise DimensionMismatch(f"bracket dims {x.dim} and {y.dim}")
    tree = x.tree
    data = [[(ZERO,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = []
        for leaf in range(tree.n_leaves):
            xi = x.increment(t, leaf)
            yi = y.increment(t, leaf)
            step = sum((a * b for a, b in zip(xi, yi)), start=ZERO)
            row.append((data[t - 1][leaf][0] + step,))
        data.append(row)
    return Process(tree, data, dim=1)


def dot_integral(h: Process, x: Process, filtration_like=None) -> Process:
    """(H . X)_t = sum over s <= t of <H_s, Delta X_s>, null at 0.

    H must be predictable for the given filtration (default: the base).
    """
    filtration = as_filtration(filtration_like or x.tree)
    if h.tree is not x.tree:
        raise DimensionMismatch("integrand and integrator on different trees")
    if h.dim != x.dim:
        raise DimensionMismatch(f"integrand dim {h.dim}, integrator dim {x.dim}")
    if not h.is_predictable(filtration):
        raise NotPredictable("integrand is not predictable for this filtration")
    tree = x.tree
    data = [[(ZERO,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = []
        for leaf in range(tree.n_leaves):
            hv = h.values[t][leaf]
            inc = x.increment(t, leaf)
            step = sum((a * b for a, b in zip(hv, inc)), start=ZERO)
            row.append((data[t - 1][leaf][0] + step,))
        data.append(row)
    return Process(tree, data, dim=1)


def star_integral(g: JumpFunction, mu: JumpMeasure, filtration_like) -> Process:
    """Compensated jump-measure integral of a predictable function.

    Increment at t: g(t, jump) when the path jumps, minus the conditional
    mean of that quantity given the atom at t-1. Always a martingale for the
    integration filtration.
    """
    filtration = as_filtration(filtration_like)
    tree = mu.tree
    table = mu.compensator(filtration)
    data = [[(ZERO,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t - 1):
            leaf0 = atom.leaves[0]
            comp = ZERO
            for value in table.charged(t, atom.label):
                comp += table.prob(t, atom.label, value) * g.value(t, leaf0, value)
            for i in atom.leaves:
                jump = mu.jump_at(t, i)
                step = (g.value(t, i, jump) if jump is not None else ZERO) - comp
                row[i] = (data[t - 1][i][0] + step,)
        data.append(row)
    return Process(tree, data, dim=1)


def _slot_indicator_table(mu, nu, cs, k):
    """u_k = gauge_k(x) on {x = alpha_k}, zero on the other charged points."""
    entries = {}
    gauge = l1_gauge
    for (t, label), dist in nu.entries.items():
        menu = cs.slot_values(t, label)
        for value in dist:
            if value not in menu:
                raise ConstraintMismatch(
                    f"location {value} at time {t}, atom {label} "
                    "is outside the constraint menu")
            entries[(t, label, value)] = gauge(value) if value == menu[k] else ZERO
    return JumpFunction(cs.filtration, entries)


def constraint_martingales(mu: JumpMeasure, nu, cs: ConstraintSystem) -> Process:
    """The n compensated slot-indicator martingales, stacked."""
    if nu.measure is not mu:
        raise ConstraintMismatch("compensator belongs to a different measure")
    if nu.filtration is not cs.filtration:
        raise ConstraintMismatch(
            "constraint system and compensator use different filtrations")
    if cs.n == 0:
        return Process.zero(mu.tree, dim=0)
    parts = [star_integral(_slot_indicator_table(mu, nu, cs, k), mu, cs.filtration)
             for k in range(cs.n)]
    return Process.stack(parts)


def star_to_dot(g: JumpFunction, mu: JumpMeasure, cs: ConstraintSystem):
    """Rewrite g * (mu - nu) as an integrand against the slot martingales.

    H_k at (t, atom) is g(t, alpha_k) / gauge_k(alpha_k) on nonempty slots
    and 0 elsewhere; the certificate compares both sides at every node.
    """
    filtration = cs.filtration
    tree = filtration.tree
    nu = mu.compensator(filtration)
    x = constraint_martingales(mu, nu, cs)

    zero_row = tuple([ZERO] * cs.n)
    data = [[zero_row] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t - 1):
            menu = cs.slot_values(t, atom.label)
            vec = []
            for k in range(cs.n):
                value = menu[k]
                if value is None:
                    vec.append(ZERO)
                    continue
                scale = l1_gauge(value)
                vec.append(ZERO if scale == 0
                           else g.value(t, atom.leaves[0], value) / scale)
            vec = tuple(vec)
            for i in atom.leaves:
                row[i] = vec
        data.append(row)
    h = Process(tree, data, dim=cs.n)

    star = star_integral(g, mu, filtration)
    dot = dot_integral(h, x, filtration)
    certificate = ConversionCertificate(
        holds=(star == dot), star_side=star, dot_side=dot,
        divergence=star.first_divergence(dot))
    return h, certificate


def accessible_star_to_dot(g: JumpFunction, mu: JumpMeasure, slots,
                           filtration_like=None) -> AccessibleConversion:
    """Rewrite g * (mu - nu) over partition classes at accessible times.

    Per slot, the classes split each conditioning atom's successors by jump
    location; the class martingales Y_k compensate the weighted class
    indicators, the scale G undoes the weights on each time's graph, and the
    integrand picks g at the class location wherever that location is
    nonzero. The identity is verified node by node.
    """
    tree = mu.tree
    filtration = as_filtration(filtration_like or tree)
    rows, count = _normalize_slots(tree, slots)

    occupied = {}
    for idx, (tau, classes, _) in enumerate(rows):
        for leaf in range(tree.n_leaves):
            t = tau.values[leaf]
            if t <= tree.horizon and (t, leaf) in occupied:
                raise ConstraintMismatch("accessible times overlap")
            occupied[(t, leaf)] = idx
        claimed = set()
        for cls in classes:
            if cls & claimed:
                raise PartitionNotMeasurable("partition classes overlap")
            claimed |= cls
            for leaf in cls:
                if tau.values[leaf] > tree.horizon:
                    raise PartitionNotMeasurable(
                        "class contains a path its time never reaches")
        # each class, restricted to {tau = t}, must be a union of time-t atoms
        for t in range(1, tree.horizon + 1):
            for atom in filtration.atoms(t):
                inside = [leaf for leaf in atom.leaves if tau.values[leaf] == t]
                if not inside:
                    continue
                for cls in classes:
                    hit = [leaf for leaf in inside if leaf in cls]
                    if hit and len(hit) != len(inside):
                        raise PartitionNotMeasurable(
                            f"class splits an atom at time {t}")

    # every support node must sit on a slot graph, inside one class
    for node_id in mu.support:
        node = tree.nodes[node_id]
        leaf = node.leaf_lo
        idx = occupied.get((node.time, leaf))
        if idx is None:
            raise ConstraintMismatch(
                f"support node {node_id} lies on no accessible time")
        if not any(leaf in cls for cls in rows[idx][1]):
            raise ConstraintMismatch(
                f"support node {node_id} is outside every partition class")

    # class locations per (slot, class, conditioning atom)
    alpha = {}
    for idx, (tau, classes, _) in enumerate(rows):
        for t in range(1, tree.horizon + 1):
            for atom in filtration.atoms(t - 1):
                if tau.values[atom.leaves[0]] != t:
                    continue
                for k, cls in enumerate(classes):
                    members = [leaf for leaf in atom.leaves if leaf in cls]
                    if not members:
                        continue
                    values = {mu.jump_at(t, leaf) for leaf in members}
                    if len(values) != 1:
                        raise ConstraintMismatch(
                            f"class {k} mixes jump locations on atom "
                            f"{atom.label} at time {t}")
                    value = values.pop()
                    if value is not None:
                        alpha[(idx, k, t, atom.label)] = value

    zero_k = tuple([ZERO] * count)
    y_data = [[zero_k] * tree.n_leaves]
    gh_data = [[zero_k] * tree.n_leaves]
    h_data = [[zero_k] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        y_row = [None] * tree.n_leaves
        gh_row = [None] * tree.n_leaves
        h_row = [None] * tree.n_leaves
        for atom in filtration.atoms(t - 1):
            idx = occupied.get((t, atom.leaves[0]))
            if idx is None:
                for i in atom.leaves:
                    y_row[i] = tuple(y_data[t - 1][i])
                    gh_row[i] = zero_k
                    h_row[i] = zero_k
                continue
            tau, classes, weight = rows[idx]
            probs = []
            for cls in classes:
                mass = sum((tree.leaf_probs[i] for i in atom.leaves if i in cls),
                           start=ZERO)
                probs.append(mass / atom.prob)
            h_vec = []
            for k in range(count):
                loc = alpha.get((idx, k, t, atom.label))
                h_vec.append(ZERO if loc is None
                             else g.value(t, atom.leaves[0], loc))
            h_vec = tuple(h_vec)
            gh_vec = tuple(v / weight for v in h_vec)
            for i in atom.leaves:
                steps = tuple(
                    weight * ((1 if i in classes[k] else 0) - probs[k])
                    for k in range(count))
                y_row[i] = tuple(a + b for a, b in zip(y_data[t - 1][i], steps))
                gh_row[i] = gh_vec
                h_row[i] = h_vec
        y_data.append(y_row)
        gh_data.append(gh_row)
        h_data.append(h_row)

    y = Process(tree, y_data, dim=count)
    h = Process(tree, h_data, dim=count)
    gh = Process(tree, gh_data, dim=count)
    scale_data = [[(ZERO,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = []
        for leaf in range(tree.n_leaves):
            idx = occupied.get((t, leaf))
            row.append((ZERO,) if idx is None else (1 / rows[idx][2],))
        scale_data.append(row)
    scale = Process(tree, scale_data, dim=1)

    star = star_integral(g, mu, filtration)
    dot = dot_integral(gh, y, filtration)
    return AccessibleConversion(
        scale=scale, integrand=h, martingales=y, star_side=star,
        dot_side=dot, holds=(star == dot), divergence=star.first_divergence(dot))


def compensator_entries(measure: JumpMeasure, filtration) -> dict:
    """CompensatorTable.entries as the support-node scan built them."""
    tree = measure.tree
    entries: dict[tuple[int, str], dict[tuple, Fraction]] = {}
    for t in range(1, tree.horizon + 1):
        nodes = measure.nodes_at(t)
        if not nodes:
            continue
        for atom in filtration.atoms(t - 1):
            dist: dict[tuple, Fraction] = {}
            atom_leaves = set(atom.leaves)
            for node in nodes:
                overlap = sum(
                    (tree.leaf_probs[i] for i in range(node.leaf_lo, node.leaf_hi)
                     if i in atom_leaves), start=ZERO)
                if overlap == 0:
                    continue
                value = measure.location(node.id)
                dist[value] = dist.get(value, ZERO) + overlap / atom.prob
            if dist:
                entries[(t, atom.label)] = dist
    return entries


# --- running sums and products before Process._accumulate -------------------

def _compensate(filtration: Filtration, dim: int, step) -> Process:
    """Null at 0, moved on each time-(t-1) atom by the vector step(t, atom)."""
    tree = filtration.tree
    data = [[tuple([ZERO] * dim)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t - 1):
            mean = step(t, atom)
            move = Shared(lambda prev: tuple(p + m for p, m in zip(prev, mean)))
            moved = move([data[t - 1][i] for i in atom.leaves])
            for i, vec in zip(atom.leaves, moved):
                row[i] = vec
        data.append(row)
    return Process(tree, data, dim)


def _plan_accessible(mu, filtration, rows, count) -> _AccessiblePlan:
    """Validate normalized slots against the measure; build Y and G."""
    tree = mu.tree
    occupied = {}
    for idx, (tau, classes, _) in enumerate(rows):
        for leaf in range(tree.n_leaves):
            t = tau.values[leaf]
            if t <= tree.horizon and (t, leaf) in occupied:
                raise ConstraintMismatch("accessible times overlap")
            occupied[(t, leaf)] = idx
        claimed = set()
        for cls in classes:
            if cls & claimed:
                raise PartitionNotMeasurable("partition classes overlap")
            claimed |= cls
            for leaf in cls:
                if tau.values[leaf] > tree.horizon:
                    raise PartitionNotMeasurable(
                        "class contains a path its time never reaches")
        # each class, restricted to {tau = t}, must be a union of time-t atoms
        for t in range(1, tree.horizon + 1):
            for atom in filtration.atoms(t):
                inside = [leaf for leaf in atom.leaves if tau.values[leaf] == t]
                if not inside:
                    continue
                for cls in classes:
                    hit = [leaf for leaf in inside if leaf in cls]
                    if hit and len(hit) != len(inside):
                        raise PartitionNotMeasurable(
                            f"class splits an atom at time {t}")

    # every support node must sit on a slot graph, inside one class
    for node_id in mu.support:
        node = tree.nodes[node_id]
        leaf = node.leaf_lo
        idx = occupied.get((node.time, leaf))
        if idx is None:
            raise ConstraintMismatch(
                f"support node {node_id} lies on no accessible time")
        if not any(leaf in cls for cls in rows[idx][1]):
            raise ConstraintMismatch(
                f"support node {node_id} is outside every partition class")

    zero_k = tuple([ZERO] * count)
    cells = [()]
    y_data = [[zero_k] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        cells_t = []
        y_row = list(y_data[t - 1])
        for atom in filtration.atoms(t - 1):
            idx = occupied.get((t, atom.leaves[0]))
            if idx is None:
                continue
            _, classes, weight = rows[idx]
            locations = []
            for k, cls in enumerate(classes):
                members = [leaf for leaf in atom.leaves if leaf in cls]
                values = {mu.jump_at(t, leaf) for leaf in members}
                if len(values) > 1:
                    raise ConstraintMismatch(
                        f"class {k} mixes jump locations on atom "
                        f"{atom.label} at time {t}")
                locations.append(values.pop() if values else None)
            # classes are disjoint, so the first holding a leaf is its class
            law = conditional_law(tree, atom, lambda i: next(
                (k for k, cls in enumerate(classes) if i in cls), None))
            probs = [law.get(k, ZERO) for k in range(len(classes))]
            cells_t.append((atom, tuple(locations), weight))
            # leaves with one class membership and one Y_{t-1} share Y_t
            moved = {}
            for i in atom.leaves:
                prev = y_data[t - 1][i]
                member = tuple(i in cls for cls in classes)
                key = (id(prev), member)
                if key not in moved:
                    moved[key] = tuple(
                        a + weight * ((1 if m else 0) - p)
                        for a, m, p in zip(prev, member, probs))
                y_row[i] = moved[key]
        cells.append(tuple(cells_t))
        y_data.append(y_row)

    none = (ZERO,)
    inverse = [(1 / weight,) for _, _, weight in rows]
    scale_data = [[none] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        scale_data.append([none if occupied.get((t, leaf)) is None
                           else inverse[occupied[(t, leaf)]]
                           for leaf in range(tree.n_leaves)])
    return _AccessiblePlan(
        cells=tuple(cells),
        martingales=Process(tree, y_data, count),
        scale=Process(tree, scale_data, 1))


def value_slots_from_measure(mu: JumpMeasure, filtration_like=None):
    """Build accessible slots from a measure: one slot per support time.

    Classes group each conditioning atom's successors by jump location (lex
    order), with a final class collecting the non-jumping successors, so the
    classes partition the whole space at each support time.
    """
    tree = mu.tree
    filtration = as_filtration(filtration_like or tree)
    times = sorted({tree.nodes[nid].time for nid in mu.support})
    slots = []
    for t in times:
        per_atom = []
        for atom in filtration.atoms(t - 1):
            groups: dict[tuple, list] = {}
            still = []
            seen = set()
            for leaf in atom.leaves:
                node = tree.node_at(t, leaf)
                if node.id in seen:
                    continue
                seen.add(node.id)
                value = mu.support.get(node.id)
                leaves = list(range(node.leaf_lo, node.leaf_hi))
                if value is None:
                    still.extend(leaves)
                else:
                    groups.setdefault(value, []).extend(leaves)
            ordered = [groups[v] for v in sorted(groups)]
            per_atom.append((ordered, still))
        depth = max((len(ordered) for ordered, _ in per_atom), default=0)
        classes = []
        for k in range(depth):
            cls = set()
            for ordered, _ in per_atom:
                if k < len(ordered):
                    cls.update(ordered[k])
            classes.append(frozenset(cls))
        quiet = set()
        for _, still in per_atom:
            quiet.update(still)
        classes.append(frozenset(quiet))
        slots.append(AccessibleSlot(tau=t, classes=tuple(classes)))
    return slots


def reconstruct_accessible(w: Process) -> ReconstructedBasis:
    """Build the compensated successor-indicator family, weight 1/2^t.

    Component h jumps by (1/2^t)(1 - p_h) on the h-th successor class and by
    -(1/2^t) p_h elsewhere under the same atom; empty padding classes give
    identically zero components on their slots.
    """
    tree = w.tree
    report = check_mrp(w)
    if not report.holds:
        raise NoRepresentation(
            "basis lacks the representation property",
            atom=report.failing_atom, witness=report.counterexample)
    d = w.dim
    witnesses = []
    width = d + 1
    zero = tuple([ZERO] * width)
    data = [[zero] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for node in tree.nodes_at[t - 1]:
            count, witness = conditional_multiplicity(tree, t, node.id, d=d)
            witnesses.append(witness)
            weight = Fraction(1, 2 ** t)
            for k, leaves in enumerate(class_leaves(tree, witness)):
                for i in leaves:
                    prev = data[t - 1][i]
                    step = tuple(
                        weight * ((1 if h == k else 0) - witness.probs[h])
                        for h in range(width))
                    row[i] = tuple(a + b for a, b in zip(prev, step))
        data.append(row)
    process = Process(tree, data, width)
    return ReconstructedBasis(process=process, witnesses=tuple(witnesses), d=d)


def n_brackets(n, x) -> Process:
    """The d base-flow brackets [N_j, X]^p of a scalar X as one process,
    as the library built them for the Process-level identity."""
    return _predictable_products(n, x, x.tree.base_filtration(), n.dim,
                                 lambda dn, dx: tuple(c * dx[0] for c in dn))


def multiplier_identity(phi, brackets, x, filtration) -> bool:
    """The drift of a scalar X under filtration is phi . brackets, [N, X]^p,
    compared as whole processes: the Process-level route the per-atom test
    replaced, integrating with this module's per-leaf dot_integral."""
    return (dual_predictable_projection(x, filtration)
            == dot_integral(phi, brackets, filtration))


def solve_drift_multiplier(enlargement_like, basis) -> MultiplierSolution:
    """Common pair (N, phi) expressing every drift through base brackets.

    Per conditioning atom, the successor-class probabilities p give an
    orthogonal frame of the hyperplane against p; the larger flow reweights
    p to p_bar, and the coordinates of (1/2^t)(p_bar/p - 1) in the frame
    (scaled by 4^t for the non-unit covariance normalization) define phi,
    while the frame itself integrates the reconstructed family into N. The
    defining identity is verified exactly for every component before
    returning.
    """
    filtration = as_filtration(enlargement_like)
    tree = basis.process.tree
    width = basis.d + 1
    by_slot = {(wit.time, wit.atom): wit for wit in basis.witnesses}

    x2 = basis.process
    frames = {}
    n_data = [[tuple([ZERO] * basis.d)] * tree.n_leaves]
    phis = {}
    for t in range(1, tree.horizon + 1):
        n_row = [None] * tree.n_leaves
        for node in tree.nodes_at[t - 1]:
            wit = by_slot[(t, node.id)]
            p = list(wit.probs)
            if all(c == 0 for c in p):
                raise DegeneratePartition(f"no mass below atom {node.id}")
            units = [[ONE if j == h else ZERO for j in range(width)]
                     for h in range(width)]
            frame = gram_schmidt([p, *units])
            epsilons = frame[1:]
            if len(epsilons) != basis.d:
                raise DegeneratePartition(
                    f"frame at atom {node.id} has {len(epsilons)} directions")
            frames[(t, node.id)] = epsilons
            node_of = [tree.node_at(t, i) for i in range(tree.n_leaves)].__getitem__
            for sub in _atoms_within(filtration, t - 1, node.leaves()):
                # class h is the time-t node wit.subatoms[h]; padding is empty
                law = {child.id: p for child, p in
                       conditional_law(tree, sub, node_of).items()}
                p_bar = [law.get(label, ZERO) for label in wit.subatoms]
                rho = [ZERO if p[h] == 0
                       else Fraction(1, 2 ** t) * (p_bar[h] / p[h] - 1)
                       for h in range(width)]
                sigma = [dot(rho, eps) / dot(eps, eps) for eps in epsilons]
                phis[(t, sub.label)] = tuple(Fraction(4 ** t) * c for c in sigma)
            for i in node.leaves():
                inc = x2.increment(t, i)
                steps = tuple(dot(eps, inc) for eps in epsilons)
                n_row[i] = tuple(a + b for a, b in
                                 zip(n_data[t - 1][i], steps))
        n_data.append(n_row)

    n = Process(tree, n_data, basis.d)
    phi = predictable(filtration, basis.d, lambda t, sub: phis[(t, sub.label)])

    holds = all(
        multiplier_identity(phi, n_brackets(n, x2.component(h)),
                            x2.component(h), filtration)
        for h in range(width))
    return MultiplierSolution(n=n, phi=phi, holds=holds, basis=basis)


@dataclass(frozen=True)
class AtomAudit:
    """One conditioning atom's pricing system and its optimal reweighting,
    as Fractions: the record find_deflator kept before its int cells."""
    time: int
    atom: str
    subatoms: tuple
    weights: tuple
    price_moves: tuple
    status: str
    floor: object
    solution: tuple | None
    separating: object


def _one_period_deflator(q, moves):
    """Maximize the floor min y over y >= 0 with q.y = 1 and q.(y moves) = 0.

    This is the finite one-period FTAP (Harrison and Pliska 1981; Dalang,
    Morton and Willinger 1990) in closed form. With mean move m = q.moves
    and e the extreme move on the far side of zero from m, the optimum is
    the floor f = e / (e - m) on every successor, plus the remaining mass
    (1 - f) / q_k on the first successor k whose move is e. No such y
    exists when every move lies strictly on m's side. Returns
    (status, floor, y), with floor and y None when infeasible.
    """
    m = sum((qi * v for qi, v in zip(q, moves)), start=ZERO)
    if m == 0:
        return OPTIMAL, ONE, (ONE,) * len(q)
    e = min(moves) if m > 0 else max(moves)
    if e * m > 0:
        return INFEASIBLE, None, None
    floor = e / (e - m)
    k = moves.index(e)
    y = [floor] * len(q)
    y[k] += (1 - floor) / q[k]
    return OPTIMAL, floor, tuple(y)


def find_deflator(s: Process, enlargement_like) -> DeflatorSearch:
    """Search for per-atom positive reweightings that keep the price fair.

    Per conditioning atom: find y_i > 0 over the successor atoms with
    sum q_i y_i = 1 and sum q_i y_i S_i = S_previous, maximizing the floor
    min y_i in closed form. An atom fails when the optimum is not strictly
    positive (or the equalities admit no nonnegative solution); every
    failing atom is reported, with a sign vector separating the price moves
    from zero as the witness.
    """
    if s.dim != 1:
        raise DimensionMismatch("deflator targets are scalar prices")
    filtration = as_filtration(enlargement_like)
    tree = s.tree
    _require_positive(s, "price")
    s.require_martingale(tree, what="price")

    audit = []
    violations = []
    factors = {}
    for t in range(1, tree.horizon + 1):
        for atom in filtration.atoms(t - 1):
            subs = _atoms_within(filtration, t, atom.leaves)
            q = [sub.prob / atom.prob for sub in subs]
            s_prev = s.values[t - 1][atom.leaves[0]][0]
            moves = [s.values[t][sub.leaves[0]][0] - s_prev for sub in subs]
            status, floor, ys = _one_period_deflator(q, moves)

            ok = status == OPTIMAL and floor > 0
            separating = None
            if not ok:
                # one-dimensional separation: the moves all lie weakly on
                # one side of zero, strictly somewhere
                if all(v >= 0 for v in moves):
                    separating = 1
                elif all(v <= 0 for v in moves):
                    separating = -1
            record = AtomAudit(
                time=t, atom=atom.label,
                subatoms=tuple(sub.label for sub in subs),
                weights=tuple(q), price_moves=tuple(moves),
                status=status, floor=floor,
                solution=ys, separating=separating)
            audit.append(record)
            if ok:
                for sub, y in zip(subs, ys):
                    factors[(t, sub.label)] = y
            else:
                violations.append(record)

    if violations:
        return DeflatorSearch(feasible=False, deflator=None,
                              violations=tuple(violations), audit=tuple(audit))

    data = [[(ONE,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for atom in filtration.atoms(t):
            y = factors[(t, atom.label)]
            for i in atom.leaves:
                row[i] = (data[t - 1][i][0] * y,)
        data.append(row)
    deflator = Deflator(process=Process(tree, data, 1), target=s)
    return DeflatorSearch(feasible=True, deflator=deflator,
                          violations=(), audit=tuple(audit))


def doleans_exponential(a, x: Process) -> Process:
    """Pathwise product of (1 + a * delta X), started at 1."""
    if x.dim != 1:
        raise DimensionMismatch("exponentials take scalar processes")
    a = to_fraction(a)
    tree = x.tree
    data = [[(ONE,)] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = []
        for leaf in range(tree.n_leaves):
            step = 1 + a * x.increment(t, leaf)[0]
            row.append((data[t - 1][leaf][0] * step,))
        data.append(row)
    return Process(tree, data, dim=1)


def random_representable(w: Process, rng, bound=3) -> Process:
    """Scalar martingale given as a random predictable integral against w."""
    tree = w.tree
    zero = tuple([ZERO] * w.dim)
    data = [[zero] * tree.n_leaves]
    for t in range(1, tree.horizon + 1):
        row = [None] * tree.n_leaves
        for node in tree.nodes_at[t - 1]:
            vec = tuple(Fraction(rng.randint(-bound, bound))
                        for _ in range(w.dim))
            for i in node.leaves():
                row[i] = vec
        data.append(row)
    integrand = Process(tree, data, dim=w.dim)
    return dot_integral(integrand, w)


# --- the per-leaf kernel and cell sharing before atom-indexed rows ----------

class Shared:
    """fn over aligned rows of cells, once per distinct tuple of cell objects.

    Cells that hold the same objects get the same result object. Each memo
    entry keeps its cells alive, so an id in a key cannot be reused while
    the memo lives; one instance may serve several rows when fn does not
    depend on which row it is called for.
    """

    __slots__ = ("fn", "memo")

    def __init__(self, fn):
        self.fn = fn
        self.memo = {}

    def __call__(self, *rows):
        memo = self.memo
        out = []
        for cells in zip(*rows):
            key = tuple(map(id, cells))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (cells, self.fn(*cells))
            out.append(hit[1])
        return out


def _group(leaves, key):
    """The leaves grouped by key(leaf), in first-leaf order."""
    groups = {}
    for leaf in leaves:
        groups.setdefault(key(leaf), []).append(leaf)
    return groups


def _masses(tree: FilteredTree, atom: Atom, key):
    """{key value: (first leaf, mass)} over the atom's leaves, grouped by
    key(leaf) in first-leaf order; the masses are unconditional, and a lone
    group takes the atom's probability, which is the mass of its leaves."""
    groups = _group(atom.leaves, key)
    if len(groups) == 1:
        ((k, leaves),) = groups.items()
        return {k: (leaves[0], atom.prob)}
    probs = tree.leaf_probs
    return {k: (leaves[0], sum((probs[i] for i in leaves), start=ZERO))
            for k, leaves in groups.items()}


def conditional_law(tree: FilteredTree, atom: Atom, key) -> dict:
    """P(key | atom): {value: probability} over the values key(leaf) takes
    on the atom's leaves, in first-leaf order."""
    return {k: mass / atom.prob
            for k, (_, mass) in _masses(tree, atom, key).items()}


def _weigh(row, entries, total):
    cells = [(row[first], mass) for first, mass in entries]
    return tuple(sum((mass * cell[k] for cell, mass in cells), start=ZERO) / total
                 for k in range(len(cells[0][0])))


def conditional_mean(tree: FilteredTree, atom: Atom, row, key=None):
    """E[row | atom] for a leaf-indexed row of equal-length rational tuples.

    Leaves holding one tuple object are weighed together, so each distinct
    cell is multiplied once; distinct but equal tuples are weighed apart,
    which changes nothing exact. With key, returns instead the partial means
    {value: E[row; key = value | atom]} in first-leaf order.
    """
    if key is None:
        masses = _masses(tree, atom, lambda i: id(row[i]))
        if len(masses) == 1:
            return row[atom.leaves[0]]
        return _weigh(row, masses.values(), atom.prob)
    by_key = {}
    for (k, _), entry in _masses(tree, atom, lambda i: (key(i), id(row[i]))).items():
        by_key.setdefault(k, []).append(entry)
    return {k: _weigh(row, entries, atom.prob) for k, entries in by_key.items()}


# --- the covariance kernel before the closed-form pseudo-inverse ------------

def _moment_sums(x: Process, t: int, atom):
    """Mean vector and covariance matrix of Delta X_t given the atom, as
    int numerators: (mean den, mean, covariance den, covariance rows)."""
    part, den, incs = x._delta(t)
    ((scale, sums),) = _means([atom], part, den, incs)  # the mean is sums / scale
    weight = scale // den
    outer = {}  # the blocks meeting the atom
    for k, _ in part.pieces(atom):
        d = [n * weight - m for n, m in zip(incs[k], sums)]  # over scale
        outer[k] = tuple(u * v for u in d for v in d)
    ((cov_den, flat),) = _means([atom], part, scale * scale, outer)
    width = len(sums)
    return (scale, sums, cov_den,
            [flat[g * width:(g + 1) * width] for g in range(width)])


def covariance_kernel(enlargement_like, basis, time: int,
                      atom_label: str) -> KernelCertificate:
    """Kernel of the per-atom covariance step and its reflexive certificate.

    The step matrix is (1/4^t)(diag(p) - p pT); its kernel is spanned by the
    all-ones vector on the charged classes together with the units of the
    empty classes. J inverts the step on the charged sum-zero directions, and
    every larger-flow atom's own covariance step M satisfies M = M J C.
    """
    filtration = as_filtration(enlargement_like)
    tree = basis.process.tree
    wit = next((w for w in basis.witnesses
                if w.time == time and w.atom == atom_label), None)
    if wit is None:
        raise DegeneratePartition(
            f"no slot at time {time}, atom {atom_label}")
    width = basis.d + 1
    p = list(wit.probs)
    scale = Fraction(1, 4 ** time)
    c = [[scale * ((p[g] if g == h else ZERO) - p[g] * p[h])
          for h in range(width)] for g in range(width)]

    charged = [h for h in range(width) if p[h] > 0]
    if not charged:
        raise DegeneratePartition(f"no mass below atom {atom_label}")
    claimed = []
    ones = [ONE if h in charged else ZERO for h in range(width)]
    claimed.append(tuple(ones))
    for h in range(width):
        if p[h] == 0:
            claimed.append(tuple(ONE if g == h else ZERO for g in range(width)))
    kernel = null_space(c)
    in_kernel = all(
        all(dot(row, vec) == 0 for row in c) for vec in claimed)
    kernel_matches = in_kernel and len(kernel) == len(claimed)

    # sum-zero frame on the charged classes
    b_cols = []
    lead = charged[0]
    for h in charged[1:]:
        col = [ZERO] * width
        col[lead] = ONE
        col[h] = -ONE
        b_cols.append(col)
    if b_cols:
        b = transpose(b_cols)
        core = mat_mul(mat_mul(transpose(b), c), b)
        core_inv = invert(core)
        j = mat_mul(mat_mul(b, core_inv), transpose(b))
    else:
        j = [[ZERO] * width for _ in range(width)]

    jc = mat_mul(j, c)
    x2 = basis.process
    node = tree.nodes[atom_label]
    holds = kernel_matches
    for sub in _atoms_within(filtration, time - 1, node.leaves()):
        *_, cov_den, cov = _moment_sums(x2, time, sub)
        m = [list(as_fractions(cov_den, row)) for row in cov]
        back = mat_mul(m, jc)
        ok = back == m
        holds = holds and ok

    return KernelCertificate(
        time=time, atom=atom_label,
        matrix=tuple(tuple(row) for row in c),
        kernel_basis=tuple(tuple(v) for v in kernel),
        claimed_basis=tuple(claimed),
        kernel_matches=kernel_matches,
        j=tuple(tuple(row) for row in j),
        holds=holds)

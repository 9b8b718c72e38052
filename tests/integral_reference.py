"""Per-leaf integrals and star-to-dot conversions, as the library had them.

Test-only reference: these step every (time, leaf) cell on its own and
rebuild every g-independent object on each call. The library now evaluates
each step once per distinct tuple of input objects and memoizes the
g-independent side of a conversion; the differential tests in
test_integral_reference hold it to these functions, which must give equal
processes and certificates on any input.
"""

from __future__ import annotations

from fractions import Fraction

from filtration_lab.calculus import JumpFunction, JumpMeasure, Process
from filtration_lab.constraint import (
    AccessibleConversion,
    ConstraintSystem,
    ConversionCertificate,
    _normalize_slots,
    _slot_indicator_table,
)
from filtration_lab.errors import (
    ConstraintMismatch,
    DimensionMismatch,
    NotPredictable,
    PartitionNotMeasurable,
)
from filtration_lab.tree import as_filtration

ZERO = Fraction(0)


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
                scale = cs.gauges[k](value)
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

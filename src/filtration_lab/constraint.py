"""Finite predictable constraint systems and star-to-dot conversions.

On a finite tree a jump measure confines its locations, per (time,
conditioning atom), to finitely many values. Enumerating those values with a
uniform slot count turns compensated jump-measure integrals into dot
integrals against finitely many compensated indicator martingales. The three
constructions here index the slots differently: per-atom value menus,
partition classes at accessible times, and abstract spanning directions.

Both indicator families, the slot martingales and the class martingales Y,
are built by Process._compensated_classes from the successor masses of each
conditioning atom, not from star integrals through the compensator table, so
the star side a certificate compares them with comes by another route.

What a conversion needs apart from the jump function g is built once: a
constraint system keeps its slot martingales per measure, and a measure keeps
each accessible set-up (validated slots, class locations, the class
martingales Y and the scale G) per filtration and normalized slot content.
The star side comes from star_integral's own memo on g, so star_to_dot and
accessible_star_to_dot share it; the processes share vectors across leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import (
    JumpFunction,
    JumpMeasure,
    Process,
    dot_integral,
    star_integral,
)
from .errors import (
    ConstraintMismatch,
    DimensionMismatch,
    NotOrthogonal,
    NotPredictable,
    PartitionNotMeasurable,
    ProbabilitySumNotOne,
    RankDeficient,
    SpanDeficient,
    VanishingWeight,
)
from .linalg import right_inverse, solve
from .rationals import format_rational, to_fraction
from .tree import StoppingTime, as_filtration

ZERO = Fraction(0)


def l1_gauge(x) -> Fraction:
    """Shared slot gauge: min of the l1 norm and 1.

    Bounded, vanishes only at 0, and |gauge(x)| <= (|x| and 1) with constant
    1, which keeps every constraint martingale increment in [-2, 2].
    """
    total = sum((abs(c) for c in x), start=ZERO)
    return total if total < 1 else Fraction(1)


class ConstraintSystem:
    """Per-atom menus of jump locations with a uniform slot count.

    slots maps (t, conditioning atom label) to an n-tuple of location
    vectors; empty slots hold None so that n stays uniform across atoms.
    Every slot is gauged by l1_gauge, which gauges lists once per slot.
    """

    def __init__(self, filtration, dim, n, slots):
        self.filtration = filtration
        self.dim = dim
        self.n = n
        self.slots = dict(slots)
        self.gauges = (l1_gauge,) * n
        self._weights = {}  # slot_weights per slot row
        for key, values in self.slots.items():
            if len(values) != n:
                raise ConstraintMismatch(f"slot row at {key} has wrong length")
            weights = []
            for k, value in enumerate(values):
                weights.append(ZERO if value is None else self.gauges[k](value))
                if value is not None and weights[-1] == 0:
                    raise ConstraintMismatch(
                        f"gauge vanishes on the slot value {value} at {key}")
                if value is not None and value in values[:k]:
                    raise ConstraintMismatch(
                        f"menu at {key} lists the location {value} twice")
            self._weights[key] = tuple(weights)
        self._martingales: dict[JumpMeasure, Process] = {}

    def slot_values(self, t, label):
        return self.slots.get((t, label), tuple([None] * self.n))

    def slot_weights(self, t, label):
        """gauge_k(alpha_k) per slot at (t, label), 0 on empty slots."""
        return self._weights.get((t, label), (ZERO,) * self.n)

    def slot_of(self, t, label, value):
        """The menu index of a location, or ConstraintMismatch."""
        menu = self.slot_values(t, label)
        if value not in menu:
            raise ConstraintMismatch(f"location {value} at time {t}, atom {label} "
                                     "is outside the constraint menu")
        return menu.index(value)

    def integrand(self, coefficient) -> Process:
        """Predictable H with H_k = coefficient(t, atom, alpha_k) /
        gauge_k(alpha_k) on nonempty slots and 0 elsewhere."""
        def at(t, atom):
            return tuple(ZERO if value is None
                         else to_fraction(coefficient(t, atom, value) / w)
                         for value, w in zip(self.slot_values(t, atom.label),
                                             self.slot_weights(t, atom.label)))

        return Process._predictable(self.filtration, self.n, at)

    def as_table(self):
        """JSON-ready per-atom slot listing."""
        rows = []
        for (t, label) in sorted(self.slots):
            values = self.slots[(t, label)]
            rows.append({
                "time": t,
                "atom": label,
                "values": [None if v is None else [format_rational(c) for c in v]
                           for v in values],
            })
        return {"n": self.n, "dim": self.dim, "slots": rows}


def detect_fpcc(mu: JumpMeasure, filtration_like=None) -> ConstraintSystem:
    """Enumerate, per (time, conditioning atom), the distinct jump locations.

    Slot order is lexicographic on the location vectors; n is the maximum
    count over atoms and shorter menus keep trailing empty slots.
    """
    filtration = as_filtration(filtration_like or mu.tree)
    nu = mu.compensator(filtration)
    menus = {key: tuple(nu.charged(*key)) for key in nu.laws}
    n = max((len(m) for m in menus.values()), default=0)
    slots = {key: menu + tuple([None] * (n - len(menu)))
             for key, menu in menus.items()}
    return ConstraintSystem(filtration, mu.dim, n, slots)


def constraint_martingales(mu: JumpMeasure, cs: ConstraintSystem) -> Process:
    """The n compensated slot-indicator martingales, stacked.

    Slot k moves by gauge_k(alpha_k) (1{jump = alpha_k} - P(jump = alpha_k |
    atom)), P read from the successor masses, not from the compensator table
    the star side of star_to_dot uses. Built once per measure; the constraint
    system keeps the result.
    """
    tree, filtration = mu.tree, cs.filtration
    if filtration.tree is not tree:
        raise ConstraintMismatch("measure and constraint system on different trees")
    if mu not in cs._martingales:
        def classes_at(t):
            atoms = filtration.parts[t - 1]
            part = tree.meet(atoms, tree.base_filtration().parts[t])
            kind = []  # the menu index of each block's jump
            for block, k in zip(part.atoms, part.index_in(atoms)):
                jump = mu.jump_at(t, block.leaves[0])
                kind.append(None if jump is None
                            else cs.slot_of(t, atoms.atoms[k].label, jump))
            return part, kind, [cs.slot_weights(t, atom.label)
                                if (t, atom.label) in cs.slots else None
                                for atom in atoms.atoms]

        cs._martingales[mu] = Process._compensated_classes(filtration, cs.n, classes_at)
    return cs._martingales[mu]


@dataclass(frozen=True)
class ConversionCertificate:
    """Exact pathwise comparison of a star integral and its dot rewrite."""
    holds: bool
    star_side: Process
    dot_side: Process
    divergence: tuple | None


def star_to_dot(g: JumpFunction, mu: JumpMeasure, cs: ConstraintSystem):
    """Rewrite g * (mu - nu) as an integrand against the slot martingales.

    H_k at (t, atom) is g(t, alpha_k) / gauge_k(alpha_k) on nonempty slots
    and 0 elsewhere; the certificate compares both sides at every node.
    """
    filtration = cs.filtration
    x = constraint_martingales(mu, cs)
    h = cs.integrand(lambda t, atom, value: g.value(t, atom.leaves[0], value))

    star = star_integral(g, mu, filtration)
    dot = dot_integral(h, x, filtration)
    divergence = star.first_divergence(dot)
    certificate = ConversionCertificate(
        holds=divergence is None, star_side=star, dot_side=dot,
        divergence=divergence)
    return h, certificate


def expand_integrand(h: Process, mu: JumpMeasure, cs: ConstraintSystem) -> JumpFunction:
    """Rebuild the jump function sum_k H_k gauge_k(x) 1{x = alpha_k}.

    Star-integrating the result recovers the dot integral of h against the
    slot martingales, which closes the conversion in the other direction.
    """
    filtration = cs.filtration
    if h.dim != cs.n:
        raise DimensionMismatch(f"integrand dim {h.dim}, constraint count {cs.n}")
    if not h.is_predictable(filtration):
        raise NotPredictable("integrand is not predictable for this filtration")
    locations = mu.tree.locations
    items = []
    for (t, label), (_, law) in mu.compensator(filtration).laws.items():
        hv = h.at(t, filtration.atom_labelled(t - 1, label).leaves[0])
        weights = cs.slot_weights(t, label)  # gauge_k of the k-th location
        for loc, _ in law:
            k = cs.slot_of(t, label, locations[loc])
            items.append(((t, label, loc), hv[k] * weights[k]))
    return JumpFunction._from_ids(filtration, items)


def jump_supports_disjoint(x: Process) -> bool:
    """No node charges more than one component's jump.

    This is the discrete reading of components never jumping simultaneously:
    the per-component jump supports, as node sets, are pairwise disjoint.
    """
    tree = x.tree
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t]:
            inc = x.increment(t, node.leaf_lo)
            jumping = sum(1 for c in inc if c != 0)
            if jumping > 1:
                return False
    return True


def slot_events_disjoint(mu: JumpMeasure, cs: ConstraintSystem) -> bool:
    """Each charged location matches exactly one slot of its menu.

    This is what survives of pairwise orthogonality for the compensated
    slot-indicator family here: no two raw slot events ever fire together.
    The compensated processes themselves still co-move through their
    predictable parts, as any two compensated indicators on one atom must.
    """
    tree = mu.tree
    for node_id, value in mu.support.items():
        node = tree.nodes[node_id]
        atom = cs.filtration.conditioning_atom_of(node.time, node.leaf_lo)
        menu = cs.slot_values(node.time, atom.label)
        if sum(1 for v in menu if v == value) != 1:
            return False
    return True


@dataclass(frozen=True)
class AccessibleSlot:
    """One accessible time with its partition classes and weight.

    tau is a predictable stopping time (an int means the constant time);
    classes lists the partition sets as leaf collections, aligned by class
    index across slots; weight is any nonzero rational.
    """
    tau: object
    classes: tuple
    weight: object = 1


@dataclass(frozen=True)
class AccessibleConversion:
    """Output of the accessible-time rewrite, with its verification."""
    scale: Process
    integrand: Process
    martingales: Process
    star_side: Process
    dot_side: Process
    holds: bool
    divergence: tuple | None


def _leaf_index(tree, item):
    if isinstance(item, int):
        if not 0 <= item < tree.n_leaves:
            raise PartitionNotMeasurable(f"leaf index {item} out of range")
        return item
    index = tree.leaf_index(str(item))
    if index is None:
        raise PartitionNotMeasurable(f"unknown leaf id {item!r}")
    return index


def _normalize_slots(tree, slots):
    """Coerce taus, leaf sets and weights; pad class lists to a common count."""
    rows = []
    for slot in slots:
        tau = slot.tau
        if not isinstance(tau, StoppingTime):
            tau = StoppingTime.constant(tree, tau)  # predictable as it stands
        elif not tau.is_predictable():
            raise NotPredictable("accessible slots need predictable times")
        weight = to_fraction(slot.weight)
        if weight == 0:
            raise VanishingWeight("slot weight must be nonzero")
        classes = tuple(frozenset(_leaf_index(tree, x) for x in cls)
                        for cls in slot.classes)
        rows.append((tau, classes, weight))
    count = max((len(c) for _, c, _ in rows), default=0)
    rows = [(tau, classes + tuple([frozenset()] * (count - len(classes))), w)
            for tau, classes, w in rows]
    return rows, count


def accessible_star_to_dot(g: JumpFunction, mu: JumpMeasure, slots,
                           filtration_like=None) -> AccessibleConversion:
    """Rewrite g * (mu - nu) over partition classes at accessible times.

    Per slot, the classes split each conditioning atom's successors by jump
    location; the class martingales Y_k compensate the weighted class
    indicators, the scale G undoes the weights on each time's graph, and the
    integrand picks g at the class location wherever that location is
    nonzero. The identity is verified node by node. Everything but the
    integrand is built once per (measure, filtration, normalized slots).
    """
    tree = mu.tree
    filtration = as_filtration(filtration_like or tree)
    rows, count = _normalize_slots(tree, slots)
    content = tuple((tau.values, classes, weight) for tau, classes, weight in rows)
    plan = mu.derived(("accessible", filtration, content),
                      lambda: _plan_accessible(mu, filtration, rows, count))

    off_graph = ((None,) * count, 1)  # no class jumps, unit weight

    def h_at(t, atom):
        locations, _ = plan.cells[t].get(atom.label, off_graph)
        return tuple(ZERO if loc is None else g.value(t, atom.leaves[0], loc)
                     for loc in locations)

    h = Process._predictable(filtration, count, h_at)
    gh = Process._predictable(filtration, count, lambda t, atom: tuple(
        v / plan.cells[t].get(atom.label, off_graph)[1]
        for v in h.at(t, atom.leaves[0])))

    star = star_integral(g, mu, filtration)
    dot = dot_integral(gh, plan.martingales, filtration)
    divergence = star.first_divergence(dot)
    return AccessibleConversion(
        scale=plan.scale, integrand=h, martingales=plan.martingales,
        star_side=star, dot_side=dot, holds=divergence is None,
        divergence=divergence)


@dataclass(frozen=True)
class _AccessiblePlan:
    """The g-independent side of an accessible conversion.

    cells[t] maps the label of each conditioning atom on a slot graph at t
    to its class locations (None where the class does not jump) and the
    slot weight.
    """
    cells: tuple
    martingales: Process
    scale: Process


def _plan_accessible(mu, filtration, rows, count) -> _AccessiblePlan:
    """Validate normalized slots against the measure; build Y and G."""
    tree = mu.tree
    occupied = {}
    class_of = []  # per slot: each leaf's class index, None outside them all
    for idx, (tau, classes, _) in enumerate(rows):
        for leaf in range(tree.n_leaves):
            t = tau.values[leaf]
            if t <= tree.horizon and (t, leaf) in occupied:
                raise ConstraintMismatch("accessible times overlap")
            occupied[(t, leaf)] = idx
        index = [None] * tree.n_leaves
        for k, cls in enumerate(classes):
            if any(index[leaf] is not None for leaf in cls):
                raise PartitionNotMeasurable("partition classes overlap")
            for leaf in cls:
                if tau.values[leaf] > tree.horizon:
                    raise PartitionNotMeasurable(
                        "class contains a path its time never reaches")
                index[leaf] = k
        class_of.append(index)
        # each class, restricted to {tau = t}, must be a union of time-t atoms
        for t in range(1, tree.horizon + 1):
            for atom in filtration.atoms(t):
                inside = {index[leaf] for leaf in atom.leaves
                          if tau.values[leaf] == t}
                if len(inside) > 1:
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
        if class_of[idx][leaf] is None:
            raise ConstraintMismatch(
                f"support node {node_id} is outside every partition class")

    # within an occupied atom each class is a union of time-t atoms, so the
    # class masses come from the parent-to-child index
    cells = [{}]
    classes_at = [None]  # per t: each time-t atom's class, the slot weights
    for t in range(1, tree.horizon + 1):
        cells_t = {}
        children = filtration.parts[t]
        kind = [None] * len(children.atoms)
        weights = []  # None off the slot graphs
        for atom in filtration.atoms(t - 1):
            idx = occupied.get((t, atom.leaves[0]))
            weights.append(None if idx is None else (rows[idx][2],) * count)
            if idx is None:
                continue
            values = [set() for _ in range(count)]
            for k in children.inside(atom):
                leaf = children.atoms[k].leaves[0]
                kind[k] = c = class_of[idx][leaf]
                if c is not None:
                    values[c].add(mu.jump_at(t, leaf))
            for k, found in enumerate(values):
                if len(found) > 1:
                    raise ConstraintMismatch(
                        f"class {k} mixes jump locations on atom "
                        f"{atom.label} at time {t}")
            cells_t[atom.label] = (
                tuple(found.pop() if found else None for found in values),
                rows[idx][2])
        cells.append(cells_t)
        classes_at.append((children, kind, weights))

    none = (ZERO,)
    inverse = [(1 / weight,) for _, _, weight in rows]
    return _AccessiblePlan(
        cells=tuple(cells),
        martingales=Process._compensated_classes(filtration, count,
                                                 classes_at.__getitem__),
        scale=Process._predictable(
            tree.base_filtration(), 1,
            lambda t, atom: inverse[occupied[(t, atom.leaves[0])]]
            if (t, atom.leaves[0]) in occupied else none))


def value_slots_from_measure(mu: JumpMeasure, filtration_like=None,
                             weights=None):
    """Build accessible slots from a measure: one slot per support time.

    Classes group each conditioning atom's successors by jump location (lex
    order), with a final class collecting the non-jumping successors, so the
    classes partition the whole space at each support time.
    """
    tree = mu.tree
    filtration = as_filtration(filtration_like or tree)
    times = sorted({tree.nodes[nid].time for nid in mu.support})
    slots = []
    for pos, t in enumerate(times):
        ranked, quiet = {}, set()  # rank of a location on its atom -> leaves
        children = filtration.parts[t]
        for atom in filtration.atoms(t - 1):
            # the atom's children, by the location of their time-t node
            groups: dict[tuple, set] = {}
            for child in map(children.atoms.__getitem__, children.inside(atom)):
                groups.setdefault(mu.jump_at(t, child.leaves[0]), set()).update(child.leaves)
            quiet |= groups.pop(None, set())
            for rank, value in enumerate(sorted(groups)):
                ranked.setdefault(rank, set()).update(groups[value])
        classes = [frozenset(ranked[k]) for k in range(len(ranked))]
        classes.append(frozenset(quiet))
        weight = 1 if weights is None else weights[pos]
        slots.append(AccessibleSlot(tau=t, classes=tuple(classes), weight=weight))
    return slots


def solve_accessible_K(gamma, p):
    """Express every centered unit target through the given directions.

    gamma holds the directions as columns of an n by d matrix, each
    orthogonal to the probability vector p; the solution K (d by n) gives,
    per h, coefficients with sum_i gamma_i K[i][h] = e_h - p_h * ones.
    """
    rows = [[to_fraction(c) for c in row] for row in gamma]
    pv = [to_fraction(c) for c in p]
    n = len(pv)
    if len(rows) != n:
        raise DimensionMismatch(f"{len(rows)} direction rows for {n} outcomes")
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DimensionMismatch("ragged direction matrix")
    d = widths.pop() if widths else 0
    if sum(pv, start=ZERO) != 1:
        raise ProbabilitySumNotOne("probability vector does not sum to 1")
    for i in range(d):
        against = sum((rows[k][i] * pv[k] for k in range(n)), start=ZERO)
        if against != 0:
            raise NotOrthogonal(f"direction {i} is not orthogonal to p")
    columns = []
    for h in range(n):
        target = [(1 if k == h else 0) - pv[h] for k in range(n)]
        x = solve(rows, target)
        if x is None:
            raise SpanDeficient(
                f"directions and p do not span: centered unit {h} unreachable",
                residual=tuple(target))
        columns.append(x)
    return [[columns[h][i] for h in range(n)] for i in range(d)]


def solve_inaccessible_K(gamma):
    """Exact right inverse of the direction matrix, least-index pivots."""
    rows = [[to_fraction(c) for c in row] for row in gamma]
    k = right_inverse(rows)
    if k is None:
        raise RankDeficient(
            f"directions do not have full rank {len(rows)}")
    return k

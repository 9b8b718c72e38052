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
constraint system keeps its slot martingales per measure, and an accessible
converter builds its set-up (validated slots, class locations, the class
martingales Y and the scale G) once, for every g it converts; a measure
keeps none. Both conversions and the expansion are linear in g, so each
runs one body over a stack of m jump functions sharing one anchoring flow:
the star side is calculus._star_stack, whose component s is g_s's star
integral, the integrand stacks the m integrands in blocks, the dot side is
the block product of that integrand with the martingales, and each g's
verdict is its own component's earliest divergence. The star-to-dot check
converts its five samples as one stack. The public single-g forms are the
width-1 calls, each building its own star side; the processes share
vectors across leaves.
Menus and class locations are held as the tree's location ids, and every
computation here reads them by id, on ints, each gauge from the location's
pooled int cell; a slot's location vector is read from the pool by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import (
    JumpFunction,
    JumpMeasure,
    Process,
    _anchored,
    _dot_blocks,
    _jump_cut,
    _star_stack,
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
from .rationals import as_cell, as_fractions, over_lcm, to_fraction
from .tree import StoppingTime, as_filtration

ZERO = Fraction(0)


def l1_gauge(x) -> Fraction:
    """Shared slot gauge: min of the l1 norm and 1.

    Bounded, vanishes only at 0, and |gauge(x)| <= (|x| and 1) with constant
    1, which keeps every constraint martingale increment in [-2, 2].
    """
    return Fraction(*_gauge(*as_cell(x)))


def _gauge(den, nums):
    """The gauge of the location cell (den, nums) as (num, den), unreduced."""
    return min(sum(map(abs, nums)), den), den


class ConstraintSystem:
    """Per-atom menus of jump locations with a uniform slot count.

    Menus are held as the tree's location ids, None on empty slots so that
    n stays uniform across atoms, with each slot's l1_gauge as an int ratio
    (num, den) from the pooled int cell, (0, 1) on empty slots. slots maps
    (t, conditioning atom label) to the n-tuple of vectors those ids name.
    """

    def __init__(self, filtration, dim, n, slots):
        filtration = as_filtration(filtration)
        # every entry is coerced, then every row tested, before any location
        # is pooled; a cell is reduced, so equal vectors have equal cells
        cells = {key: [None if value is None else as_cell(value) for value in values]
                 for key, values in slots.items()}
        atoms = {(t, atom.label) for t, part in enumerate(filtration.parts[:-1], 1)
                 for atom in part.atoms}
        for key, row in cells.items():
            if key not in atoms:
                raise ConstraintMismatch(
                    f"slot key {key} names no conditioning atom of the flow")
            if len(row) != n:
                raise ConstraintMismatch(f"slot row at {key} has wrong length")
            for k, cell in enumerate(row):
                if cell is None:
                    continue
                if len(cell[1]) != dim:
                    raise DimensionMismatch(f"slot value {as_fractions(*cell)} at "
                                            f"{key} has dim {len(cell[1])}, not {dim}")
                if not any(cell[1]):
                    raise ConstraintMismatch(f"gauge vanishes on the slot value "
                                             f"{as_fractions(*cell)} at {key}")
                if cell in row[:k]:
                    raise ConstraintMismatch(f"menu at {key} lists the location "
                                             f"{as_fractions(*cell)} twice")
        intern = filtration.tree._intern
        self._fill(filtration, dim, n, {
            key: tuple(None if cell is None else intern(*cell) for cell in row)
            for key, row in cells.items()})

    @classmethod
    def _from_ids(cls, filtration, dim, n, menus):
        """Build from menus of the tree's location ids, None on empty
        slots, without hashing a location vector."""
        self = cls.__new__(cls)
        self._fill(filtration, dim, n, menus)
        return self

    def _fill(self, filtration, dim, n, menus):
        """menus: {(t, label): n ids of distinct nonzero locations, or None}."""
        tree = filtration.tree
        self.filtration, self.dim, self.n = filtration, dim, n
        self.slots = {}
        self._menus = {}  # per slot row: (location ids, gauges as int ratios)
        self._index = {}  # per slot row: {location id: menu index}
        for key, ids in menus.items():
            self.slots[key] = tuple(None if loc is None else tree.locations[loc]
                                    for loc in ids)
            self._menus[key] = (tuple(ids), tuple(
                (0, 1) if loc is None else _gauge(*tree.location_cells[loc])
                for loc in ids))
            self._index[key] = {loc: k for k, loc in enumerate(ids) if loc is not None}
        self._martingales: dict[JumpMeasure, Process] = {}

    def _menu(self, t, label):
        """(location ids, gauges as int ratios) of the menu at (t, label)."""
        return self._menus.get((t, label)) or ((None,) * self.n, ((0, 1),) * self.n)

    def _slot(self, t, label, loc, location=None):
        """The menu index of location id loc at (t, label), or
        ConstraintMismatch; location is the vector, read from the pool when
        not given, and loc is None when the pool does not hold it."""
        k = self._index.get((t, label), {}).get(loc)
        if k is None:
            if location is None:
                location = self.filtration.tree.locations[loc]
            raise ConstraintMismatch(
                f"location {location} at time {t}, "
                f"atom {label} is outside the constraint menu")
        return k

    def slot_values(self, t, label):
        return self.slots.get((t, label), tuple([None] * self.n))

    def slot_weights(self, t, label):
        """gauge_k(alpha_k) per slot at (t, label), 0 on empty slots."""
        return tuple(Fraction(*gauge) for gauge in self._menu(t, label)[1])

    def slot_of(self, t, label, value):
        """The menu index of a location, or ConstraintMismatch."""
        return self._slot(t, label, *self.filtration.tree._lookup(value))

    def integrand(self, coefficient) -> Process:
        """Predictable H with H_k = coefficient(t, atom, id of alpha_k) /
        gauge_k(alpha_k) on nonempty slots and 0 elsewhere; coefficient
        gives an int ratio (num, den) with den > 0."""
        return self._integrand(1, lambda t, atom, loc: (coefficient(t, atom, loc),))

    def _integrand(self, width, coefficients) -> Process:
        """integrand for a stack of width coefficient functions, the s-th in
        components s n to s n + n - 1: coefficients(t, atom, loc) gives one
        int ratio per function."""
        empty = ((0, 1),) * width

        def at(t, atom):
            columns = []  # per slot: one ratio per function
            for loc, (gn, gd) in zip(*self._menu(t, atom.label)):
                columns.append(empty if loc is None else [
                    (num * gd, den * gn) for num, den in coefficients(t, atom, loc)])
            return over_lcm([column[s] for s in range(width) for column in columns])

        return Process._predictable(self.filtration, width * self.n, at)

    def as_table(self):
        """JSON-ready per-atom slot listing."""
        rows = []
        for (t, label) in sorted(self.slots):
            values = self.slots[(t, label)]
            rows.append({
                "time": t,
                "atom": label,
                "values": [None if v is None else [str(c) for c in v]
                           for v in values],
            })
        return {"n": self.n, "dim": self.dim, "slots": rows}


def detect_fpcc(mu: JumpMeasure, filtration_like=None) -> ConstraintSystem:
    """Enumerate, per (time, conditioning atom), the distinct jump locations.

    Slot order is lexicographic on the location vectors; n is the maximum
    count over atoms and shorter menus keep trailing empty slots.
    """
    filtration = as_filtration(filtration_like or mu.tree)
    locations = mu.tree.locations
    menus = {key: sorted([loc for loc, _ in law], key=locations.__getitem__)
             for key, (_, law) in mu.compensator(filtration).laws.items()}
    n = max((len(m) for m in menus.values()), default=0)
    return ConstraintSystem._from_ids(filtration, mu.dim, n, {
        key: tuple(menu) + (None,) * (n - len(menu)) for key, menu in menus.items()})


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
            atoms = filtration.parts[t - 1].atoms
            cut, atom_of, loc_of = _jump_cut(mu, filtration, t)
            kind = [None if loc is None else cs._slot(t, atoms[i].label, loc)
                    for i, loc in zip(atom_of, loc_of)]  # each block's menu index
            return cut, kind, [over_lcm(cs._menus[(t, atom.label)][1])
                               if (t, atom.label) in cs._menus else None
                               for atom in atoms]

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
    and 0 elsewhere, g read in its time-t table at the anchor atom's label;
    the certificate compares both sides at every node. The width-1 call of
    _star_to_dot, whose star side is g's memoized star integral.
    """
    h, star, dot, (divergence,) = _star_to_dot((g,), mu, cs)
    certificate = ConversionCertificate(
        holds=divergence is None, star_side=star, dot_side=dot,
        divergence=divergence)
    return h, certificate


def _star_to_dot(gs, mu: JumpMeasure, cs: ConstraintSystem):
    """star_to_dot for a stack of jump functions sharing one anchoring
    filtration, in one pass: the stacked integrand, whose s-th block of n
    components is gs[s]'s H, the stacked star and dot sides, and per
    function the earliest divergence of its two sides, or None."""
    filtration = cs.filtration
    x = constraint_martingales(mu, cs)
    star = _star_stack(gs, mu, filtration)
    labels, tables = _anchored(gs[0].filtration, filtration), _tables(gs)

    def coefficients(t, atom, loc):
        label = labels[t][atom.index]
        try:
            return [(table[label, loc], den) for den, table in tables[t]]
        except KeyError:  # the message names the point, not the function
            raise gs[0]._missing(t, label, loc) from None

    h = cs._integrand(len(gs), coefficients)
    dot = _dot_blocks(h, x, filtration, len(gs))
    return h, star, dot, star._divergences(dot)


def _tables(gs) -> list:
    """Per time t >= 1, each jump function's time-t table as (den, {(atom
    label, location id): numerator})."""
    horizon = gs[0].filtration.tree.horizon
    return [None] + [[g._tables.get(t, (1, {})) for g in gs]
                     for t in range(1, horizon + 1)]


def expand_integrand(h: Process, mu: JumpMeasure, cs: ConstraintSystem) -> JumpFunction:
    """Rebuild the jump function sum_k H_k gauge_k(x) 1{x = alpha_k}.

    Star-integrating the result recovers the dot integral of h against the
    slot martingales, which closes the conversion in the other direction.
    The width-1 call of _expanded.
    """
    (g,) = _expanded(h, mu, cs, 1)
    return g


def _expanded(h: Process, mu: JumpMeasure, cs: ConstraintSystem, width) -> list:
    """expand_integrand for a stacked integrand of dim width * n: one jump
    function per block of n components, in order."""
    filtration, n = cs.filtration, cs.n
    if h.dim != width * n:
        raise DimensionMismatch(f"integrand dim {h.dim}, constraint count {n}")
    if not h.is_predictable(filtration):
        raise NotPredictable("integrand is not predictable for this filtration")
    if mu.tree is not filtration.tree:
        raise ConstraintMismatch("measure and constraint system on different trees")
    laws, items = mu.compensator(filtration).laws, [[] for _ in range(width)]
    for t in range(1, filtration.tree.horizon + 1):
        for atom in filtration.parts[t - 1].atoms:
            law = laws.get((t, atom.label))
            if law is None:
                continue
            # H at the atom, from h's int slice, and the menu read once
            cell = h.nums[t][h.parts[t].block_of[atom.leaves[0]]]
            gauges = cs._menu(t, atom.label)[1]
            index = cs._index.get((t, atom.label), {})
            for loc, _ in law[1]:
                # a location off the menu is refused by _slot
                k = index[loc] if loc in index else cs._slot(t, atom.label, loc)
                gn, gd = gauges[k]
                for s, listed in enumerate(items):
                    listed.append(((t, atom.label, loc),
                                   (cell[s * n + k] * gn, h.dens[t] * gd)))
    return [JumpFunction._from_ratios(filtration, listed) for listed in items]


def jump_supports_disjoint(x: Process) -> bool:
    """No node charges more than one component's jump.

    This is the discrete reading of components never jumping simultaneously:
    the per-component jump supports, as node sets, are pairwise disjoint.
    """
    tree = x.tree
    for t in range(1, tree.horizon + 1):
        part, _, incs = x._delta(t)
        for node in tree.nodes_at[t]:
            if sum(1 for c in incs[part.block_of[node.leaf_lo]] if c) > 1:
                return False
    return True


def slot_events_disjoint(mu: JumpMeasure, cs: ConstraintSystem) -> bool:
    """Each charged location matches exactly one slot of its menu.

    This is what survives of pairwise orthogonality for the compensated
    slot-indicator family here: no two raw slot events ever fire together.
    The compensated processes themselves still co-move through their
    predictable parts, as any two compensated indicators on one atom must.
    """
    filtration = cs.filtration
    if filtration.tree is not mu.tree:
        raise ConstraintMismatch("measure and constraint system on different trees")
    for t in range(1, mu.tree.horizon + 1):
        atoms = filtration.parts[t - 1].atoms
        _, atom_of, loc_of = _jump_cut(mu, filtration, t)
        if any(loc is not None and cs._menu(t, atoms[i].label)[0].count(loc) != 1
               for i, loc in zip(atom_of, loc_of)):
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
    if isinstance(item, bool):
        raise PartitionNotMeasurable(f"leaf {item!r} is neither an index nor an id")
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
    nonzero, read in g's time-t table at the anchor atom's label. The
    identity is verified node by node. Each call builds its own plan and
    converts g at width 1; the star-to-dot check builds one plan per check,
    through _accessible_converter, and converts its samples as one stack.
    """
    filtration = as_filtration(filtration_like or mu.tree)
    convert = _accessible_converter(mu, slots, filtration)
    star = star_integral(g, mu, filtration)
    plan, h, dot, (divergence,) = convert((g,), star)
    return AccessibleConversion(
        scale=plan.scale, integrand=h, martingales=plan.martingales,
        star_side=star, dot_side=dot, holds=divergence is None,
        divergence=divergence)


def _accessible_converter(mu: JumpMeasure, slots, filtration):
    """The accessible conversion over the given slots, with the slots
    normalized and their plan built once, here: convert(gs, star) takes
    jump functions sharing one anchoring filtration and their stacked star
    integral under the flow, and gives the plan, the stacked integrand h
    (gs[s]'s in its s-th block of count components), the stacked dot side
    and per function the earliest divergence of its two sides, or None."""
    rows, count = _normalize_slots(mu.tree, slots)
    plan = _plan_accessible(mu, filtration, rows, count)
    off_graph = ((None,) * count, (1, 1))  # no class jumps, unit weight

    def convert(gs, star):
        labels, tables = _anchored(gs[0].filtration, filtration), _tables(gs)

        def h_at(t, atom):
            ids, _ = plan.cells[t].get(atom.label, off_graph)
            label = labels[t][atom.index]
            try:
                return over_lcm([(0, 1) if loc is None else (table[label, loc], den)
                                 for den, table in tables[t] for loc in ids])
            except KeyError as miss:  # the message names the point only
                raise gs[0]._missing(t, *miss.args[0]) from None

        h = Process._predictable(filtration, len(gs) * count, h_at)

        def gh_at(t, atom):
            # h's cell over its denominator times the slot weight, kept positive
            _, (wn, wd) = plan.cells[t].get(atom.label, off_graph)
            if wn < 0:
                wn, wd = -wn, -wd
            return h.dens[t] * wn, tuple([
                n * wd for n in h.nums[t][h.parts[t].block_of[atom.leaves[0]]]])

        gh = Process._predictable(filtration, len(gs) * count, gh_at)
        dot = _dot_blocks(gh, plan.martingales, filtration, len(gs))
        return plan, h, dot, star._divergences(dot)

    return convert


@dataclass(frozen=True)
class _AccessiblePlan:
    """The g-independent side of an accessible conversion.

    cells[t] maps the label of each conditioning atom on a slot graph at t
    to its class locations, as the tree's location ids (None where the
    class does not jump), and the slot weight as an int ratio (num, den).
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
        # each class, restricted to {tau = t}, must be a union of time-t
        # atoms: each leaf is read once, at its own tau, against the class
        # first seen on its time-tau atom
        seen, split = {}, []
        for leaf, t in enumerate(tau.values):
            if 1 <= t <= tree.horizon:
                atom = t, filtration.parts[t].block_of[leaf]
                if seen.setdefault(atom, index[leaf]) != index[leaf]:
                    split.append(t)
        if split:
            raise PartitionNotMeasurable(f"class splits an atom at time {min(split)}")

    # every support node must sit on a slot graph, inside one class
    for t, locs in enumerate(mu.locs):
        for node in [n for n, loc in zip(tree.nodes_at[t], locs) if loc is not None]:
            idx = occupied.get((t, node.leaf_lo))
            if idx is None:
                raise ConstraintMismatch(
                    f"support node {node.id} lies on no accessible time")
            if class_of[idx][node.leaf_lo] is None:
                raise ConstraintMismatch(
                    f"support node {node.id} is outside every partition class")

    # within an occupied atom each class is a union of time-t atoms, so the
    # class masses come from the parent-to-child index
    cells = [{}]
    classes_at = [None]  # per t: each time-t atom's class, the slot weights
    for t in range(1, tree.horizon + 1):
        cells_t = {}
        children, node_of = filtration.parts[t], tree.base_filtration().parts[t].block_of
        kind = [None] * len(children.atoms)
        weights = []  # None off the slot graphs
        for atom in filtration.atoms(t - 1):
            idx = occupied.get((t, atom.leaves[0]))
            if idx is None:
                weights.append(None)
                continue
            num, den = ratio = rows[idx][2].as_integer_ratio()
            weights.append((den, (num,) * count))
            values = [set() for _ in range(count)]
            for k, _ in children.pieces(atom):
                leaf = children.atoms[k].leaves[0]
                kind[k] = c = class_of[idx][leaf]
                if c is not None:
                    values[c].add(mu.locs[t][node_of[leaf]])
            for k, found in enumerate(values):
                if len(found) > 1:
                    raise ConstraintMismatch(
                        f"class {k} mixes jump locations on atom "
                        f"{atom.label} at time {t}")
            cells_t[atom.label] = (
                tuple(found.pop() if found else None for found in values), ratio)
        cells.append(cells_t)
        classes_at.append((children, kind, weights))

    none = (1, (0,))
    inverse = []  # 1 / weight per slot, over a positive denominator
    for _, _, weight in rows:
        num, den = weight.as_integer_ratio()
        inverse.append((num, (den,)) if num > 0 else (-num, (-den,)))
    return _AccessiblePlan(
        cells=tuple(cells),
        martingales=Process._compensated_classes(filtration, count,
                                                 classes_at.__getitem__),
        scale=Process._predictable(
            tree.base_filtration(), 1,
            lambda t, atom: inverse[occupied[(t, atom.leaves[0])]]
            if (t, atom.leaves[0]) in occupied else none))


def value_slots_from_measure(mu: JumpMeasure, filtration_like=None):
    """Build accessible slots from a measure: one slot per support time.

    Classes group each conditioning atom's successors by jump location (lex
    order), with a final class collecting the non-jumping successors, so the
    classes partition the whole space at each support time.
    """
    tree = mu.tree
    filtration = as_filtration(filtration_like or tree)
    slots = []
    for t in [t for t, locs in enumerate(mu.locs) if locs.count(None) < len(locs)]:
        ranked, quiet = {}, set()  # rank of a location on its atom -> leaves
        children, node_of = filtration.parts[t], tree.base_filtration().parts[t].block_of
        for atom in filtration.atoms(t - 1):
            # the atom's children, by the location id of their time-t node
            groups: dict[int, set] = {}
            for child in [children.atoms[k] for k, _ in children.pieces(atom)]:
                loc = mu.locs[t][node_of[child.leaves[0]]]
                groups.setdefault(loc, set()).update(child.leaves)
            quiet |= groups.pop(None, set())
            for rank, loc in enumerate(sorted(groups, key=tree.locations.__getitem__)):
                ranked.setdefault(rank, set()).update(groups[loc])
        classes = [frozenset(ranked[k]) for k in range(len(ranked))]
        classes.append(frozenset(quiet))
        slots.append(AccessibleSlot(tau=t, classes=tuple(classes)))
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

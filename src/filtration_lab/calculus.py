"""Discrete stochastic calculus on event trees, in exact rationals.

A process stores each time slice against a leaf partition, one d-vector per
block: one per time-t node when base-adapted, one per atom when built for an
enlarged flow, one per leaf for outside input. Adaptedness to a filtration is
a partition test, with a per-block compare only where the slice's partition
is finer. Base-adapted processes serialize as tables on tree nodes. All
increments at time 0 are null by convention.

An operation on several slices works on their meet, which is one of them
when it refines the others, and computes each result cell once per block.
Each jump function memoizes its star integral per (measure, filtration), and
each measure its compensators per filtration.

Library code builds its processes through four trusted constructors that
skip the validation outside input gets: _make takes partitions and cells it
made itself, _predictable one value per conditioning atom, _accumulate a
running value X_t = step(X_{t-1}, ...) along each path, and
_compensated_classes weighted class indicators minus their conditional
probabilities. Every path-cumulative process (the integrals, brackets and
compensators here, and the multiplier N, deflators and exponentials
elsewhere) goes through _accumulate, so only this module decides how such a
process is laid out. _compensated_classes runs on it and builds the three
class families: the reconstructed successor-class family, the accessible
class martingales Y and the slot martingales.

Every conditional mean here (martingale tests, Doob martingales, the
compensators, predictable brackets, the projection onto a jump measure) goes
through the one kernel in tree.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq, sub

from .errors import (
    DimensionMismatch,
    IncompleteFunctionTable,
    NotAMartingale,
    NotPredictable,
)
from .rationals import to_fraction
from .tree import (
    FilteredTree,
    Filtration,
    as_filtration,
    conditional_law,
    conditional_mean,
)

ZERO = Fraction(0)


def _cellwise_row(tree, fn, rows):
    """fn(*cells) on each block of the meet of rows, (partition, cells) pairs,
    as such a pair."""
    part = rows[0][0]
    for other, _ in rows[1:]:
        part = tree.meet(part, other)
    return part, tuple(map(fn, *(part.lift(other, cells) for other, cells in rows)))


def _coerce(rows, dim):
    """Rows of outside vectors as rows of Fraction tuples, and their length."""
    cells = [tuple(tuple(map(to_fraction, vec)) for vec in row) for row in rows]
    dims = {len(vec) for row in cells for vec in row}
    if len(dims) > 1:
        raise DimensionMismatch(f"ragged value vectors: lengths {sorted(dims)}")
    found = dims.pop() if dims else (dim or 0)
    if dim is not None and dim != found:
        raise DimensionMismatch(f"declared dim {dim}, values have dim {found}")
    return cells, found


class Process:
    """Adapted process with exact rational values, immutable after build:
    cells[t] holds one tuple of dim Fractions per block of parts[t]."""

    __slots__ = ("tree", "dim", "parts", "cells", "_values")

    def __init__(self, tree: FilteredTree, values, dim: int | None = None):
        """Outside input: one row per time 0..horizon, one vector per leaf."""
        if (len(values) != tree.horizon + 1
                or any(len(row) != tree.n_leaves for row in values)):
            raise DimensionMismatch(f"expected {tree.horizon + 1} time rows of "
                                    f"{tree.n_leaves} leaf cells")
        cells, self.dim = _coerce(values, dim)
        self.tree, self.cells, self._values = tree, tuple(cells), None
        self.parts = (tree.base_filtration().parts[-1],) * len(cells)

    @classmethod
    def _make(cls, tree, parts, cells, dim):
        """Trusted build from one partition per time and, per time, one cell
        per block: a tuple of dim Fractions."""
        self = cls.__new__(cls)
        self.tree, self.parts, self.cells, self.dim = tree, tuple(parts), tuple(cells), dim
        self._values = None
        return self

    @classmethod
    def _from_rows(cls, tree, rows, dim):
        """Trusted build from leaf-indexed rows, one cell per (time, leaf)."""
        leaves = tree.base_filtration().parts[-1]
        return cls._make(tree, [leaves] * len(rows), map(tuple, rows), dim)

    @classmethod
    def _predictable(cls, filtration: Filtration, dim: int, value_of):
        """Trusted build of the process null at 0 holding value_of(t, atom),
        a tuple of dim Fractions, on each time-(t-1) atom for t >= 1."""
        tree = filtration.tree
        parts = filtration.parts
        return cls._make(
            tree, (tree.base_filtration().parts[0],) + parts[:-1],
            [(tuple([ZERO] * dim),)] + [
                [value_of(t, atom) for atom in parts[t - 1].atoms]
                for t in range(1, tree.horizon + 1)],
            dim)

    @classmethod
    def _accumulate(cls, tree, start, step, rows_at):
        """Trusted build of the running process with X_0 = start and
        X_t = step(X_{t-1}, *cells) for t >= 1, where rows_at(t) gives the
        input rows as (partition, cells) pairs.

        rows_at is called once per time, in time order. The time-t slice
        lives on the meet of the time-(t-1) slice's partition and the
        inputs', and step runs once per block of it.
        """
        parts = [tree.base_filtration().parts[0]]
        cells = [(start,)]
        for t in range(1, tree.horizon + 1):
            part, row = _cellwise_row(tree, step,
                                      ((parts[-1], cells[-1]), *rows_at(t)))
            parts.append(part)
            cells.append(row)
        return cls._make(tree, parts, cells, len(start))

    @classmethod
    def _compensated_classes(cls, filtration: Filtration, dim: int, classes_at):
        """Trusted build of weighted class indicators minus their conditional
        probabilities, null at 0. classes_at(t), called in time order, gives
        (part, kind, weights): part refines the time-(t-1) partition, kind[k]
        is block k's class in range(dim) or None, and weights[i] the dim slot
        weights of the i-th time-(t-1) atom, or None where the family stays
        put. Class c moves component j by w_j (1{c = j} - P(class j | atom));
        blocks of one class under one atom share the step."""
        def rows_at(t):
            part, kind, weights = classes_at(t)
            row = [None] * len(part.atoms)
            for atom, w in zip(filtration.parts[t - 1].atoms, weights):
                law = {} if w is None else conditional_law(atom, part)
                probs = [ZERO] * dim
                for k, p in law.items():
                    if kind[k] is not None:
                        probs[kind[k]] += p
                steps = {c: tuple(wj * ((1 if j == c else 0) - pj)
                                  for j, (wj, pj) in enumerate(zip(w, probs)))
                         for c in {kind[k] for k in law}}
                for k in law:
                    row[k] = steps[kind[k]]
            return ((part, row),)

        return cls._accumulate(
            filtration.tree, tuple([ZERO] * dim),
            lambda prev, move: prev if move is None else tuple(map(add, prev, move)),
            rows_at)

    def _map(self, dim, fn, *others):
        """Trusted build holding fn(*cells) on each block of the meet of this
        process's and the others' slices, at every time."""
        rows = [_cellwise_row(self.tree, fn, [p.row(t) for p in (self, *others)])
                for t in range(self.tree.horizon + 1)]
        return Process._make(self.tree, *zip(*rows), dim)

    # construction helpers

    @classmethod
    def zero(cls, tree, dim=1):
        vec = tuple([Fraction(0)] * dim)
        parts = tree.base_filtration().parts
        return cls._make(tree, parts, [(vec,) * len(p.atoms) for p in parts], dim)

    @classmethod
    def from_node_values(cls, tree, node_values, dim=None):
        """Build from a complete {node id: vector} table."""
        missing = [nid for nid in tree.nodes if nid not in node_values]
        if missing:
            raise IncompleteFunctionTable(
                f"no value for nodes {sorted(missing)[:4]}")
        cells, found = _coerce([[v if isinstance(v, (list, tuple)) else (v,)
                                 for v in (node_values[node.id] for node in nodes)]
                                for nodes in tree.nodes_at], dim)
        return cls._make(tree, tree.base_filtration().parts, cells, found)

    @classmethod
    def doob(cls, tree, terminal, filtration=None):
        """Martingale closed by a terminal payoff: X_t = E[xi | F_t]."""
        filtration = as_filtration(filtration or tree)
        vecs = [tuple(map(to_fraction, v if isinstance(v, (list, tuple)) else (v,)))
                for v in terminal]
        if len(vecs) != tree.n_leaves:
            raise DimensionMismatch(
                f"expected {tree.n_leaves} terminal values, got {len(vecs)}")
        dims = {len(v) for v in vecs}
        if len(dims) != 1:
            raise DimensionMismatch("ragged terminal vectors")
        leaves = tree.base_filtration().parts[-1]
        return cls._make(tree, filtration.parts, [
            [conditional_mean(atom, leaves, vecs) for atom in part.atoms]
            for part in filtration.parts], dims.pop())

    @classmethod
    def stack(cls, processes):
        """Concatenate components into one vector process."""
        if not processes:
            raise DimensionMismatch("stack needs at least one process")
        tree = processes[0].tree
        for p in processes:
            if p.tree is not tree:
                raise DimensionMismatch("stack across different trees")
        return processes[0]._map(sum(p.dim for p in processes),
                                 lambda *vecs: sum(vecs, ()), *processes[1:])

    # access

    def row(self, t):
        """The time-t slice as (partition, cells)."""
        return self.parts[t], self.cells[t]

    @property
    def values(self):
        """Leaf-indexed rows, one vector per (time, leaf), built on first use."""
        if self._values is None:
            self._values = tuple(tuple(map(cells.__getitem__, part.block_of))
                                 for part, cells in zip(self.parts, self.cells))
        return self._values

    def at(self, t, leaf):
        return self.cells[t][self.parts[t].block_of[leaf]]

    def increment(self, t, leaf):
        """Delta X_t on the path through the given leaf; null at t = 0."""
        if t == 0:
            return tuple([ZERO] * self.dim)
        return tuple(map(sub, self.at(t, leaf), self.at(t - 1, leaf)))

    def delta(self, t, atom=None):
        """Delta X_t for t >= 1 as (partition, {block: increment}) on the
        meet of the time-t and time-(t-1) partitions; with an atom, only
        for the blocks meeting it."""
        now, before = self.row(t), self.row(t - 1)
        part = self.tree.meet(now[0], before[0])
        i, j = part.index_in(now[0]), part.index_in(before[0])
        blocks = (range(len(part.atoms)) if atom is None
                  else [k for k, _ in part.pieces(atom)])
        return part, {k: tuple(map(sub, now[1][i[k]], before[1][j[k]]))
                      for k in blocks}

    def component(self, i):
        return self._map(1, lambda vec: (vec[i],))

    def components(self):
        return [self.component(i) for i in range(self.dim)]

    def initial(self):
        return self.at(0, 0)

    def minus_initial(self):
        start = Process._make(self.tree, self.parts[:1] * len(self.parts),
                              self.cells[:1] * len(self.cells), self.dim)
        return self - start

    # arithmetic

    def _zip(self, other, op):
        if not isinstance(other, Process):
            raise TypeError("expected a Process")
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")
        return self._map(self.dim, lambda u, v: tuple(map(op, u, v)), other)

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def scale(self, factor):
        factor = to_fraction(factor)
        return self._map(self.dim, lambda vec: tuple(factor * c for c in vec))

    def __eq__(self, other):
        return (isinstance(other, Process) and other.tree is self.tree
                and other.dim == self.dim and self.first_divergence(other) is None)

    __hash__ = None

    def first_divergence(self, other):
        """Earliest (t, leaf) where the two processes differ, or None.

        Each block of the meet of the two slices is compared once; blocks
        are in first-leaf order, so the first differing one holds the
        earliest leaf.
        """
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")
        for t in range(self.tree.horizon + 1):
            part, same = _cellwise_row(self.tree, eq, (self.row(t), other.row(t)))
            if not all(same):
                return (t, part.atoms[same.index(False)].leaves[0])
        return None

    # measurability

    def _measurable(self, t, part) -> bool:
        """The time-t slice constant on every block of part."""
        mine = self.parts[t]
        meet = self.tree.meet(mine, part)
        if meet is part:
            return True
        seen = {}
        return all(seen.setdefault(k, cell) == cell for k, cell in
                   zip(meet.index_in(part), meet.lift(mine, self.cells[t])))

    def is_adapted(self, filtration_like) -> bool:
        parts = as_filtration(filtration_like).parts
        return all(self._measurable(t, part) for t, part in enumerate(parts))

    def is_predictable(self, filtration_like) -> bool:
        """Value at t known at t-1 (at 0: F_0-measurable)."""
        parts = as_filtration(filtration_like).parts
        return all(self._measurable(t, parts[max(t - 1, 0)])
                   for t in range(self.tree.horizon + 1))

    def is_martingale(self, filtration_like) -> bool:
        filtration = as_filtration(filtration_like)
        if not self.is_adapted(filtration):
            return False
        # adapted, so X_{t-1} is constant on each time-(t-1) atom
        for t in range(1, self.tree.horizon + 1):
            for atom in filtration.parts[t - 1].atoms:
                if (conditional_mean(atom, *self.row(t))
                        != self.at(t - 1, atom.leaves[0])):
                    return False
        return True

    def require_martingale(self, filtration_like, what="process"):
        if not self.is_martingale(filtration_like):
            raise NotAMartingale(f"{what} is not a martingale for this filtration")

    def node_values(self):
        """Export as a node table; requires base adaptedness."""
        if not self.is_adapted(self.tree):
            raise NotPredictable("process is not adapted to the base filtration")
        return {node.id: self.at(t, node.leaf_lo)
                for t in range(self.tree.horizon + 1)
                for node in self.tree.nodes_at[t]}

    def __repr__(self):
        return f"Process(dim={self.dim}, horizon={self.tree.horizon})"


@dataclass(frozen=True)
class Decomposition:
    """X = X_0 + martingale_part + drift_part, both parts null at 0."""
    martingale_part: Process
    drift_part: Process


def _compensate(filtration: Filtration, dim: int, step) -> Process:
    """Null at 0, moved on each time-(t-1) atom by the vector step(t, atom)."""
    parts = filtration.parts
    return Process._accumulate(
        filtration.tree, tuple([ZERO] * dim),
        lambda prev, move: tuple(map(add, prev, move)),
        lambda t: ((parts[t - 1], [step(t, atom) for atom in parts[t - 1].atoms]),))


def dual_predictable_projection(a: Process, filtration_like) -> Process:
    """Compensator: null at 0, increments E[Delta A_t | F_{t-1}].

    The result is predictable for the given filtration by construction.
    """
    def mean_increment(t, atom):
        # E[A_t | atom] - E[A_{t-1} | atom], which needs no adaptedness
        return tuple(map(sub, conditional_mean(atom, *a.row(t)),
                         conditional_mean(atom, *a.row(t - 1))))

    return _compensate(as_filtration(filtration_like), a.dim, mean_increment)


def decompose(x: Process, filtration_like) -> Decomposition:
    """Unique decomposition X = X_0 + M + V with M a martingale null at 0 and
    V predictable null at 0."""
    filtration = as_filtration(filtration_like)
    drift = dual_predictable_projection(x, filtration)
    martingale = x.minus_initial() - drift
    return Decomposition(martingale_part=martingale, drift_part=drift)


def bracket(x: Process, y: Process) -> Process:
    """Pathwise covariation sum of Delta X . Delta Y; scalar output.

    Inputs must share their dimension; components pair up, so two scalars give
    the ordinary bracket.
    """
    if x.tree is not y.tree:
        raise DimensionMismatch("bracket across different trees")
    if x.dim != y.dim:
        raise DimensionMismatch(f"bracket dims {x.dim} and {y.dim}")
    return Process._accumulate(
        x.tree, (ZERO,),
        lambda acc, xc, xp, yc, yp: (acc[0] + sum(
            ((a - b) * (c - d) for a, b, c, d in zip(xc, xp, yc, yp)),
            start=ZERO),),
        lambda t: (x.row(t), x.row(t - 1), y.row(t), y.row(t - 1)))


def predictable_bracket(x: Process, y: Process, filtration_like) -> Process:
    """[X, Y]^p computed directly from conditional products.

    Agrees exactly with dual_predictable_projection(bracket(X, Y)).
    """
    filtration = as_filtration(filtration_like)
    if x.tree is not y.tree:
        raise DimensionMismatch("bracket across different trees")
    if x.dim != y.dim:
        raise DimensionMismatch(f"bracket dims {x.dim} and {y.dim}")
    def product(xc, xp, yc, yp):
        return (sum(((a - b) * (c - d) for a, b, c, d in zip(xc, xp, yc, yp)),
                    start=ZERO),)

    products = [None] + [
        _cellwise_row(x.tree, product,
                      (x.row(t), x.row(t - 1), y.row(t), y.row(t - 1)))
        for t in range(1, x.tree.horizon + 1)]
    return _compensate(filtration, 1,
                       lambda t, atom: conditional_mean(atom, *products[t]))


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
    return Process._accumulate(
        x.tree, (ZERO,),
        lambda acc, hv, xc, xp: (acc[0] + sum(
            (a * (b - c) for a, b, c in zip(hv, xc, xp)), start=ZERO),),
        lambda t: (h.row(t), x.row(t), x.row(t - 1)))


class JumpMeasure:
    """Integer-valued random measure of a base-adapted process's jumps.

    Support: the time-t nodes (t >= 1) where the increment is a nonzero
    vector; the location there is that increment.
    """

    def __init__(self, tree: FilteredTree, dim: int, support: dict):
        self.tree = tree
        self.dim = dim
        self.support = dict(support)
        self._by_time: dict[int, list] = {}
        for node_id in sorted(self.support):
            node = tree.nodes[node_id]
            self._by_time.setdefault(node.time, []).append(node)
        self._compensators: dict[Filtration, CompensatorTable] = {}
        self._derived: dict = {}

    def nodes_at(self, t):
        return self._by_time.get(t, [])

    def location(self, node_id):
        return self.support[node_id]

    def jump_at(self, t, leaf):
        """Location if (t, leaf) sits under a support node, else None."""
        node = self.tree.node_at(t, leaf)
        return self.support.get(node.id)

    def compensator(self, filtration_like) -> "CompensatorTable":
        filtration = as_filtration(filtration_like)
        if filtration not in self._compensators:
            self._compensators[filtration] = CompensatorTable(self, filtration)
        return self._compensators[filtration]

    def derived(self, key, build):
        """build(), computed once per key for this measure.

        For objects that depend on the measure and on the key alone; the key
        holds objects or content, never ids, so an entry cannot go stale.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


def jump_measure(x: Process) -> JumpMeasure:
    if not x.is_adapted(x.tree):
        raise NotPredictable("jump measure needs a base-adapted process")
    support = {}
    for t in range(1, x.tree.horizon + 1):
        for node in x.tree.nodes_at[t]:
            inc = x.increment(t, node.leaf_lo)
            if any(c != 0 for c in inc):
                support[node.id] = inc
    return JumpMeasure(x.tree, x.dim, support)


class CompensatorTable:
    """Conditional jump distribution per (time, conditioning atom).

    nu({t} x {v} | atom) adds the conditional probabilities of the time-t
    support nodes with location v, seen from the atom at t-1.
    """

    def __init__(self, measure: JumpMeasure, filtration: Filtration):
        self.measure = measure
        self.filtration = filtration
        tree = measure.tree
        self.entries: dict[tuple[int, str], dict[tuple, Fraction]] = {}
        for t in range(1, tree.horizon + 1):
            if not measure.nodes_at(t):
                continue
            nodes = tree.base_filtration().parts[t]
            for atom in filtration.atoms(t - 1):
                law = conditional_law(atom, nodes)
                dist: dict[tuple, Fraction] = {}
                for k in sorted(law, key=lambda k: nodes.atoms[k].label):
                    value = measure.support.get(nodes.atoms[k].label)
                    if value is not None:
                        dist[value] = dist.get(value, ZERO) + law[k]
                if dist:
                    self.entries[(t, atom.label)] = dist

    def charged(self, t, atom_label):
        dist = self.entries.get((t, atom_label), {})
        return sorted(dist)

    def prob(self, t, atom_label, value) -> Fraction:
        return self.entries.get((t, atom_label), {}).get(tuple(value), ZERO)


def compensate_measure(mu: JumpMeasure, filtration_like) -> CompensatorTable:
    """Predictable compensator of the jump measure for the given filtration."""
    return mu.compensator(filtration_like)


class JumpFunction:
    """Rational function of (time, conditioning atom, jump location).

    Anchored to a filtration: the atom argument is the filtration's atom at
    t-1, which is how the function stays predictable in its first slot. A
    table anchored to the base filtration can be integrated under any
    enlargement unchanged.
    """

    def __init__(self, filtration: Filtration, entries: dict):
        self.filtration = filtration
        self.entries = {}
        for (t, label, value), g in entries.items():
            self.entries[(t, label, tuple(value))] = to_fraction(g)
        self._star_integrals: dict[tuple[JumpMeasure, Filtration], Process] = {}

    @classmethod
    def from_callable(cls, mu: JumpMeasure, filtration_like, fn):
        """Tabulate fn(t, location) on every point charged by mu or its
        compensator under the given filtration."""
        filtration = as_filtration(filtration_like)
        table = mu.compensator(filtration)
        entries = {}
        for (t, label), dist in table.entries.items():
            for value in dist:
                entries[(t, label, value)] = to_fraction(fn(t, value))
        return cls(filtration, entries)

    @classmethod
    def component(cls, mu: JumpMeasure, filtration_like, i: int):
        """The coordinate function x -> x_i as a table."""
        return cls.from_callable(mu, filtration_like, lambda t, value: value[i])

    def value(self, t, leaf, location) -> Fraction:
        return self.value_on(t, self.filtration.conditioning_atom_of(t, leaf),
                             location)

    def value_on(self, t, atom, location) -> Fraction:
        """g at time t on a time-(t-1) atom of the anchoring filtration."""
        key = (t, atom.label, tuple(location))
        if key not in self.entries:
            raise IncompleteFunctionTable(
                f"no entry at time {t}, atom {atom.label}, location {location}")
        return self.entries[key]


def star_integral(g: JumpFunction, mu: JumpMeasure, filtration_like) -> Process:
    """Compensated jump-measure integral of a predictable function.

    Increment at t: g(t, jump) when the path jumps, minus the conditional
    mean of that quantity given the atom at t-1. Always a martingale for the
    integration filtration. Computed once per (g, measure, filtration).
    """
    filtration = as_filtration(filtration_like)
    key = (mu, filtration)
    if key not in g._star_integrals:
        g._star_integrals[key] = _star_integral(g, mu, filtration)
    return g._star_integrals[key]


def _star_integral(g: JumpFunction, mu: JumpMeasure, filtration: Filtration):
    tree = mu.tree
    table = mu.compensator(filtration)

    def rows_at(t):
        comps = []  # compensated mean of g on each time-(t-1) atom
        for atom in filtration.atoms(t - 1):
            g_atom = g.filtration.conditioning_atom_of(t, atom.leaves[0])
            dist = table.entries.get((t, atom.label), {})
            comps.append(sum(
                (p * g.value_on(t, g_atom, value) for value, p in dist.items()),
                start=ZERO))
        g_part = g.filtration.parts[t - 1]
        return ((filtration.parts[t - 1], comps), (g_part, g_part.atoms),
                (tree.base_filtration().parts[t], tree.nodes_at[t]))

    def step(acc, comp, g_atom, node):
        # the time-t node fixes t
        jump = mu.support.get(node.id)
        gain = ZERO if jump is None else g.value_on(node.time, g_atom, jump)
        return (acc[0] + (gain - comp),)

    return Process._accumulate(tree, (ZERO,), step, rows_at)


def project_onto_jump_measure(y: Process, mu: JumpMeasure,
                              filtration_like) -> JumpFunction:
    """Represent the jump action of a scalar martingale through the measure.

    Returns g with [Y, M]^p = [g * (mu - nu), M]^p componentwise for any
    martingale M carrying the measure. Built as the conditional expectation of
    Delta Y given (atom, jump location), corrected so the compensated integral
    reproduces the bracket; at full conditional jump mass the correction is
    zero on its own because Y is a martingale.
    """
    filtration = as_filtration(filtration_like)
    if y.dim != 1:
        raise DimensionMismatch("projection expects a scalar martingale")
    y.require_martingale(filtration, what="projected process")
    table = mu.compensator(filtration)
    base = y.tree.base_filtration()
    increments = [None] + [y.delta(t) for t in range(1, y.tree.horizon + 1)]
    entries = {}
    for (t, label), dist in table.entries.items():
        atom = filtration.atom_labelled(t - 1, label)
        # E[Delta Y; jump = v | atom] per location v; dist[v] = P(jump = v | atom)
        num: dict[tuple, Fraction] = dict.fromkeys(dist, ZERO)
        nodes = base.parts[t]
        cut = y.tree.meet(nodes, atom.partition)  # atoms cut by time-t nodes
        node_of = cut.index_in(nodes)
        for k in cut.inside(atom):
            location = mu.support.get(nodes.atoms[node_of[k]].label)
            if location is not None:
                piece = cut.atoms[k]
                (mean,) = conditional_mean(piece, *increments[t])
                num[location] += piece.prob / atom.prob * mean
        mass = sum(dist.values(), start=ZERO)
        hat = sum(num.values(), start=ZERO)
        correction = ZERO if mass == 1 else hat / (1 - mass)
        for v in dist:
            entries[(t, label, v)] = num[v] / dist[v] + correction
    return JumpFunction(filtration, entries)

"""Discrete stochastic calculus on event trees, in exact rationals held as ints.

A process stores each time slice as (partition, den, nums): one positive int
denominator and, per block of a leaf partition, one tuple of d int
numerators over it. The partition has one block per time-t node when the
process is base-adapted, one per atom when built for an enlarged flow, one
per leaf for outside input. Every slice is reduced, with gcd(den, every
numerator) = 1, so cells of one slice compare as int tuples and cells of
two slices by cross-multiplication. Every value a caller sees (at,
increment, row, cells, values, node_values) is a Fraction built from that
form. Each increment slice Delta X_t is computed once per process and time,
by _delta, and every increment reader goes through it. Adaptedness to a
filtration is a partition test, with a per-block compare only where the
slice's partition is finer. Base-adapted processes serialize as tables on
tree nodes. All increments at time 0 are null by convention.

An operation on several slices works on their meet, which is one of them
when it refines the others, brings them to the lcm of their denominators
and computes each result cell once per block. Compensators and jump
functions are stored once, on ints keyed by the tree's location ids, and
read as Fractions on request; each jump function memoizes its star integral
per (measure, filtration), and each measure its compensators per filtration.

Library code builds its processes through four trusted constructors that
skip the validation outside input gets: _make takes partitions and int
slices it made itself, _predictable one value per conditioning atom,
_accumulate a running sum (or product) X_t = X_{t-1} + I_t of increment
slices along each path, and _compensated_classes weighted class indicators
minus their conditional probabilities. Every path-cumulative process (the
integrals, brackets and compensators here, and the multiplier N, deflators
and exponentials elsewhere) goes through _accumulate, so only this module
decides how such a process is laid out. _compensated_classes runs on it and
builds the three class families: the reconstructed successor-class family,
the accessible class martingales Y and the slot martingales.

Every conditional mean here (martingale tests, Doob martingales, the
compensators, predictable brackets, the projection onto a jump measure) goes
through the one kernel in tree.py, which sums int masses times int
numerators; the callers reduce once per output cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .errors import (
    DimensionMismatch,
    IncompleteFunctionTable,
    NotAMartingale,
    NotPredictable,
)
from .rationals import (
    as_fractions,
    gathered,
    over_common_denominator,
    reduced,
    to_fraction,
)
from .tree import FilteredTree, Filtration, _weigh, as_filtration

ZERO = Fraction(0)


def _lifted(tree, rows):
    """The meet of rows' partitions, each row (partition, den, cells), and
    every row's cells read on the meet's blocks."""
    part = rows[0][0]
    for row in rows[1:]:
        part = tree.meet(part, row[0])
    return part, [part.lift(row[0], row[2]) for row in rows]


def _sum(tree, a, b, sign=1):
    """The slice a + sign * b on the meet of two slices, over the lcm of
    their denominators; not reduced."""
    part, (u, v) = _lifted(tree, (a, b))
    den = lcm(a[1], b[1])
    ka, kb = den // a[1], sign * (den // b[1])
    if ka == 1 and kb in (1, -1):
        op = add if kb == 1 else sub
        return part, den, tuple([tuple(map(op, p, q)) for p, q in zip(u, v)])
    return part, den, tuple([tuple([x * ka + y * kb for x, y in zip(p, q)])
                             for p, q in zip(u, v)])


def _products(tree, a, b, product):
    """product(cell of a, cell of b), int tuples, on each block of the meet
    of two slices; its denominator is the product of theirs."""
    part, (u, v) = _lifted(tree, (a, b))
    return part, a[1] * b[1], tuple(map(product, u, v))


def _dot(u, v):
    return (sum(map(mul, u, v)),)


def _elementwise(u, v):
    return tuple(map(mul, u, v))


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
    at time t, nums[t] holds one tuple of dim int numerators per block of
    parts[t], all over the one positive denominator dens[t]. Its increment
    slices are computed once per time, on first use, and so are the
    per-node reductions that solve against it (representation._solver_at)."""

    __slots__ = ("tree", "dim", "parts", "dens", "nums", "_values", "_deltas",
                 "_solvers")

    def __init__(self, tree: FilteredTree, values, dim: int | None = None):
        """Outside input: one row per time 0..horizon, one vector per leaf."""
        if (len(values) != tree.horizon + 1
                or any(len(row) != tree.n_leaves for row in values)):
            raise DimensionMismatch(f"expected {tree.horizon + 1} time rows of "
                                    f"{tree.n_leaves} leaf cells")
        cells, self.dim = _coerce(values, dim)
        self.tree, self._values, self._deltas, self._solvers = tree, None, {}, None
        self.parts = (tree.base_filtration().parts[-1],) * len(cells)
        self.dens, self.nums = zip(*map(over_common_denominator, cells))

    @classmethod
    def _make(cls, tree, slices, dim):
        """Trusted build from one reduced slice (partition, den, nums) per
        time, made by the library itself."""
        self = cls.__new__(cls)
        self.tree, self.dim, self._values = tree, dim, None
        self._deltas, self._solvers = {}, None
        self.parts, self.dens, self.nums = map(tuple, zip(*slices))
        return self

    @classmethod
    def _from_cells(cls, tree, parts, rows, dim):
        """Trusted build from one partition per time and, per time, one
        tuple of dim rationals per block."""
        return cls._make(tree, [(part, *over_common_denominator(row))
                                for part, row in zip(parts, rows)], dim)

    @classmethod
    def _from_rows(cls, tree, rows, dim):
        """Trusted build from leaf-indexed rows, one cell per (time, leaf)."""
        leaves = tree.base_filtration().parts[-1]
        return cls._from_cells(tree, [leaves] * len(rows), rows, dim)

    @classmethod
    def _predictable(cls, filtration: Filtration, dim: int, value_of):
        """Trusted build of the process null at 0 holding value_of(t, atom),
        a tuple of dim rationals, on each time-(t-1) atom for t >= 1."""
        tree = filtration.tree
        parts = filtration.parts
        return cls._from_cells(
            tree, (tree.base_filtration().parts[0],) + parts[:-1],
            [((0,) * dim,)] + [
                [value_of(t, atom) for atom in parts[t - 1].atoms]
                for t in range(1, tree.horizon + 1)],
            dim)

    @classmethod
    def _accumulate(cls, tree, start, increments_at, product=False):
        """Trusted build of the running process with X_0 = start, a tuple of
        ints, and X_t = X_{t-1} + I_t for t >= 1, or X_{t-1} * I_t
        componentwise with product, where increments_at(t) gives the slice
        I_t as (partition, den, nums), not necessarily reduced.

        increments_at is called once per time, in time order. The time-t
        slice lives on the meet of the time-(t-1) slice's partition and
        I_t's.
        """
        slices = [(tree.base_filtration().parts[0], 1, (start,))]
        for t in range(1, tree.horizon + 1):
            step = increments_at(t)
            if product:
                part, den, nums = _products(tree, slices[-1], step, _elementwise)
            else:
                part, den, nums = _sum(tree, slices[-1], step)
            slices.append((part, *reduced(den, nums)))
        return cls._make(tree, slices, len(start))

    @classmethod
    def _compensated_classes(cls, filtration: Filtration, dim: int, classes_at):
        """Trusted build of weighted class indicators minus their conditional
        probabilities, null at 0. classes_at(t), called in time order, gives
        (part, kind, weights): part refines the time-(t-1) partition, kind[k]
        is block k's class in range(dim) or None, and weights[i] the dim slot
        weights of the i-th time-(t-1) atom, or None where the family stays
        put. Class c moves component j by w_j (1{c = j} - P(class j | atom));
        blocks of one class under one atom share the step."""
        still = (1, (0,) * dim)

        def increments_at(t):
            part, kind, weights = classes_at(t)
            row = [still] * len(part.atoms)
            for atom, w in zip(filtration.parts[t - 1].atoms, weights):
                if w is None:
                    continue
                pieces = part.pieces(atom)
                masses = [0] * dim  # of each class inside the atom
                for k, m in pieces:
                    if kind[k] is not None:
                        masses[kind[k]] += m
                wden, (wnum,) = over_common_denominator([w])
                total = atom.mass
                den = wden * total
                steps = {c: (den, tuple(wj * ((total if j == c else 0) - mj)
                                        for j, (wj, mj) in enumerate(zip(wnum, masses))))
                         for c in {kind[k] for k, _ in pieces}}
                for k, _ in pieces:
                    row[k] = steps[kind[k]]
            return (part, *gathered(row))

        return cls._accumulate(filtration.tree, (0,) * dim, increments_at)

    def _map(self, dim, slice_of):
        """Trusted build holding slice_of(t), a slice not necessarily
        reduced, at every time."""
        return Process._make(self.tree, [
            (part, *reduced(den, nums)) for part, den, nums in
            map(slice_of, range(self.tree.horizon + 1))], dim)

    # construction helpers

    @classmethod
    def zero(cls, tree, dim=1):
        vec = (0,) * dim
        return cls._make(tree, [(p, 1, (vec,) * len(p.atoms))
                                for p in tree.base_filtration().parts], dim)

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
        return cls._from_cells(tree, tree.base_filtration().parts, cells, found)

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
        den, nums = over_common_denominator(vecs)
        slices = []
        for part in filtration.parts:
            means = []
            for atom in part.atoms:
                sums, weight = _weigh(atom, leaves, nums)
                means.append((den * weight, sums))
            slices.append((part, *gathered(means)))
        return cls._make(tree, slices, dims.pop())

    @classmethod
    def stack(cls, processes):
        """Concatenate components into one vector process."""
        if not processes:
            raise DimensionMismatch("stack needs at least one process")
        tree = processes[0].tree
        for p in processes:
            if p.tree is not tree:
                raise DimensionMismatch("stack across different trees")

        def stacked(t):
            rows = [p._row(t) for p in processes]
            part, lifted = _lifted(tree, rows)
            den = lcm(*(row[1] for row in rows))
            scaled = [cells if row[1] == den else
                      [tuple(n * (den // row[1]) for n in cell) for cell in cells]
                      for row, cells in zip(rows, lifted)]
            return part, den, tuple(sum(cells, ()) for cells in zip(*scaled))

        return processes[0]._map(sum(p.dim for p in processes), stacked)

    # access: int slices inside the library, Fractions outside

    def _row(self, t):
        """The time-t slice as (partition, den, nums)."""
        return self.parts[t], self.dens[t], self.nums[t]

    def _delta(self, t):
        """Delta X_t for t >= 1 as a slice on the meet of the time-t and
        time-(t-1) partitions, over the lcm of their denominators and not
        reduced; computed on first use and kept."""
        hit = self._deltas.get(t)
        if hit is None:
            hit = self._deltas[t] = _sum(self.tree, self._row(t),
                                         self._row(t - 1), -1)
        return hit

    def row(self, t):
        """The time-t slice as (partition, cells), one tuple of Fractions
        per block."""
        den = self.dens[t]
        return self.parts[t], tuple(as_fractions(den, num) for num in self.nums[t])

    @property
    def cells(self):
        """Per time, one tuple of Fractions per block of parts[t]."""
        return tuple(self.row(t)[1] for t in range(len(self.parts)))

    @property
    def values(self):
        """Leaf-indexed rows, one vector per (time, leaf), built on first use."""
        if self._values is None:
            self._values = tuple(tuple(map(cells.__getitem__, part.block_of))
                                 for part, cells in zip(self.parts, self.cells))
        return self._values

    def at(self, t, leaf):
        return as_fractions(self.dens[t], self.nums[t][self.parts[t].block_of[leaf]])

    def increment(self, t, leaf):
        """Delta X_t on the path through the given leaf; null at t = 0."""
        if t == 0:
            return tuple([ZERO] * self.dim)
        part, den, nums = self._delta(t)
        return as_fractions(den, nums[part.block_of[leaf]])

    def component(self, i):
        return self._map(1, lambda t: (self.parts[t], self.dens[t],
                                       tuple((cell[i],) for cell in self.nums[t])))

    def components(self):
        return [self.component(i) for i in range(self.dim)]

    def initial(self):
        return self.at(0, 0)

    def minus_initial(self):
        return self - Process._make(self.tree, [self._row(0)] * len(self.parts),
                                    self.dim)

    # arithmetic

    def _check_shape(self, other):
        if not isinstance(other, Process):
            raise TypeError("expected a Process")
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")

    def __add__(self, other):
        self._check_shape(other)
        return self._map(self.dim, lambda t: _sum(self.tree, self._row(t),
                                                  other._row(t)))

    def __sub__(self, other):
        self._check_shape(other)
        return self._map(self.dim, lambda t: _sum(self.tree, self._row(t),
                                                  other._row(t), -1))

    def _times(self, other):
        """The componentwise pathwise product."""
        self._check_shape(other)
        return self._map(self.dim, lambda t: _products(
            self.tree, self._row(t), other._row(t), _elementwise))

    def scale(self, factor):
        num, den = to_fraction(factor).as_integer_ratio()
        return self._map(self.dim, lambda t: (
            self.parts[t], self.dens[t] * den,
            tuple(tuple(num * c for c in cell) for cell in self.nums[t])))

    def __eq__(self, other):
        return (isinstance(other, Process) and other.tree is self.tree
                and other.dim == self.dim and self.first_divergence(other) is None)

    __hash__ = None

    def first_divergence(self, other):
        """Earliest (t, leaf) where the two processes differ, or None.

        Each block of the meet of the two slices is compared once, by
        cross-multiplication; blocks are in first-leaf order, so the first
        differing one holds the earliest leaf.
        """
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")
        for t in range(self.tree.horizon + 1):
            mine, theirs = self._row(t), other._row(t)
            if mine == theirs:
                continue
            part, (u, v) = _lifted(self.tree, (mine, theirs))
            a, b = theirs[1], mine[1]
            for k, (p, q) in enumerate(zip(u, v)):
                if p != q if a == b else any(x * a != y * b for x, y in zip(p, q)):
                    return (t, part.atoms[k].leaves[0])
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
                   zip(meet.index_in(part), meet.lift(mine, self.nums[t])))

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
        # adapted, so X_{t-1} is constant on each time-(t-1) atom and
        # E[X_t | atom] = X_{t-1} there iff E[Delta X_t | atom] = 0
        for t in range(1, self.tree.horizon + 1):
            part, _, nums = self._delta(t)
            for atom in filtration.parts[t - 1].atoms:
                if any(_weigh(atom, part, nums)[0]):
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


def _compensate(filtration: Filtration, dim: int, moves_at) -> Process:
    """Null at 0, moved on the i-th time-(t-1) atom by moves_at(t)[i], a
    vector of int numerators as (den, num)."""
    parts = filtration.parts
    return Process._accumulate(filtration.tree, (0,) * dim,
                               lambda t: (parts[t - 1], *gathered(moves_at(t))))


def _compensated_means(filtration: Filtration, dim: int, slice_at) -> Process:
    """Null at 0, moved on each time-(t-1) atom by the conditional mean of
    the slice slice_at(t), called once per time in time order."""
    def means(t):
        part, den, nums = slice_at(t)
        moves = []
        for atom in filtration.parts[t - 1].atoms:
            sums, weight = _weigh(atom, part, nums)
            moves.append((den * weight, sums))
        return moves

    return _compensate(filtration, dim, means)


def dual_predictable_projection(a: Process, filtration_like) -> Process:
    """Compensator: null at 0, increments E[Delta A_t | F_{t-1}].

    The result is predictable for the given filtration by construction.
    """
    # E[A_t - A_{t-1} | atom], which needs no adaptedness
    return _compensated_means(as_filtration(filtration_like), a.dim, a._delta)


def decompose(x: Process, filtration_like) -> Decomposition:
    """Unique decomposition X = X_0 + M + V with M a martingale null at 0 and
    V predictable null at 0."""
    filtration = as_filtration(filtration_like)
    drift = dual_predictable_projection(x, filtration)
    martingale = x.minus_initial() - drift
    return Decomposition(martingale_part=martingale, drift_part=drift)


def _check_pair(x: Process, y: Process):
    if x.tree is not y.tree:
        raise DimensionMismatch("bracket across different trees")
    if x.dim != y.dim:
        raise DimensionMismatch(f"bracket dims {x.dim} and {y.dim}")


def bracket(x: Process, y: Process) -> Process:
    """Pathwise covariation sum of Delta X . Delta Y; scalar output.

    Inputs must share their dimension; components pair up, so two scalars give
    the ordinary bracket.
    """
    _check_pair(x, y)
    return Process._accumulate(
        x.tree, (0,), lambda t: _products(x.tree, x._delta(t), y._delta(t), _dot))


def _predictable_products(x: Process, y: Process, filtration, dim, product):
    """The compensator of the running sum of product(Delta X, Delta Y), a
    vector of dim ints per block, computed from conditional products."""
    return _compensated_means(
        filtration, dim,
        lambda t: _products(x.tree, x._delta(t), y._delta(t), product))


def predictable_bracket(x: Process, y: Process, filtration_like) -> Process:
    """[X, Y]^p computed directly from conditional products.

    Agrees exactly with dual_predictable_projection(bracket(X, Y)).
    """
    filtration = as_filtration(filtration_like)
    _check_pair(x, y)
    return _predictable_products(x, y, filtration, 1, _dot)


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
        x.tree, (0,), lambda t: _products(x.tree, h._row(t), x._delta(t), _dot))


class JumpMeasure:
    """Integer-valued random measure of a base-adapted process's jumps.

    Support: the time-t nodes (t >= 1) where the increment is a nonzero
    vector; the location there is that increment, known by its id in the
    tree's location pool.
    """

    def __init__(self, tree: FilteredTree, dim: int, support: dict):
        self.tree = tree
        self.dim = dim
        self.support = dict(support)
        self._by_time: dict[int, list] = {}
        for node_id in sorted(self.support):
            node = tree.nodes[node_id]
            self._by_time.setdefault(node.time, []).append(node)
        self._jump_ids = {node_id: tree.location_id(value)
                          for node_id, value in self.support.items()}
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
        part, den, nums = x._delta(t)
        for node in x.tree.nodes_at[t]:
            inc = nums[part.block_of[node.leaf_lo]]
            if any(inc):
                support[node.id] = as_fractions(den, inc)
    return JumpMeasure(x.tree, x.dim, support)


class CompensatorTable:
    """Conditional jump law per (time, conditioning atom).

    laws[(t, atom label)] is (atom mass, ((location id, mass), ...)), the
    int masses inside the atom at t-1 of the time-t support nodes added per
    location, in node-label order: nu({t} x {v} | atom) is v's mass over the
    atom's. entries, charged and prob read it as Fractions.
    """

    def __init__(self, measure: JumpMeasure, filtration: Filtration):
        self.measure = measure
        self.filtration = filtration
        tree = measure.tree
        self.laws: dict[tuple[int, str], tuple[int, tuple]] = {}
        for t in range(1, tree.horizon + 1):
            if not measure.nodes_at(t):
                continue
            nodes = tree.base_filtration().parts[t]
            for atom in filtration.atoms(t - 1):
                masses: dict[int, int] = {}  # per location id
                for k, m in sorted(nodes.pieces(atom),
                                   key=lambda piece: nodes.atoms[piece[0]].label):
                    loc = measure._jump_ids.get(nodes.atoms[k].label)
                    if loc is not None:
                        masses[loc] = masses.get(loc, 0) + m
                if masses:
                    self.laws[(t, atom.label)] = (atom.mass, tuple(masses.items()))

    @property
    def entries(self) -> dict[tuple[int, str], dict[tuple, Fraction]]:
        """{(t, atom label): {location vector: probability}}, in law order."""
        locations = self.measure.tree.locations
        return {key: {locations[loc]: Fraction(m, mass) for loc, m in law}
                for key, (mass, law) in self.laws.items()}

    def charged(self, t, atom_label):
        _, law = self.laws.get((t, atom_label), (1, ()))
        return sorted(self.measure.tree.locations[loc] for loc, _ in law)

    def prob(self, t, atom_label, value) -> Fraction:
        mass, law = self.laws.get((t, atom_label), (1, ()))
        loc = self.measure.tree.location_id(tuple(value))
        return Fraction(dict(law).get(loc, 0), mass)


def compensate_measure(mu: JumpMeasure, filtration_like) -> CompensatorTable:
    """Predictable compensator of the jump measure for the given filtration."""
    return mu.compensator(filtration_like)


class JumpFunction:
    """Rational function of (time, conditioning atom, jump location).

    Anchored to a filtration: the atom argument is the filtration's atom at
    t-1, which is how the function stays predictable in its first slot. A
    table anchored to the base filtration can be integrated under any
    enlargement unchanged. Per time t it holds (den, {(atom label, location
    id): numerator}); entries and value read it as Fractions.
    """

    def __init__(self, filtration: Filtration, entries: dict):
        """entries: {(t, atom label, location vector): value}."""
        intern = filtration.tree.location_id
        self._fill(filtration, [((t, label, intern(tuple(value))), to_fraction(g))
                                for (t, label, value), g in entries.items()])

    @classmethod
    def _from_ids(cls, filtration: Filtration, items):
        """Trusted build from ((t, atom label, location id), Fraction) pairs."""
        self = cls.__new__(cls)
        self._fill(filtration, items)
        return self

    def _fill(self, filtration, items):
        by_time: dict[int, dict] = {}
        for (t, label, loc), g in items:
            by_time.setdefault(t, {})[(label, loc)] = g
        self.filtration, self._tables = filtration, {}
        for t, values in by_time.items():
            den, (nums,) = over_common_denominator([tuple(values.values())])
            self._tables[t] = (den, dict(zip(values, nums)))
        self._star_integrals: dict[tuple[JumpMeasure, Filtration], Process] = {}

    @classmethod
    def from_callable(cls, mu: JumpMeasure, filtration_like, fn):
        """Tabulate fn(t, location) on every point charged by mu or its
        compensator under the given filtration."""
        filtration = as_filtration(filtration_like)
        locations = mu.tree.locations
        return cls._from_ids(filtration, [
            ((t, label, loc), to_fraction(fn(t, locations[loc])))
            for (t, label), (_, law) in mu.compensator(filtration).laws.items()
            for loc, _ in law])

    @classmethod
    def component(cls, mu: JumpMeasure, filtration_like, i: int):
        """The coordinate function x -> x_i as a table."""
        return cls.from_callable(mu, filtration_like, lambda t, value: value[i])

    @property
    def entries(self) -> dict[tuple[int, str, tuple], Fraction]:
        """{(t, atom label, location vector): value}."""
        locations = self.filtration.tree.locations
        return {(t, label, locations[loc]): Fraction(num, den)
                for t, (den, nums) in self._tables.items()
                for (label, loc), num in nums.items()}

    def _numerator(self, t, label, loc) -> int:
        """g at (t, atom label, location id), over the time-t denominator."""
        num = self._tables.get(t, (1, {}))[1].get((label, loc))
        if num is None:
            location = self.filtration.tree.locations[loc]
            raise IncompleteFunctionTable(
                f"no entry at time {t}, atom {label}, location {location}")
        return num

    def value(self, t, leaf, location) -> Fraction:
        """g at time t on the path through the leaf, read on its time-(t-1)
        atom of the anchoring filtration."""
        label = self.filtration.conditioning_atom_of(t, leaf).label
        num = self._numerator(t, label,
                              self.filtration.tree.location_id(tuple(location)))
        return Fraction(num, self._tables[t][0])


def star_integral(g: JumpFunction, mu: JumpMeasure, filtration_like) -> Process:
    """Compensated jump-measure integral of a predictable function.

    Increment at t: g(t, jump) when the path jumps, minus the conditional
    mean of that quantity given the atom at t-1. Always a martingale for the
    integration filtration. Computed once per (g, measure, filtration).
    """
    filtration = as_filtration(filtration_like)
    tree = mu.tree
    if g.filtration.tree is not tree:
        raise DimensionMismatch("jump function and measure on different trees")
    key = (mu, filtration)
    if key in g._star_integrals:
        return g._star_integrals[key]
    laws, jumps, at = mu.compensator(filtration).laws, mu._jump_ids, g._numerator

    def increments_at(t):
        gden = g._tables.get(t, (1,))[0]
        atoms = filtration.parts[t - 1]
        comps = []  # per time-(t-1) atom: the mean of g, as (den, numerator)
        for atom in atoms.atoms:
            label = g.filtration.conditioning_atom_of(t, atom.leaves[0]).label
            mass, law = laws.get((t, atom.label), (1, ()))
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

    g._star_integrals[key] = Process._accumulate(tree, (0,), increments_at)
    return g._star_integrals[key]


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
    base = y.tree.base_filtration()
    items = []
    for (t, label), (_, law) in mu.compensator(filtration).laws.items():
        atom = filtration.atom_labelled(t - 1, label)
        # num[v] / (den * atom mass) is E[Delta Y; jump = v | atom]
        num = dict.fromkeys([loc for loc, _ in law], 0)
        nodes = base.parts[t]
        cut = y.tree.meet(nodes, atom.partition)  # atoms cut by time-t nodes
        node_of = cut.index_in(nodes)
        part, den, nums = y._delta(t)
        for k in cut.inside(atom):
            loc = mu._jump_ids.get(nodes.atoms[node_of[k]].label)
            if loc is not None:
                # the piece's mass times its mean increment, over den
                (total,), weight = _weigh(cut.atoms[k], part, nums)
                num[loc] += (total * cut.atoms[k].mass if weight == 1
                             else total)
        rest = atom.mass - sum(m for _, m in law)  # of the non-jumping paths
        correction = 0 if rest == 0 else Fraction(sum(num.values()), den * rest)
        items += [((t, label, loc), Fraction(num[loc], den * m) + correction)
                  for loc, m in law]
    return JumpFunction._from_ids(filtration, items)

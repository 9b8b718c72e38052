"""Discrete stochastic calculus on event trees, in exact rationals held as ints.

A process stores each time slice as (partition, den, nums): one positive int
denominator and, per block of a leaf partition, one tuple of d int
numerators over it. The partition has one block per time-t node when the
process is base-adapted, one per atom when built for an enlarged flow, one
per leaf for outside input. Every slice is reduced, with gcd(den, every
numerator) = 1, so cells of one slice compare as int tuples and cells of
two slices by cross-multiplication. Every value a caller sees (at,
increment, row, cells, values, node_values) is a Fraction built from that
form. Each increment slice Delta X_t is held once per process and time, and
every increment reader goes through _delta. A running sum built by
_accumulate keeps the step it added, whose denominator is the step's, not
the lcm of the two slices' it separates; any other process computes X_t -
X_{t-1} on first use. Adaptedness to a filtration is a partition test, with
a per-block compare only where the slice's partition is finer.
Base-adapted processes serialize as tables on tree nodes. All increments at
time 0 are null by convention.

An operation on several slices works on their meet, which is one of them
when it refines the others, brings them to the lcm of their denominators
and computes each result cell once per block. Jump measures, compensators
and jump functions are stored once, on ints keyed by the tree's location
ids, and read as Fractions on request. A jump measure is its jump index,
JumpMeasure.locs: per time, one location id or None per time-t node.
Readers that take jumps per conditioning atom go through _jump_cut, on the
meet of the flow's time-(t-1) atoms with the time-t nodes. Each measure
memoizes its compensators per filtration; no star integral is kept. Both
integrals are linear in their integrand, so each has one body that runs a
stack of them at once: _star_stack integrates m jump functions into one
dim-m process and _dot_blocks integrates m blocks of an integrand against
one integrator; star_integral and dot_integral are their width-1 calls, and
Process._divergences compares two stacks component by component.

Library code builds its processes through four trusted constructors that
skip the validation outside input gets: _make takes partitions and int
slices it made itself, _predictable one int vector per conditioning atom,
_accumulate a running sum (or product) X_t = X_{t-1} + I_t of increment
slices along each path, keeping each I_t of a sum as its increment, and
_compensated_classes weighted class indicators minus their conditional
probabilities. Every path-cumulative process (the
integrals, brackets and compensators here, and the multiplier N, deflators
and exponentials elsewhere) goes through _accumulate, so only this module
decides how such a process is laid out. _compensated_classes runs on it and
builds the three class families: the reconstructed successor-class family,
the accessible class martingales Y and the slot martingales.

Every conditional mean here (martingale tests, Doob martingales, the
compensators, predictable brackets, the projection onto a jump measure) sums
int masses times int numerators in tree.py's one kernel, _means, which
reads the atom index of the atoms it is given once per slice; the callers
reduce once per output cell.
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
    as_cell,
    as_fractions,
    gathered,
    over_common_denominator,
    over_lcm,
    reduced,
    to_fraction,
)
from .tree import FilteredTree, Filtration, _flow_on, _means, as_filtration

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
    reductions that solve against it, one per distinct child-increment
    matrix (representation._solver_at)."""

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
    def _predictable(cls, filtration: Filtration, dim: int, cell_of):
        """Trusted build of the process null at 0 holding cell_of(t, atom),
        one vector of dim int numerators as (den, nums) with den > 0, on
        each time-(t-1) atom for t >= 1; called in time, then atom order."""
        tree = filtration.tree
        parts = filtration.parts
        return cls._make(tree, [(tree.base_filtration().parts[0], 1, ((0,) * dim,))] + [
            (parts[t - 1], *gathered([cell_of(t, atom) for atom in parts[t - 1].atoms]))
            for t in range(1, tree.horizon + 1)], dim)

    @classmethod
    def _accumulate(cls, tree, start, increments_at, product=False):
        """Trusted build of the running process with X_0 = start, a tuple of
        ints, and X_t = X_{t-1} + I_t for t >= 1, or X_{t-1} * I_t
        componentwise with product, where increments_at(t) gives the slice
        I_t as (partition, den, nums), not necessarily reduced.

        increments_at is called once per time, in time order. The time-t
        slice lives on the meet of the time-(t-1) slice's partition and
        I_t's. A running sum keeps each I_t, read on that meet and over its
        own denominator, as its increment Delta X_t; a running product
        keeps none.
        """
        slices = [(tree.base_filtration().parts[0], 1, (start,))]
        deltas = {}
        for t in range(1, tree.horizon + 1):
            step = increments_at(t)
            if product:
                part, den, nums = _products(tree, slices[-1], step, _elementwise)
            else:
                part, den, nums = _sum(tree, slices[-1], step)
                deltas[t] = part, step[1], part.lift(step[0], step[2])
            slices.append((part, *reduced(den, nums)))
        built = cls._make(tree, slices, len(start))
        built._deltas = deltas
        return built

    @classmethod
    def _compensated_classes(cls, filtration: Filtration, dim: int, classes_at):
        """Trusted build of weighted class indicators minus their conditional
        probabilities, null at 0. classes_at(t), called in time order, gives
        (part, kind, weights): part refines the time-(t-1) partition, kind[k]
        is block k's class in range(dim) or None, and weights[i] the dim slot
        weights of the i-th time-(t-1) atom, or None where the family stays
        put, as int numerators (den, nums). Class c moves component j by
        w_j (1{c = j} - P(class j | atom)); blocks of one class under one atom
        share the step."""
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
                wden, wnum = w
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
        return cls._make(tree, [(part, *over_common_denominator(row)) for part, row
                                in zip(tree.base_filtration().parts, cells)], found)

    @classmethod
    def doob(cls, tree, terminal, filtration=None):
        """Martingale closed by a terminal payoff: X_t = E[xi | F_t]."""
        filtration = _flow_on(tree, filtration or tree)
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
        return cls._make(tree, [(part, *gathered(_means(part.atoms, leaves, den, nums)))
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
        time-(t-1) partitions, not reduced. A running sum holds the step
        _accumulate kept, over the step's own denominator; any other
        process computes X_t - X_{t-1} on first use, over the lcm of the
        two slices' denominators, and keeps it."""
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
                and other.dim == self.dim and not any(self._divergences(other)))

    __hash__ = None

    def first_divergence(self, other):
        """Earliest (t, leaf) where the two processes differ, or None: the
        least of the per-component divergences."""
        return min(filter(None, self._divergences(other)), default=None)

    def _divergences(self, other):
        """Per component, the earliest (t, leaf) where the two processes
        differ in it, or None.

        Each block of the meet of the two slices is compared once, by
        cross-multiplication; blocks are in first-leaf order, so the first
        block differing in a component holds its earliest leaf. The scan
        stops once every component has differed.
        """
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")
        found = [None] * self.dim
        left = range(self.dim)  # the components not yet seen to differ
        for t in range(self.tree.horizon + 1):
            mine, theirs = self._row(t), other._row(t)
            if mine == theirs:
                continue
            part, (u, v) = _lifted(self.tree, (mine, theirs))
            a, b = theirs[1], mine[1]
            for k, (p, q) in enumerate(zip(u, v)):
                if p == q if a == b else all(x * a == y * b for x, y in zip(p, q)):
                    continue
                for s in left:
                    if p[s] * a != q[s] * b:
                        found[s] = (t, part.atoms[k].leaves[0])
                left = [s for s in left if found[s] is None]
                if not left:
                    return found
        return found

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
        parts = _flow_on(self.tree, filtration_like).parts
        return all(self._measurable(t, part) for t, part in enumerate(parts))

    def is_predictable(self, filtration_like) -> bool:
        """Value at t known at t-1 (at 0: F_0-measurable)."""
        parts = _flow_on(self.tree, filtration_like).parts
        return all(self._measurable(t, parts[max(t - 1, 0)])
                   for t in range(self.tree.horizon + 1))

    def is_martingale(self, filtration_like) -> bool:
        filtration = _flow_on(self.tree, filtration_like)
        if not self.is_adapted(filtration):
            return False
        # adapted, so X_{t-1} is constant on each time-(t-1) atom and
        # E[X_t | atom] = X_{t-1} there iff E[Delta X_t | atom] = 0
        for t in range(1, self.tree.horizon + 1):
            means = _means(filtration.parts[t - 1].atoms, *self._delta(t))
            if any(any(sums) for _, sums in means):
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
    parts = filtration.parts
    return _compensate(filtration, dim,
                       lambda t: _means(parts[t - 1].atoms, *slice_at(t)))


def dual_predictable_projection(a: Process, filtration_like) -> Process:
    """Compensator: null at 0, increments E[Delta A_t | F_{t-1}].

    The result is predictable for the given filtration by construction.
    """
    # E[A_t - A_{t-1} | atom], which needs no adaptedness
    return _compensated_means(_flow_on(a.tree, filtration_like), a.dim, a._delta)


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
    filtration = _flow_on(x.tree, filtration_like)
    _check_pair(x, y)
    return _predictable_products(x, y, filtration, 1, _dot)


def dot_integral(h: Process, x: Process, filtration_like=None) -> Process:
    """(H . X)_t = sum over s <= t of <H_s, Delta X_s>, null at 0.

    H must be predictable for the given filtration (default: the base).
    """
    return _dot_blocks(h, x, _flow_on(x.tree, filtration_like or x.tree), 1)


def _dot_blocks(h: Process, x: Process, filtration: Filtration, width) -> Process:
    """The block product: for H of dim width * n against X of dim n, the
    dim-width process whose component s is the dot integral of H's block
    H_{s n}, ..., H_{s n + n - 1}; width 1 is dot_integral. H must be
    predictable for the filtration."""
    if h.tree is not x.tree:
        raise DimensionMismatch("integrand and integrator on different trees")
    n = x.dim
    if h.dim != width * n:
        raise DimensionMismatch(f"integrand dim {h.dim}, integrator dim {n}")
    if not h.is_predictable(filtration):
        raise NotPredictable("integrand is not predictable for this filtration")
    product = _dot if width == 1 else (lambda u, v: tuple([
        sum(map(mul, u[s * n:s * n + n], v)) for s in range(width)]))
    return Process._accumulate(
        x.tree, (0,) * width,
        lambda t: _products(x.tree, h._row(t), x._delta(t), product))


class JumpMeasure:
    """Integer-valued random measure of a base-adapted process's jumps.

    Support: the time-t nodes (t >= 1) where the increment is a nonzero
    vector. The measure holds only locs, the one jump index: per time t, per
    time-t node in node order, the increment's id in the tree's location
    pool, or None off the support. Readers go through locs or _jump_cut.
    """

    def __init__(self, tree: FilteredTree, dim: int, locs):
        self.tree, self.dim, self.locs = tree, dim, tuple(locs)
        self._compensators: dict[Filtration, CompensatorTable] = {}

    @property
    def support(self) -> dict:
        """{support node id: location vector} in time, then node order."""
        return {node.id: self.tree.locations[loc] for nodes, locs
                in zip(self.tree.nodes_at, self.locs)
                for node, loc in zip(nodes, locs) if loc is not None}

    def nodes_at(self, t):
        """The time-t support nodes in node-label order."""
        return sorted([node for node, loc in zip(self.tree.nodes_at[t], self.locs[t])
                       if loc is not None], key=lambda node: node.id)

    def location(self, node_id):
        node = self.tree.nodes[node_id]
        return self.jump_at(node.time, node.leaf_lo)

    def jump_at(self, t, leaf):
        """Location if (t, leaf) sits under a support node, else None."""
        loc = self.locs[t][self.tree.base_filtration().parts[t].block_of[leaf]]
        return None if loc is None else self.tree.locations[loc]

    def compensator(self, filtration_like) -> "CompensatorTable":
        filtration = _flow_on(self.tree, filtration_like)
        if filtration not in self._compensators:
            self._compensators[filtration] = CompensatorTable(self, filtration)
        return self._compensators[filtration]


def jump_measure(x: Process) -> JumpMeasure:
    """x's jumps, each nonzero Delta X_t cell pooled by its int cell."""
    if not x.is_adapted(x.tree):
        raise NotPredictable("jump measure needs a base-adapted process")
    tree, locs = x.tree, [(None,)]
    for t in range(1, tree.horizon + 1):
        part, den, nums = x._delta(t)
        incs = [nums[part.block_of[node.leaf_lo]] for node in tree.nodes_at[t]]
        locs.append(tuple([tree._intern(den, c) if any(c) else None for c in incs]))
    return JumpMeasure(tree, x.dim, locs)


def _jump_cut(mu: JumpMeasure, filtration: Filtration, t):
    """The meet of the flow's time-(t-1) atoms with the time-t nodes, and
    per block of it the atom's index and the node's location id."""
    atoms, nodes = filtration.parts[t - 1], mu.tree.base_filtration().parts[t]
    cut = mu.tree.meet(atoms, nodes)
    return cut, cut.index_in(atoms), cut.lift(nodes, mu.locs[t])


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
        self.laws: dict[tuple[int, str], tuple[int, tuple]] = {}
        for t in range(1, measure.tree.horizon + 1):
            nodes, locs = measure.tree.base_filtration().parts[t], measure.locs[t]
            for atom in filtration.atoms(t - 1):
                masses: dict[int, int] = {}  # per location id
                for k, m in sorted(nodes.pieces(atom),
                                   key=lambda piece: nodes.atoms[piece[0]].label):
                    if locs[k] is not None:
                        masses[locs[k]] = masses.get(locs[k], 0) + m
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
        loc, _ = self.measure.tree._lookup(value)
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
        # every entry is coerced before any location is pooled
        cells = [(t, label, as_cell(value), to_fraction(g).as_integer_ratio())
                 for (t, label, value), g in entries.items()]
        intern = filtration.tree._intern
        self._fill(filtration, [((t, label, intern(*cell)), ratio)
                                for t, label, cell, ratio in cells])

    @classmethod
    def _from_ratios(cls, filtration: Filtration, items):
        """Trusted build from ((t, atom label, location id), (num, den))
        pairs, each den positive."""
        self = cls.__new__(cls)
        self._fill(filtration, items)
        return self

    def _fill(self, filtration, items):
        by_time: dict[int, dict] = {}
        for (t, label, loc), ratio in items:
            by_time.setdefault(t, {})[(label, loc)] = ratio
        self.filtration, self._tables = filtration, {}
        for t, values in by_time.items():
            den, nums = over_lcm(list(values.values()))
            den, (nums,) = reduced(den, (nums,))
            self._tables[t] = (den, dict(zip(values, nums)))

    @classmethod
    def from_callable(cls, mu: JumpMeasure, filtration_like, fn):
        """Tabulate fn(t, location) on every point charged by mu or its
        compensator under the given filtration."""
        filtration = as_filtration(filtration_like)
        locations = mu.tree.locations
        return cls._from_ratios(filtration, [
            ((t, label, loc), to_fraction(fn(t, locations[loc])).as_integer_ratio())
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
            raise self._missing(t, label, loc)
        return num

    def _missing(self, t, label, loc, location=None) -> IncompleteFunctionTable:
        """The refusal of a read at (t, atom label, location id) that the
        table does not hold; location is the vector, read from the pool
        when not given."""
        if location is None:
            location = self.filtration.tree.locations[loc]
        return IncompleteFunctionTable(
            f"no entry at time {t}, atom {label}, location {location}")

    def value(self, t, leaf, location) -> Fraction:
        """g at time t on the path through the leaf, read on its time-(t-1)
        atom of the anchoring filtration."""
        loc, vector = self.filtration.tree._lookup(location)
        label = self.filtration.conditioning_atom_of(t, leaf).label
        if loc is None:
            raise self._missing(t, label, loc, vector)
        return Fraction(self._numerator(t, label, loc), self._tables[t][0])


def _anchored(anchoring: Filtration, filtration: Filtration) -> list:
    """Per time t >= 1 and time-(t-1) atom of the flow, the label of the
    anchoring flow's atom holding it, resolved once per time through
    index_in: a jump function anchored on that flow is read in its time-t
    table at these labels. The flow must refine the anchoring one at every
    time before the horizon, else NotPredictable."""
    tree, anchors = filtration.tree, anchoring.parts
    labels = [None]
    for t, mine in enumerate(filtration.parts[:-1], 1):
        anchor = anchors[t - 1]
        if len(tree.meet(mine, anchor).atoms) != len(mine.atoms):
            raise NotPredictable("the integration flow does not refine g's flow")
        labels.append([anchor.atoms[j].label for j in mine.index_in(anchor)])
    return labels


def star_integral(g: JumpFunction, mu: JumpMeasure, filtration_like) -> Process:
    """Compensated jump-measure integral of a predictable function.

    Increment at t: g(t, jump) when the path jumps, minus the conditional
    mean of that quantity given the atom at t-1. Always a martingale for the
    integration filtration, which must refine g's anchoring one (else
    NotPredictable). The width-1 call of _star_stack.
    """
    return _star_stack((g,), mu, _flow_on(mu.tree, filtration_like))


def _star_stack(gs, mu: JumpMeasure, filtration: Filtration) -> Process:
    """The star integrals of jump functions sharing one anchoring
    filtration, stacked: component s is gs[s]'s; none is kept.

    The integral is linear in g, so what does not depend on g is built once
    for the stack: the anchor labels, each conditioning atom's compensator
    law, the time-t cut and the running sum. Each atom's mean is one int
    dot of a function's time-t table, read at the anchor atom's label, with
    the atom's law; each jumping block's gain reads the same table entry.
    Every block's step goes over big * den, big the lcm of the atoms'
    masses and den of the tables' denominators, and the slice is reduced
    once: a reduced slice is unique, so it is the one that reducing each
    cell on its own and taking the lcm gives.
    """
    tree = mu.tree
    for g in gs:
        if g.filtration.tree is not tree:
            raise DimensionMismatch("jump function and measure on different trees")
    anchor_labels = _anchored(gs[0].filtration, filtration)
    laws = mu.compensator(filtration).laws

    def increments_at(t):
        labels = anchor_labels[t]
        masses, atom_laws = zip(*[laws.get((t, atom.label), (1, ()))
                                  for atom in filtration.parts[t - 1].atoms])
        big = lcm(*masses)
        cut, atom_of, loc_of = _jump_cut(mu, filtration, t)
        gdens, columns = [], []  # per function: its table's den, each block's
        for g in gs:             # numerator over big times that den
            gden, table = g._tables.get(t, (1, {}))
            try:  # per time-(t-1) atom: big times the mean of g
                shifts = [sum([m * table[label, loc] for loc, m in law]) * (big // mass)
                          for mass, law, label in zip(masses, atom_laws, labels)]
            except KeyError as miss:
                raise g._missing(t, *miss.args[0]) from None
            # a block's location is in its atom's law, which the shifts read
            gdens.append(gden)
            columns.append([(0 if loc is None else table[labels[k], loc] * big) - shifts[k]
                            for k, loc in zip(atom_of, loc_of)])
        den = lcm(*gdens)
        if gdens.count(den) < len(gdens):
            columns = [column if d == den else [n * (den // d) for n in column]
                       for d, column in zip(gdens, columns)]
        return (cut, *reduced(big * den, tuple(zip(*columns))))

    return Process._accumulate(tree, (0,) * len(gs), increments_at)


def project_onto_jump_measure(y: Process, mu: JumpMeasure,
                              filtration_like) -> JumpFunction:
    """Represent the jump action of a scalar martingale through the measure.

    Returns g with [Y, M]^p = [g * (mu - nu), M]^p componentwise for any
    martingale M carrying the measure. Built as the conditional expectation of
    Delta Y given (atom, jump location), corrected so the compensated integral
    reproduces the bracket; at full conditional jump mass the correction is
    zero on its own because Y is a martingale.
    """
    filtration = _flow_on(mu.tree, filtration_like)
    if y.dim != 1:
        raise DimensionMismatch("projection expects a scalar martingale")
    y.require_martingale(filtration, what="projected process")
    laws = mu.compensator(filtration).laws
    # num[t, atom label, v] / (dens[t] * atom mass) is E[Delta Y; jump = v | atom]
    num, dens = {}, {}
    for t in sorted({t for t, _ in laws}):
        cut, atom_of, loc_of = _jump_cut(mu, filtration, t)
        atoms, (part, dens[t], nums) = filtration.parts[t - 1].atoms, y._delta(t)
        means = _means(cut.atoms, part, dens[t], nums)  # (scale, sums) per block
        for block, i, loc, (scale, (total,)) in zip(cut.atoms, atom_of, loc_of,
                                                    means):
            if loc is not None:
                # the block's mass times its mean increment, over den
                key = t, atoms[i].label, loc
                num[key] = num.get(key, 0) + (
                    total * block.mass if scale == dens[t] else total)
    items = []
    for (t, label), (mass, law) in laws.items():
        sums = [num[t, label, loc] for loc, _ in law]
        rest = mass - sum(m for _, m in law)  # of the non-jumping paths
        correction = 0 if rest == 0 else Fraction(sum(sums), dens[t] * rest)
        items += [((t, label, loc),
                   (Fraction(s, dens[t] * m) + correction).as_integer_ratio())
                  for (loc, m), s in zip(law, sums)]
    return JumpFunction._from_ratios(filtration, items)

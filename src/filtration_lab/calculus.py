"""Discrete stochastic calculus on event trees, in exact rationals.

Processes are stored pathwise: one d-vector per (time, leaf). A process is
adapted to a filtration when each time slice is constant on that filtration's
atoms; base-adapted processes are equivalently tables on tree nodes, which is
how they serialize. All increments at time 0 are null by convention.

Leaves share vector objects: a process built from a node table holds one
tuple per node, and the cellwise operations (construction, stack, component,
sums, the integrals and the bracket) evaluate once per distinct tuple of
input objects within a call, so equal cells of the result share one object
too. The keys are identities of objects the call holds alive, which makes the
sharing exact for any input. Each jump function memoizes its star integral
per (measure, filtration), and each measure its compensators per filtration.

Library code builds its processes through three trusted constructors that
skip the validation outside input gets: _from_rows takes rows it made
itself, _predictable one value per conditioning atom, and _accumulate a
running value X_t = step(X_{t-1}, ...) along each path. Every path-cumulative
process (the integrals, brackets and compensators here, and the class
martingales, reconstructed family, multiplier N, deflators and exponentials
elsewhere) goes through _accumulate, so only this module decides how such a
process is laid out and shared.

Every conditional mean here (martingale tests, Doob martingales, the
compensators, predictable brackets, the projection onto a jump measure) goes
through the one kernel in tree.py: conditional_law groups an atom's leaves
by a key into {key: P(key | atom)}, and conditional_mean weighs each
distinct cell of a leaf-indexed row once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

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


class Process:
    """Adapted process with exact rational values, immutable after build."""

    __slots__ = ("tree", "dim", "values")

    def __init__(self, tree: FilteredTree, values, dim: int | None = None):
        self.tree = tree
        coerced = {}  # id of an input vector -> (that vector, its coercion)
        rows = []
        for t in range(tree.horizon + 1):
            slice_t = values[t]
            row = []
            for leaf in range(tree.n_leaves):
                vec = slice_t[leaf]
                hit = coerced.get(id(vec))
                if hit is None:
                    hit = coerced[id(vec)] = (vec, tuple(map(to_fraction, vec)))
                row.append(hit[1])
            rows.append(tuple(row))
        self.values = tuple(rows)
        dims = {len(vec) for _, vec in coerced.values()}
        if len(dims) > 1:
            raise DimensionMismatch(f"ragged value vectors: lengths {sorted(dims)}")
        self.dim = dims.pop() if dims else (dim or 0)
        if dim is not None and dim != self.dim:
            raise DimensionMismatch(f"declared dim {dim}, values have dim {self.dim}")

    @classmethod
    def _from_rows(cls, tree, rows, dim):
        """Trusted build from rows the library made itself: one row per time,
        every cell a tuple of dim Fractions. Skips the coercion and the
        dimension pass that outside input gets."""
        self = cls.__new__(cls)
        self.tree = tree
        self.values = tuple(map(tuple, rows))
        self.dim = dim
        return self

    @classmethod
    def _predictable(cls, filtration: Filtration, dim: int, value_of):
        """Trusted build of the process null at 0 holding value_of(t, atom),
        a tuple of dim Fractions, on each time-(t-1) atom for t >= 1."""
        tree = filtration.tree
        data = [[tuple([ZERO] * dim)] * tree.n_leaves]
        for t in range(1, tree.horizon + 1):
            data.append(filtration.spread(t - 1, lambda atom: value_of(t, atom)))
        return cls._from_rows(tree, data, dim)

    @classmethod
    def _accumulate(cls, tree, start, step, rows_at):
        """Trusted build of the running process with X_0 = start on every
        leaf and X_t = step(X_{t-1}, *cells) for t >= 1, where cells are the
        leaf's cells of the leaf-indexed rows rows_at(t).

        rows_at is called once per time, in time order. step runs once per
        distinct tuple of cell objects, X_{t-1} included, through one memo
        for the whole call, so it must not depend on t other than through
        its cells; equal inputs then share one result cell.
        """
        acc = Shared(step)
        data = [[start] * tree.n_leaves]
        for t in range(1, tree.horizon + 1):
            data.append(acc(data[-1], *rows_at(t)))
        return cls._from_rows(tree, data, len(start))

    # construction helpers

    @classmethod
    def zero(cls, tree, dim=1):
        vec = tuple([Fraction(0)] * dim)
        data = [[vec] * tree.n_leaves for _ in range(tree.horizon + 1)]
        return cls(tree, data, dim=dim)

    @classmethod
    def from_node_values(cls, tree, node_values, dim=None):
        """Build from a complete {node id: vector} table."""
        missing = [nid for nid in tree.nodes if nid not in node_values]
        if missing:
            raise IncompleteFunctionTable(
                f"no value for nodes {sorted(missing)[:4]}")
        data = []
        for t in range(tree.horizon + 1):
            row = [None] * tree.n_leaves
            for node in tree.nodes_at[t]:
                vec = node_values[node.id]
                if not isinstance(vec, (list, tuple)):
                    vec = (vec,)
                row[node.leaf_lo:node.leaf_hi] = [vec] * (node.leaf_hi - node.leaf_lo)
            data.append(row)
        return cls(tree, data, dim=dim)

    @classmethod
    def doob(cls, tree, terminal, filtration=None):
        """Martingale closed by a terminal payoff: X_t = E[xi | F_t]."""
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
        data = [filtration.spread(t, lambda atom: conditional_mean(tree, atom, vecs))
                for t in range(tree.horizon + 1)]
        return cls._from_rows(tree, data, dims.pop())

    @classmethod
    def stack(cls, processes):
        """Concatenate components into one vector process."""
        if not processes:
            raise DimensionMismatch("stack needs at least one process")
        tree = processes[0].tree
        for p in processes:
            if p.tree is not tree:
                raise DimensionMismatch("stack across different trees")
        concat = Shared(lambda *vecs: sum(vecs, ()))
        data = [concat(*(p.values[t] for p in processes))
                for t in range(tree.horizon + 1)]
        return cls._from_rows(tree, data, sum(p.dim for p in processes))

    # access

    def at(self, t, leaf):
        return self.values[t][leaf]

    def increment(self, t, leaf):
        """Delta X_t on the path through the given leaf; null at t = 0."""
        if t == 0:
            return tuple([ZERO] * self.dim)
        prev = self.values[t - 1][leaf]
        curr = self.values[t][leaf]
        return tuple(a - b for a, b in zip(curr, prev))

    def component(self, i):
        pick = Shared(lambda vec: (vec[i],))
        return Process._from_rows(self.tree, [pick(row) for row in self.values], 1)

    def components(self):
        return [self.component(i) for i in range(self.dim)]

    def initial(self):
        return self.values[0][0]

    def minus_initial(self):
        sub = Shared(lambda vec, x0: tuple(a - b for a, b in zip(vec, x0)))
        data = [sub(row, self.values[0]) for row in self.values]
        return Process._from_rows(self.tree, data, self.dim)

    # arithmetic

    def _zip(self, other, op):
        if not isinstance(other, Process):
            raise TypeError("expected a Process")
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")
        cell = Shared(lambda u, v: tuple(op(a, b) for a, b in zip(u, v)))
        data = [cell(mine, theirs)
                for mine, theirs in zip(self.values, other.values)]
        return Process._from_rows(self.tree, data, self.dim)

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def scale(self, factor):
        factor = to_fraction(factor)
        times = Shared(lambda vec: tuple(factor * c for c in vec))
        return Process._from_rows(self.tree, [times(row) for row in self.values],
                                  self.dim)

    def __eq__(self, other):
        return (isinstance(other, Process) and other.tree is self.tree
                and other.dim == self.dim and self.first_divergence(other) is None)

    __hash__ = None

    def first_divergence(self, other):
        """Earliest (t, leaf) where the two processes differ, or None.

        Each distinct pair of cell objects is compared once; both processes
        hold their cells alive, so the ids in the memo stay theirs.
        """
        if other.tree is not self.tree or other.dim != self.dim:
            raise DimensionMismatch("process shapes differ")
        equal = set()
        for t, (mine, theirs) in enumerate(zip(self.values, other.values)):
            for leaf, (u, v) in enumerate(zip(mine, theirs)):
                pair = (id(u), id(v))
                if pair in equal:
                    continue
                if u != v:
                    return (t, leaf)
                equal.add(pair)
        return None

    # measurability

    def _constant_on(self, atoms_at) -> bool:
        """Each time-t slice constant on every atom of atoms_at(t)."""
        return all(row[i] == row[atom.leaves[0]]
                   for t, row in enumerate(self.values)
                   for atom in atoms_at(t) for i in atom.leaves)

    def is_adapted(self, filtration_like) -> bool:
        return self._constant_on(as_filtration(filtration_like).atoms)

    def is_predictable(self, filtration_like) -> bool:
        """Value at t known at t-1 (at 0: F_0-measurable)."""
        return self._constant_on(as_filtration(filtration_like).conditioning_atoms)

    def is_martingale(self, filtration_like) -> bool:
        filtration = as_filtration(filtration_like)
        if not self.is_adapted(filtration):
            return False
        # adapted, so X_{t-1} is constant on each time-(t-1) atom
        for t in range(1, self.tree.horizon + 1):
            now, before = self.values[t], self.values[t - 1]
            for atom in filtration.atoms(t - 1):
                if conditional_mean(self.tree, atom, now) != before[atom.leaves[0]]:
                    return False
        return True

    def require_martingale(self, filtration_like, what="process"):
        if not self.is_martingale(filtration_like):
            raise NotAMartingale(f"{what} is not a martingale for this filtration")

    def node_values(self):
        """Export as a node table; requires base adaptedness."""
        if not self.is_adapted(self.tree):
            raise NotPredictable("process is not adapted to the base filtration")
        out = {}
        for t in range(self.tree.horizon + 1):
            for node in self.tree.nodes_at[t]:
                out[node.id] = self.values[t][node.leaf_lo]
        return out

    def __repr__(self):
        return f"Process(dim={self.dim}, horizon={self.tree.horizon})"


@dataclass(frozen=True)
class Decomposition:
    """X = X_0 + martingale_part + drift_part, both parts null at 0."""
    martingale_part: Process
    drift_part: Process


def _compensate(filtration: Filtration, dim: int, step) -> Process:
    """Null at 0, moved on each time-(t-1) atom by the vector step(t, atom)."""
    return Process._accumulate(
        filtration.tree, tuple([ZERO] * dim),
        lambda prev, move: tuple(map(add, prev, move)),
        lambda t: (filtration.spread(t - 1, lambda atom: step(t, atom)),))


def dual_predictable_projection(a: Process, filtration_like) -> Process:
    """Compensator: null at 0, increments E[Delta A_t | F_{t-1}].

    The result is predictable for the given filtration by construction.
    """
    tree = a.tree

    def mean_increment(t, atom):
        # E[A_t | atom] - E[A_{t-1} | atom], which needs no adaptedness
        now = conditional_mean(tree, atom, a.values[t])
        before = conditional_mean(tree, atom, a.values[t - 1])
        return tuple(p - q for p, q in zip(now, before))

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
        lambda t: (x.values[t], x.values[t - 1], y.values[t], y.values[t - 1]))


def predictable_bracket(x: Process, y: Process, filtration_like) -> Process:
    """[X, Y]^p computed directly from conditional products.

    Agrees exactly with dual_predictable_projection(bracket(X, Y)).
    """
    filtration = as_filtration(filtration_like)
    if x.tree is not y.tree:
        raise DimensionMismatch("bracket across different trees")
    if x.dim != y.dim:
        raise DimensionMismatch(f"bracket dims {x.dim} and {y.dim}")
    product = Shared(lambda xc, xp, yc, yp: (sum(
        ((a - b) * (c - d) for a, b, c, d in zip(xc, xp, yc, yp)),
        start=ZERO),))
    products = [None] + [product(x.values[t], x.values[t - 1],
                                 y.values[t], y.values[t - 1])
                         for t in range(1, x.tree.horizon + 1)]
    return _compensate(filtration, 1, lambda t, atom: conditional_mean(
        x.tree, atom, products[t]))


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
        lambda t: (h.values[t], x.values[t], x.values[t - 1]))


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
            node_of = tree.nodes_by_leaf(t).__getitem__
            for atom in filtration.atoms(t - 1):
                law = conditional_law(tree, atom, node_of)
                dist: dict[tuple, Fraction] = {}
                for node in sorted(law, key=lambda n: n.id):
                    value = measure.support.get(node.id)
                    if value is not None:
                        dist[value] = dist.get(value, ZERO) + law[node]
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
    comp = {}  # (t, atom label) -> compensated mean of g, filled time by time

    def rows_at(t):
        for atom in filtration.atoms(t - 1):
            g_atom = g.filtration.conditioning_atom_of(t, atom.leaves[0])
            dist = table.entries.get((t, atom.label), {})
            comp[(t, atom.label)] = sum(
                (p * g.value_on(t, g_atom, value) for value, p in dist.items()),
                start=ZERO)
        return (filtration.atoms_by_leaf(t - 1), g.filtration.atoms_by_leaf(t - 1),
                tree.nodes_by_leaf(t))

    def step(acc, atom, g_atom, node):
        # the time-t node fixes t
        jump = mu.support.get(node.id)
        gain = ZERO if jump is None else g.value_on(node.time, g_atom, jump)
        return (acc[0] + (gain - comp[(node.time, atom.label)]),)

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
    tree = y.tree
    table = mu.compensator(filtration)
    step = Shared(lambda now, before: (now[0] - before[0],))
    increments = [None] + [step(y.values[t], y.values[t - 1])
                           for t in range(1, tree.horizon + 1)]
    entries = {}
    for (t, label), dist in table.entries.items():
        atom = filtration.atom_labelled(t - 1, label)
        # E[Delta Y; jump = v | atom] per location v; dist[v] = P(jump = v | atom)
        num: dict[tuple, Fraction] = dict.fromkeys(dist, ZERO)
        partial = conditional_mean(tree, atom, increments[t],
                                   key=tree.nodes_by_leaf(t).__getitem__)
        for node, (value,) in partial.items():
            location = mu.support.get(node.id)
            if location is not None:
                num[location] += value
        mass = sum(dist.values(), start=ZERO)
        hat = sum(num.values(), start=ZERO)
        correction = ZERO if mass == 1 else hat / (1 - mass)
        for v in dist:
            entries[(t, label, v)] = num[v] / dist[v] + correction
    return JumpFunction(filtration, entries)

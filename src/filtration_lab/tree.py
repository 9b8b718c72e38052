"""Finite filtered probability spaces as rooted event trees.

A tree with horizon T carries one node per (time, atom): the time-t nodes are
exactly the atoms of F_t, every edge holds a strictly positive rational branch
probability, and the time-T nodes are the elementary outcomes. Enlargements
refine the leaf partitions per time without touching the tree itself.

Conventions used throughout the library: F_{t-} means F_{t-1} for t >= 1 and
F_0 for t = 0; a process is predictable at t when it is F_{t-1}-measurable;
increments at time 0 are null; stopping times use horizon+1 as the infinity
sentinel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DanglingNode,
    NonPositiveProbability,
    NotARefinement,
    NotAStoppingTime,
    NotMonotone,
    ProbabilitySumNotOne,
    TimeOutOfRange,
)
from .rationals import to_fraction

ONE = Fraction(1)
ZERO = Fraction(0)


class Node:
    __slots__ = ("id", "time", "parent", "branch_prob", "children", "prob",
                 "leaf_lo", "leaf_hi")

    def __init__(self, node_id, time, parent, branch_prob):
        self.id = node_id
        self.time = time
        self.parent = parent
        self.branch_prob = branch_prob
        self.children = []
        self.prob = None
        self.leaf_lo = None
        self.leaf_hi = None

    def leaves(self):
        return tuple(range(self.leaf_lo, self.leaf_hi))

    def __repr__(self):
        return f"Node({self.id!r}, t={self.time})"


@dataclass(frozen=True)
class Atom:
    """One cell of a leaf partition, with its unconditional probability."""
    label: str
    leaves: tuple[int, ...]
    prob: Fraction


class FilteredTree:
    """Event tree plus its base filtration.

    Leaves are indexed in depth-first order, so the leaf set of any node is a
    contiguous range. F_t-atoms are the time-t nodes.
    """

    def __init__(self, horizon: int, node_specs):
        if horizon < 0:
            raise TimeOutOfRange(f"horizon must be >= 0, got {horizon}")
        self.horizon = horizon
        self.nodes: dict[str, Node] = {}
        roots = []
        order = []
        # stable sort by time so parents are processed first; same-time nodes
        # keep their listed order, which fixes the child order everywhere
        node_specs = sorted(node_specs, key=lambda s: s[1])
        for spec in node_specs:
            node_id, time, parent_id, prob = spec
            if node_id in self.nodes:
                raise DanglingNode(f"duplicate node id {node_id!r}")
            if not 0 <= time <= horizon:
                raise TimeOutOfRange(f"node {node_id!r} has time {time}")
            if parent_id is None:
                if time != 0:
                    raise DanglingNode(f"node {node_id!r} has no parent but time {time}")
                node = Node(node_id, time, None, None)
                roots.append(node)
            else:
                parent = self.nodes.get(parent_id)
                if parent is None:
                    raise DanglingNode(
                        f"node {node_id!r} references unknown parent {parent_id!r}")
                if parent.time != time - 1:
                    raise DanglingNode(
                        f"node {node_id!r} at time {time} under parent at time {parent.time}")
                branch = to_fraction(prob)
                if branch <= 0:
                    raise NonPositiveProbability(
                        f"branch probability {branch} into node {node_id!r}")
                node = Node(node_id, time, parent, branch)
                parent.children.append(node)
            self.nodes[node_id] = node
            order.append(node)
        if len(roots) != 1:
            raise DanglingNode(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]

        for node in order:
            if node.time < horizon and not node.children:
                raise DanglingNode(f"non-terminal node {node.id!r} has no children")
            if node.time == horizon and node.children:
                raise TimeOutOfRange(f"node {node.id!r} at the horizon has children")
            if node.children:
                total = sum((c.branch_prob for c in node.children), start=ZERO)
                if total != 1:
                    raise ProbabilitySumNotOne(
                        f"children of {node.id!r} have probabilities summing to {total}")

        preorder = self._preorder()
        if len(order) != len(preorder):
            raise DanglingNode("tree contains nodes unreachable from the root")

        self.leaves: list[Node] = []
        self._assign_leaf_ranges(preorder)
        self.leaf_ids = [leaf.id for leaf in self.leaves]
        self._leaf_index = {leaf_id: i for i, leaf_id in enumerate(self.leaf_ids)}
        self.leaf_probs = [leaf.prob for leaf in self.leaves]
        self.nodes_at: list[list[Node]] = [[] for _ in range(horizon + 1)]
        for node in preorder:
            self.nodes_at[node.time].append(node)
        # time-t ancestor of each leaf
        self._ancestor: list[tuple[Node, ...]] = []
        for t in range(horizon + 1):
            row = [None] * len(self.leaves)
            for node in self.nodes_at[t]:
                for leaf in range(node.leaf_lo, node.leaf_hi):
                    row[leaf] = node
            self._ancestor.append(tuple(row))
        self._base_filtration = None

    def _preorder(self):
        """Nodes reachable from the root, depth first, children in order."""
        ordered = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            ordered.append(node)
            stack.extend(reversed(node.children))
        return ordered

    def _assign_leaf_ranges(self, preorder):
        """Number the leaves depth first, so every node's leaves are the
        range between its first and last child's."""
        self.root.prob = ONE
        for node in preorder:
            for child in node.children:
                child.prob = node.prob * child.branch_prob
            if not node.children:
                node.leaf_lo = len(self.leaves)
                self.leaves.append(node)
                node.leaf_hi = len(self.leaves)
        for node in reversed(preorder):
            if node.children:
                node.leaf_lo = node.children[0].leaf_lo
                node.leaf_hi = node.children[-1].leaf_hi

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def node_at(self, t: int, leaf: int) -> Node:
        """Time-t ancestor of the given leaf."""
        return self._ancestor[t][leaf]

    def nodes_by_leaf(self, t: int) -> tuple[Node, ...]:
        """Time-t ancestor of every leaf, in leaf order."""
        return self._ancestor[t]

    def leaf_index(self, leaf_id: str) -> int | None:
        """Position of the leaf with the given id, or None."""
        return self._leaf_index.get(leaf_id)

    def base_filtration(self) -> "Filtration":
        if self._base_filtration is None:
            partitions = []
            for t in range(self.horizon + 1):
                atoms = tuple(Atom(n.id, n.leaves(), n.prob) for n in self.nodes_at[t])
                partitions.append(atoms)
            self._base_filtration = Filtration(self, partitions, kind="base")
        return self._base_filtration

    def to_spec(self):
        """Serializable node list, parents before children."""
        specs = [{
            "id": node.id,
            "time": node.time,
            "parent": node.parent.id if node.parent else None,
            "prob": None if node.branch_prob is None else str(node.branch_prob),
        } for node in self._preorder()]
        return {"horizon": self.horizon, "nodes": specs}


def build_tree(spec) -> FilteredTree:
    """Build and validate a tree from {"horizon": T, "nodes": [...]}, where each
    node entry carries id, time, parent (null for the root) and prob."""
    horizon = int(spec["horizon"])
    node_specs = [(str(n["id"]), int(n["time"]), n.get("parent"), n.get("prob"))
                  for n in spec["nodes"]]
    return FilteredTree(horizon, node_specs)


class Filtration:
    """A time-indexed sequence of leaf partitions, finest at the horizon."""

    def __init__(self, tree: FilteredTree, partitions, kind="base"):
        self.tree = tree
        self.kind = kind
        self._atoms = partitions
        self._atom_of = []
        self._labelled = {}
        for t, atoms in enumerate(partitions):
            lookup = [None] * tree.n_leaves
            for atom in atoms:
                self._labelled[(t, atom.label)] = atom
                for leaf in atom.leaves:
                    lookup[leaf] = atom
            self._atom_of.append(tuple(lookup))

    def atoms(self, t: int) -> tuple[Atom, ...]:
        if not 0 <= t <= self.tree.horizon:
            raise TimeOutOfRange(f"time {t} outside 0..{self.tree.horizon}")
        return self._atoms[t]

    def atoms_by_leaf(self, t: int) -> tuple[Atom, ...]:
        """Time-t atom of every leaf, in leaf order."""
        if not 0 <= t <= self.tree.horizon:
            raise TimeOutOfRange(f"time {t} outside 0..{self.tree.horizon}")
        return self._atom_of[t]

    def spread(self, t: int, value_of) -> list:
        """Leaf-indexed row holding value_of(atom) on each time-t atom."""
        row = [None] * self.tree.n_leaves
        for atom in self.atoms(t):
            value = value_of(atom)
            for i in atom.leaves:
                row[i] = value
        return row

    def atom_labelled(self, t: int, label: str) -> Atom:
        """The time-t atom with the given label."""
        return self._labelled[(t, label)]

    def atoms_within(self, t: int, leaves) -> tuple[Atom, ...]:
        """Distinct time-t atoms holding the given leaves, in first-leaf order.

        When the time-t partition refines the cell the leaves make up, these
        are exactly the time-t atoms inside that cell, in atoms(t) order.
        """
        if not 0 <= t <= self.tree.horizon:
            raise TimeOutOfRange(f"time {t} outside 0..{self.tree.horizon}")
        lookup = self._atom_of[t]
        found = {}
        for leaf in leaves:
            atom = lookup[leaf]
            found.setdefault(id(atom), atom)
        return tuple(found.values())

    def conditioning_atoms(self, t: int) -> tuple[Atom, ...]:
        """Atoms of F_{t-}: F_{t-1} for t >= 1, F_0 for t = 0."""
        return self.atoms(t - 1 if t >= 1 else 0)

    def conditioning_atom_of(self, t: int, leaf: int) -> Atom:
        return self.atoms_by_leaf(t - 1 if t >= 1 else 0)[leaf]


def _atom_label(tree: FilteredTree, leaves) -> str:
    return "|".join(tree.leaf_ids[i] for i in sorted(leaves))


def _time_key(t) -> int:
    """An enlargement's time key: an int, or a string holding one."""
    if isinstance(t, (int, str)) and not isinstance(t, bool):
        try:
            return int(t)
        except ValueError:
            pass
    raise TimeOutOfRange(f"enlargement time {t!r} is not an integer")


def _group(leaves, key):
    """The leaves grouped by key(leaf), in first-leaf order."""
    groups = {}
    for leaf in leaves:
        groups.setdefault(key(leaf), []).append(leaf)
    return groups


class Enlargement:
    """A filtration G with G_t containing F_t, given by refined leaf partitions.

    Partitions may be supplied for any subset of times; a missing time defaults
    to the common refinement of the base partition at t and the enlarged
    partition at t-1, the coarsest valid completion.
    """

    def __init__(self, tree: FilteredTree, partitions_by_time, name: str = "G"):
        self.tree = tree
        self.name = name
        given = {}
        for t, parts in partitions_by_time.items():
            t = _time_key(t)
            if not 0 <= t <= tree.horizon:
                raise TimeOutOfRange(f"enlargement at time {t} outside 0..{tree.horizon}")
            if not isinstance(parts, (list, tuple)):
                raise NotARefinement(f"partition at time {t} is not a list of cells")
            cells = []
            for cell in parts:
                if not isinstance(cell, (list, tuple, set, frozenset)):
                    raise NotARefinement(
                        f"cell {cell!r} at time {t} is not a list of leaves")
                idx = tuple(sorted(self._leaf_index(leaf) for leaf in cell))
                if not idx:
                    raise NotARefinement(f"empty cell in enlargement at time {t}")
                cells.append(idx)
            given[t] = cells
        self.partitions: list[tuple[tuple[int, ...], ...]] = []
        previous = [range(tree.n_leaves)]
        base = tree.base_filtration()
        for t in range(tree.horizon + 1):
            prev_of = [None] * tree.n_leaves
            for k, cell in enumerate(previous):
                for leaf in cell:
                    prev_of[leaf] = k
            if t in given:
                cells = given[t]
                self._check_partition(cells, tree.n_leaves, t)
                base_of = base.atoms_by_leaf(t)
                for cell in cells:
                    if len({id(base_of[i]) for i in cell}) > 1:
                        raise NotARefinement(
                            f"cell {cell} at time {t} is not inside a base atom")
                for cell in cells:
                    if len({prev_of[i] for i in cell}) > 1:
                        raise NotMonotone(
                            f"cell {cell} at time {t} splits across time-{t-1} cells")
            else:
                # the coarsest completion: base atoms cut by the time-(t-1) cells
                cells = [tuple(piece) for atom in base.atoms(t) for piece in
                         _group(atom.leaves, prev_of.__getitem__).values()]
            cells = tuple(sorted(cells, key=lambda c: c[0]))
            self.partitions.append(cells)
            previous = cells
        self._filtration = None

    def _leaf_index(self, leaf) -> int:
        if isinstance(leaf, bool) or not isinstance(leaf, (int, str)):
            raise NotARefinement(
                f"leaf {leaf!r} is neither a leaf index nor a leaf id")
        if isinstance(leaf, int):
            if not 0 <= leaf < self.tree.n_leaves:
                raise NotARefinement(f"leaf index {leaf} out of range")
            return leaf
        try:
            node = self.tree.nodes[leaf]
        except KeyError:
            raise NotARefinement(f"unknown leaf id {leaf!r}") from None
        if node.time != self.tree.horizon:
            raise NotARefinement(f"node {leaf!r} is not a leaf")
        return node.leaf_lo

    @staticmethod
    def _check_partition(cells, n_leaves, t):
        seen = set()
        for cell in cells:
            for leaf in cell:
                if leaf in seen:
                    raise NotARefinement(f"leaf {leaf} duplicated at time {t}")
                seen.add(leaf)
        if len(seen) != n_leaves:
            raise NotARefinement(f"partition at time {t} does not cover all leaves")

    def filtration(self) -> Filtration:
        if self._filtration is None:
            partitions = []
            for t, cells in enumerate(self.partitions):
                atoms = tuple(
                    Atom(_atom_label(self.tree, cell), cell,
                         sum((self.tree.leaf_probs[i] for i in cell), start=ZERO))
                    for cell in cells)
                partitions.append(atoms)
            self._filtration = Filtration(self.tree, partitions, kind="enlarged")
        return self._filtration

    def to_spec(self):
        return {
            str(t): [[self.tree.leaf_ids[i] for i in cell] for cell in cells]
            for t, cells in enumerate(self.partitions)
        }


def enlarge(tree: FilteredTree, partitions_by_time, name: str = "G") -> Enlargement:
    """Validate and wrap refined leaf partitions as an enlargement of the base
    filtration. Raises NotARefinement or NotMonotone on bad input."""
    return Enlargement(tree, partitions_by_time, name=name)


def as_filtration(obj) -> Filtration:
    if isinstance(obj, Filtration):
        return obj
    if isinstance(obj, FilteredTree):
        return obj.base_filtration()
    if isinstance(obj, Enlargement):
        return obj.filtration()
    raise TypeError(f"cannot view {obj!r} as a filtration")


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


def conditional_expectation_leafwise(x, t, filtration_like):
    """E[x | F_t] as a leaf-indexed list, for a leaf-indexed rational vector x."""
    filtration = as_filtration(filtration_like)
    tree = filtration.tree
    row = [(to_fraction(v),) for v in x]
    if len(row) != tree.n_leaves:
        raise TimeOutOfRange(
            f"expected {tree.n_leaves} leaf values, got {len(row)}")
    return filtration.spread(t, lambda atom: conditional_mean(tree, atom, row)[0])


def conditional_expectation(x, t, filtration_like):
    """E[x | F_t] keyed by atom label."""
    filtration = as_filtration(filtration_like)
    leafwise = conditional_expectation_leafwise(x, t, filtration)
    return {atom.label: leafwise[atom.leaves[0]] for atom in filtration.atoms(t)}


class StoppingTime:
    """Leaf-indexed time with horizon+1 standing for infinity.

    The defining measurability, {tau <= t} a union of F_t-atoms, is checked on
    construction. On these trees every stopping time is accessible; whether it
    is predictable ({tau = t} already known at t-1) is a separate query.
    """

    def __init__(self, tree: FilteredTree, values):
        self.tree = tree
        self.infinity = tree.horizon + 1
        vals = tuple(int(v) for v in values)
        if len(vals) != tree.n_leaves:
            raise NotAStoppingTime(
                f"expected {tree.n_leaves} leaf values, got {len(vals)}")
        for v in vals:
            if not 0 <= v <= self.infinity:
                raise NotAStoppingTime(f"value {v} outside 0..{self.infinity}")
        self.values = vals
        base = tree.base_filtration()
        for t in range(tree.horizon + 1):
            for atom in base.atoms(t):
                hits = {vals[i] <= t for i in atom.leaves}
                if len(hits) > 1:
                    raise NotAStoppingTime(
                        f"{{tau <= {t}}} cuts through atom {atom.label}")

    @classmethod
    def constant(cls, tree, t):
        return cls(tree, [t] * tree.n_leaves)

    def is_predictable(self) -> bool:
        """True when {tau = t} is F_{t-1}-measurable for every t >= 1 and
        {tau = 0} is trivial."""
        base = self.tree.base_filtration()
        zero_set = {i for i, v in enumerate(self.values) if v == 0}
        if zero_set and len(zero_set) != self.tree.n_leaves:
            return False
        for t in range(1, self.tree.horizon + 1):
            for atom in base.atoms(t - 1):
                hits = {self.values[i] == t for i in atom.leaves}
                if len(hits) > 1:
                    return False
        return True

    def graph_at(self, t: int):
        """Leaves with tau exactly t."""
        return tuple(i for i, v in enumerate(self.values) if v == t)


def random_tree(seed: int, horizon: int = 2, max_branching: int = 3,
                denominator_bound: int = 8) -> FilteredTree:
    """Deterministic random tree: branching in 1..max_branching, branch
    probabilities with small denominators, ids spelling the path from the root."""
    if horizon < 1:
        raise TimeOutOfRange("random_tree needs horizon >= 1")
    max_branching = max(1, min(int(max_branching), 8))
    denominator_bound = max(2, int(denominator_bound))
    rng = random.Random(seed)
    specs = []
    # depth first, drawing each node's branching as it is first visited
    stack = [("r", 0, None, None)]
    while stack:
        spec = stack.pop()
        specs.append(spec)
        node_id, time = spec[0], spec[1]
        if time == horizon:
            continue
        n_children = rng.randint(1, max_branching)
        weights = [rng.randint(1, denominator_bound) for _ in range(n_children)]
        total = sum(weights)
        stack.extend(reversed([
            (node_id + "abcdefgh"[k], time + 1, node_id, Fraction(weights[k], total))
            for k in range(n_children)]))
    return FilteredTree(horizon, specs)

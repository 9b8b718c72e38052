"""Finite filtered probability spaces as rooted event trees.

A tree with horizon T carries one node per (time, atom): the time-t nodes are
exactly the atoms of F_t, every edge holds a strictly positive rational branch
probability, and the time-T nodes are the elementary outcomes. Enlargements
refine the leaf partitions per time without touching the tree itself.

Each time of a filtration is a Partition of the leaves; processes store one
cell per block. The tree memoizes the meet of two partitions, and each
partition the one atom index, Partition.pieces, per other partition;
between a filtration's consecutive times it is the parent-to-child index.

Masses are ints: every leaf probability is an int numerator over one
tree-wide leaf denominator D, and every atom stores only its mass over D;
its probability is a view built when read. A conditional mean sums the
products of those int masses with int numerators, in one kernel: _means
takes any atoms of one partition, reads that partition's atom index once
per slice and lays the results out as one (scale, sums) cell per atom; the
callers reduce once per output cell.

Each tree interns the jump locations its measures and jump functions name as
small ints, keyed by each location's reduced int cell (den, nums), and builds
the location's Fraction vector once, beside its cell; it holds no process.

Conventions used throughout the library: F_{t-} means F_{t-1} for t >= 1 and
F_0 for t = 0; a process is predictable at t when it is F_{t-1}-measurable;
increments at time 0 are null; stopping times use horizon+1 as the infinity
sentinel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    DanglingNode,
    DimensionMismatch,
    NonPositiveProbability,
    NotARefinement,
    NotAStoppingTime,
    NotMonotone,
    ParseError,
    ProbabilitySumNotOne,
    TimeOutOfRange,
)
from .rationals import as_cell, over_common_denominator, reduced, to_fraction

ONE = Fraction(1)


class Node:
    __slots__ = ("id", "time", "parent", "branch_prob", "children", "prob",
                 "mass", "leaf_lo", "leaf_hi")

    def __init__(self, node_id, time, parent, branch_prob):
        self.id = node_id
        self.time = time
        self.parent = parent
        self.branch_prob = branch_prob
        self.children = []
        self.prob = None
        self.mass = None
        self.leaf_lo = None
        self.leaf_hi = None

    def leaves(self):
        return tuple(range(self.leaf_lo, self.leaf_hi))

    def __repr__(self):
        return f"Node({self.id!r}, t={self.time})"


@dataclass(frozen=True, slots=True)
class Atom:
    """One cell of a leaf partition, its mass over the tree's leaf
    denominator, placed by index in the partition that made it; prob is the
    mass's Fraction view, built when read. A meet's atoms have label None."""
    label: str | None
    leaves: tuple[int, ...]
    mass: int = field(compare=False, repr=False)
    partition: Partition = field(compare=False, repr=False)
    index: int = field(compare=False, repr=False)

    @property
    def prob(self) -> Fraction:
        return Fraction(self.mass, self.partition.tree.leaf_den)


class Partition:
    """A leaf partition: its blocks as atoms in first-leaf order, and the
    block index of every leaf."""

    __slots__ = ("tree", "atoms", "block_of", "_index", "_pieces")

    def __init__(self, tree, blocks):
        """blocks: (label, leaves, mass) per block, in first-leaf order."""
        self.tree = tree
        self.atoms = tuple(Atom(label, leaves, mass, self, k)
                           for k, (label, leaves, mass) in enumerate(blocks))
        self.block_of = block_of = [0] * tree.n_leaves
        for atom in self.atoms:
            for leaf in atom.leaves:
                block_of[leaf] = atom.index
        self._index = {}
        self._pieces = {}

    def index_in(self, coarse):
        """Block of coarse holding each block of this partition, which must
        refine coarse."""
        if len(coarse.atoms) == len(self.atoms):  # equal, both in first-leaf order
            return range(len(self.atoms))
        hit = self._index.get(coarse)
        if hit is None:
            of = coarse.block_of
            hit = self._index[coarse] = tuple(of[a.leaves[0]] for a in self.atoms)
        return hit

    def lift(self, coarse, cells):
        """cells, one per block of coarse, read on the blocks of this
        partition, which must refine coarse."""
        index = self.index_in(coarse)
        return cells if isinstance(index, range) else [cells[k] for k in index]

    def pieces(self, atom):
        """The atom index: (block, int mass of its intersection with atom)
        for every block meeting atom, in first-leaf order; one lookup in
        the table of atom's partition."""
        hit = self._pieces.get(atom.partition)
        if hit is None:
            hit = self.pieces_table(atom.partition)
        return hit[atom.index]

    def pieces_table(self, coarse):
        """The atom index of every block of coarse, by block index, grouped
        from the blocks of the meet of the two partitions; memoized per
        coarse."""
        hit = self._pieces.get(coarse)
        if hit is None:
            meet = self.tree.meet(self, coarse)
            hit = [[] for _ in coarse.atoms]
            for k, j, piece in zip(meet.index_in(self), meet.index_in(coarse),
                                   meet.atoms):
                hit[j].append((k, piece.mass))
            hit = self._pieces[coarse] = tuple(map(tuple, hit))
        return hit


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
            if node.children:
                ratios = [c.branch_prob.as_integer_ratio() for c in node.children]
                den = lcm(*[d for _, d in ratios])
                total = sum([n * (den // d) for n, d in ratios])
                if total != den:
                    raise ProbabilitySumNotOne(
                        f"children of {node.id!r} have probabilities summing to "
                        f"{Fraction(total, den)}")

        preorder = self._preorder()

        self.leaves: list[Node] = []
        self._assign_leaf_ranges(preorder)
        self.leaf_ids = [leaf.id for leaf in self.leaves]
        self.leaf_probs = [leaf.prob for leaf in self.leaves]
        self.leaf_mass = [leaf.mass for leaf in self.leaves]
        self.nodes_at: list[list[Node]] = [[] for _ in range(horizon + 1)]
        for node in preorder:
            self.nodes_at[node.time].append(node)
        self._base_filtration = None
        self._meets = {}
        self.location_cells, self.locations, self._location_ids = [], [], {}  # pool

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
        range between its first and last child's, and give every node its
        mass over the leaf denominator, the lcm of the leaves'."""
        self.root.prob = ONE
        for node in preorder:
            for child in node.children:
                child.prob = node.prob * child.branch_prob
            if not node.children:
                node.leaf_lo = len(self.leaves)
                self.leaves.append(node)
                node.leaf_hi = len(self.leaves)
        ratios = [leaf.prob.as_integer_ratio() for leaf in self.leaves]
        self.leaf_den = den = lcm(*[d for _, d in ratios])
        for leaf, (n, d) in zip(self.leaves, ratios):
            leaf.mass = n * (den // d)
        for node in reversed(preorder):
            if node.children:
                node.leaf_lo = node.children[0].leaf_lo
                node.leaf_hi = node.children[-1].leaf_hi
                node.mass = sum([child.mass for child in node.children])

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def node_at(self, t: int, leaf: int) -> Node:
        """Time-t ancestor of the given leaf."""
        return self.nodes_at[t][self.base_filtration().parts[t].block_of[leaf]]

    def leaf_index(self, leaf_id: str) -> int | None:
        """The leaf's position, read off its node; None for any other id."""
        node = self.nodes.get(leaf_id)
        return None if node is None or node.children else node.leaf_lo

    def location_id(self, value) -> int:
        """The id of a jump location vector, each entry coerced with
        to_fraction, interned on first sight; locations[id] gives the
        vector back as Fractions."""
        return self._intern(*as_cell(value))

    def _lookup(self, value):
        """(id, vector as Fractions) of a jump location vector, coerced as
        location_id coerces it, its as_cell already reduced; the id is None
        when the pool does not hold it. A lookup pools nothing."""
        cell = den, nums = as_cell(value)
        loc = self._location_ids.get(cell)
        if loc is None:
            return None, tuple([Fraction(n, den) for n in nums])
        return loc, self.locations[loc]

    def _intern(self, den, nums) -> int:
        """The id of the location nums / den, den > 0, interned on first
        sight by its cell over the least den that clears it, gcd 1."""
        den, (nums,) = reduced(den, (nums,))
        cell = den, nums
        hit = self._location_ids.setdefault(cell, len(self.locations))
        if hit == len(self.locations):
            self.location_cells.append(cell)
            self.locations.append(tuple([Fraction(n, den) for n in nums]))
        return hit

    def base_filtration(self) -> "Filtration":
        if self._base_filtration is None:
            self._base_filtration = Filtration(self, [
                [(n.id, n.leaves(), n.mass) for n in self.nodes_at[t]]
                for t in range(self.horizon + 1)])
        return self._base_filtration

    def meet(self, a: Partition, b: Partition) -> Partition:
        """Coarsest common refinement of two of this tree's partitions,
        memoized per pair: a or b when that one refines the other, else unlabelled."""
        if a is b:
            return a
        hit = self._meets.get((a, b)) or self._meets.get((b, a))
        if hit is None:
            cells = _meet_cells(a.block_of, b.block_of)
            hit = (a if len(cells) == len(a.atoms) else b if len(cells) == len(b.atoms)
                   else Partition(self, _blocks(self, cells, labelled=False)))
            self._meets[(a, b)] = hit
        return hit

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
    horizon = _whole(spec["horizon"], "horizon")
    node_specs = [(str(n["id"]), _whole(n["time"], f"time of node {n['id']!r}"),
                   n.get("parent"), n.get("prob"))
                  for n in spec["nodes"]]
    return FilteredTree(horizon, node_specs)


def _whole(value, what) -> int:
    """An int, or a string holding one: a bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


class Filtration:
    """A time-indexed sequence of leaf partitions, finest at the horizon."""

    def __init__(self, tree: FilteredTree, partitions):
        self.tree = tree
        self.parts = tuple(Partition(tree, blocks) for blocks in partitions)

    def partition(self, t: int) -> Partition:
        if not 0 <= t <= self.tree.horizon:
            raise TimeOutOfRange(f"time {t} outside 0..{self.tree.horizon}")
        return self.parts[t]

    def atoms(self, t: int) -> tuple[Atom, ...]:
        return self.partition(t).atoms

    def atom_labelled(self, t: int, label: str) -> Atom:
        """The time-t atom with the given label, found by a scan of the
        time-t partition; KeyError when it holds none."""
        for atom in self.parts[t].atoms if 0 <= t < len(self.parts) else ():
            if atom.label == label:
                return atom
        raise KeyError((t, label))

    def conditioning_atom_of(self, t: int, leaf: int) -> Atom:
        part = self.partition(t - 1 if t >= 1 else 0)
        return part.atoms[part.block_of[leaf]]


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


def _meet_cells(first, second):
    """Cells of the common refinement of two block-of-leaf tables, each a
    sorted leaf tuple, in first-leaf order."""
    cells = {}
    for leaf, key in enumerate(zip(first, second)):
        cells.setdefault(key, []).append(leaf)
    return [tuple(cell) for cell in cells.values()]


def _blocks(tree: FilteredTree, cells, labelled=True):
    """(label, leaves, mass) for each cell, its mass the sum of its leaves'
    int masses; its label is None unless labelled."""
    masses = tree.leaf_mass
    return [(_atom_label(tree, cell) if labelled else None, cell,
             sum(masses[i] for i in cell)) for cell in cells]


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
        prev_of = [0] * tree.n_leaves  # each leaf's time-(t-1) cell
        base = tree.base_filtration()
        for t in range(tree.horizon + 1):
            base_of = base.parts[t].block_of
            if t in given:
                cells = given[t]
                self._check_partition(cells, tree.n_leaves, t)
                for cell in cells:
                    if len({base_of[i] for i in cell}) > 1:
                        raise NotARefinement(
                            f"cell {cell} at time {t} is not inside a base atom")
                for cell in cells:
                    if len({prev_of[i] for i in cell}) > 1:
                        raise NotMonotone(
                            f"cell {cell} at time {t} splits across time-{t-1} cells")
            else:
                # the coarsest completion: the meet of base_t and G_{t-1}
                cells = _meet_cells(base_of, prev_of)
            cells = tuple(sorted(cells, key=lambda c: c[0]))
            self.partitions.append(cells)
            for k, cell in enumerate(cells):
                for leaf in cell:
                    prev_of[leaf] = k
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
            self._filtration = Filtration(
                self.tree, [_blocks(self.tree, cells) for cells in self.partitions])
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


def _flow_on(tree: FilteredTree, obj) -> Filtration:
    """obj as a filtration of tree, else DimensionMismatch."""
    filtration = as_filtration(obj)
    if filtration.tree is not tree:
        raise DimensionMismatch("flow built on another tree")
    return filtration


def _means(atoms, part: Partition, den, nums):
    """The kernel: the mean table on atoms, all of one partition, of X
    holding nums[k], int numerators over den, on block k of part; nums need
    only hold the blocks meeting the atoms. One cell (den * weight, sums)
    per atom, its mean sums / (den * weight): each block meeting the atom is
    weighed by the int mass of the intersection, and weight is the atom's
    mass, or 1 when one block holds it. The atom index is read once a call."""
    table = part.pieces_table(atoms[0].partition)
    cells = []
    for atom in atoms:
        pieces = table[atom.index]
        if len(pieces) == 1:
            cells.append((den, nums[pieces[0][0]]))
        else:
            masses = [m for _, m in pieces]
            cols = zip(*[nums[k] for k, _ in pieces])
            cells.append((den * atom.mass,
                          tuple([sum(map(mul, masses, col)) for col in cols])))
    return cells


def conditional_expectation_leafwise(x, t, filtration_like):
    """E[x | F_t] as a leaf-indexed list, for a leaf-indexed rational vector x."""
    filtration = as_filtration(filtration_like)
    tree = filtration.tree
    row = [(to_fraction(v),) for v in x]
    if len(row) != tree.n_leaves:
        raise TimeOutOfRange(
            f"expected {tree.n_leaves} leaf values, got {len(row)}")
    den, nums = over_common_denominator(row)
    leaves = tree.base_filtration().parts[-1]
    part = filtration.partition(t)
    means = [Fraction(total, scale)
             for scale, (total,) in _means(part.atoms, leaves, den, nums)]
    return [means[k] for k in part.block_of]


def conditional_expectation(x, t, filtration_like):
    """E[x | F_t] keyed by atom label."""
    filtration = as_filtration(filtration_like)
    leafwise = conditional_expectation_leafwise(x, t, filtration)
    return {atom.label: leafwise[atom.leaves[0]] for atom in filtration.atoms(t)}


def _time_value(v) -> int:
    """A stopping-time value: an int, or a Fraction with denominator 1."""
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool) and v == int(v):
        return int(v)
    raise NotAStoppingTime(f"value {v!r} is not an integer time")


class StoppingTime:
    """Leaf-indexed time with horizon+1 standing for infinity.

    The defining measurability, {tau = t} a union of time-t nodes, is checked
    on construction. On these trees every stopping time is accessible;
    whether it is predictable ({tau = t} already known at t-1) is a separate
    query.
    """

    def __init__(self, tree: FilteredTree, values):
        self.tree = tree
        self.infinity = tree.horizon + 1
        vals = tuple(map(_time_value, values))
        if len(vals) != tree.n_leaves:
            raise NotAStoppingTime(
                f"expected {tree.n_leaves} leaf values, got {len(vals)}")
        self.values = tuple(map(self._in_range, vals))
        cut = self._cut_node(0)
        if cut is not None:
            raise NotAStoppingTime(
                f"{{tau = {cut[0]}}} cuts through node {cut[1].id}")

    @classmethod
    def constant(cls, tree, t):
        """t on every leaf. A constant time cuts no node and is predictable,
        so only t itself is checked."""
        self = cls.__new__(cls)
        self.tree = tree
        self.infinity = tree.horizon + 1
        self.values = (self._in_range(_time_value(t)),) * tree.n_leaves
        return self

    def _in_range(self, v):
        if not 0 <= v <= self.infinity:
            raise NotAStoppingTime(f"value {v} outside 0..{self.infinity}")
        return v

    def _cut_node(self, lag):
        """The first (t, node) where {tau = t} cuts through node, the
        time-(t - lag) node of a leaf with tau = t <= horizon (the root when
        t - lag < 0), or None. One walk over the leaves: a node that holds
        tau = t throughout is skipped whole."""
        tree, vals = self.tree, self.values
        leaf = 0
        while leaf < tree.n_leaves:
            t = vals[leaf]
            if t > tree.horizon:
                leaf += 1
                continue
            node = tree.node_at(max(t - lag, 0), leaf)
            if any(v != t for v in vals[node.leaf_lo:node.leaf_hi]):
                return t, node
            leaf = node.leaf_hi
        return None

    def is_predictable(self) -> bool:
        """True when {tau = t} is F_{t-1}-measurable for every t >= 1 and
        {tau = 0} is trivial."""
        return self._cut_node(1) is None

    def graph_at(self, t: int):
        """Leaves with tau exactly t."""
        return tuple(i for i, v in enumerate(self.values) if v == t)


def random_tree(seed: int, horizon: int = 2, max_branching: int = 3) -> FilteredTree:
    """Deterministic random tree: branching in 1..max_branching, branch
    probabilities with small denominators, ids spelling the path from the root."""
    if horizon < 1:
        raise TimeOutOfRange("random_tree needs horizon >= 1")
    if not 1 <= max_branching <= 8:  # child ids are the letters a..h
        raise ParseError(f"random_tree needs max_branching in 1..8, got {max_branching}")
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
        weights = [rng.randint(1, 8) for _ in range(n_children)]
        total = sum(weights)
        stack.extend(reversed([
            (node_id + "abcdefgh"[k], time + 1, node_id, Fraction(weights[k], total))
            for k in range(n_children)]))
    return FilteredTree(horizon, specs)

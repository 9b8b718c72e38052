"""Martingale representation on trees: rank checks, coefficients, and the
reconstruction of a representation family from partition data.

At a node with m successors the mean-zero functions on those successors form
an (m-1)-dimensional space; a d-dimensional martingale represents every
martingale exactly when its increment vectors span that space at every node.
The rank test and the solves read the increments' int numerators, and the
successor-class witnesses hold their classes' int masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .calculus import Process, jump_measure
from .constraint import ConstraintSystem, constraint_martingales, detect_fpcc
from .errors import (
    ConstraintMismatch,
    DanglingNode,
    DegeneratePartition,
    DimensionMismatch,
    NoRepresentation,
    NotMeasurable,
    NotPredictable,
    TimeOutOfRange,
)
from .linalg import _eliminate_with_identity, null_space, rank
from .rationals import as_fractions, over_common_denominator, to_fraction
from .tree import FilteredTree, StoppingTime, _means


@dataclass(frozen=True)
class MrpReport:
    """Per-node rank audit of a candidate representation basis."""
    holds: bool
    dim: int
    ranks: dict
    failing_atom: str | None
    counterexample: tuple | None

    def require(self) -> None:
        """Raise NoRepresentation when the rank test failed."""
        if not self.holds:
            raise NoRepresentation(
                "basis lacks the representation property",
                atom=self.failing_atom, witness=self.counterexample)


@dataclass(frozen=True)
class PartitionWitness:
    """Ordered successor classes of one conditioning atom.

    time is the successor side: the classes are time-`time` atoms inside the
    atom at time-1, named by node id in subatoms. Classes are ordered by
    descending conditional probability, ties by first leaf id; padding
    classes are empty, of id None and mass 0. Masses are ints over the leaf
    denominator; probs, the conditional probabilities, is their Fraction
    view, built when read.
    """
    time: int
    atom: str
    subatoms: tuple
    mass: int
    masses: tuple

    @property
    def probs(self) -> tuple:
        return tuple([Fraction(m, self.mass) for m in self.masses])


def check_mrp(w: Process) -> MrpReport:
    """Rank test: increments must span each node's mean-zero space.

    Ranks Delta W_t's int numerators on each node's children. The first
    failing node also yields an unrepresentable mean-zero vector: the null
    space of those rows stacked with the children's masses, as coprime ints.
    """
    tree = w.tree
    w.require_martingale(tree, what="candidate basis")
    ranks = {}
    failing = None
    counterexample = None
    for t in range(1, tree.horizon + 1):
        part, _, incs = w._delta(t)
        for node in tree.nodes_at[t - 1]:
            children = node.children
            m = len(children)
            matrix = list(zip(
                *[incs[part.block_of[child.leaf_lo]] for child in children]))
            r = rank(matrix) if matrix else 0
            ranks[node.id] = (m, r)
            if r < m - 1 and failing is None:
                failing = node.id
                basis = null_space(matrix + [[child.mass for child in children]])
                counterexample = tuple(basis[0])
    return MrpReport(holds=failing is None, dim=w.dim, ranks=ranks,
                     failing_atom=failing, counterexample=counterexample)


def representation_coefficient(x: Process, w: Process) -> Process:
    """Predictable H with (H . W) = X - X_0, least-index per atom."""
    _require_scalar(x)
    _require_representable(x, w)
    nodes = w.tree.nodes

    def cell(t, atom):
        node, den, (rhs,) = _targets_at(x, t, nodes[atom.label])
        return _solve_at(w, t, node, den, rhs)

    return Process._predictable(w.tree.base_filtration(), w.dim, cell)


def _targets_at(x: Process, t: int, node):
    """(node, den, one rhs per component of x: its Delta X_t numerators on
    the node's children)."""
    part, den, incs = x._delta(t)
    return node, den, list(zip(*[incs[part.block_of[c.leaf_lo]]
                                 for c in node.children]))


def _require_scalar(x: Process):
    if x.dim != 1:
        raise DimensionMismatch("representation targets are scalar processes")


def _require_representable(x: Process, w: Process, basis=None):
    """representation_coefficient's checks, in its order, without solving,
    for every component of x at once: shapes, martingales, then each node's
    span test, the node's null rows read once for all components. With
    basis, a ReconstructedBasis of w, w's martingale test runs once per
    basis."""
    tree = w.tree
    if x.tree is not tree:
        raise DimensionMismatch("target and basis on different trees")
    if basis is None:
        w.require_martingale(tree, what="basis")
    else:
        basis._derived("martingale",
                       lambda: w.require_martingale(tree, what="basis"))
    x.require_martingale(tree, what="target")
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t - 1]:
            _span_test(w, t, *_targets_at(x, t, node), "target increment")


def _solver_at(w: Process, t: int, node):
    """[Delta W_t on the node's children | I], reduced on the int rows and
    kept on w, once per distinct matrix of rows: nodes whose children step
    by the same numerators share one reduction. Per (t, node), kept too:
    (Delta W_t's denominator, (column, identity block) of each row pivoting
    in the Delta W block, the identity blocks of the other rows, det)."""
    if w._solvers is None:
        w._solvers = {}, {}  # by (t, node id); by int rows
    by_node, by_rows = w._solvers
    key = (t, node.id)
    hit = by_node.get(key)
    if hit is None:
        part, den, incs = w._delta(t)
        rows = tuple([incs[part.block_of[child.leaf_lo]] for child in node.children])
        reduction = by_rows.get(rows)
        if reduction is None:
            reduced, pivots, det = _eliminate_with_identity(rows)
            reduction = by_rows[rows] = (
                [(c, row[w.dim:]) for row, c in zip(reduced, pivots) if c < w.dim],
                [row[w.dim:] for row, c in zip(reduced, pivots) if c >= w.dim],
                det)
        hit = by_node[key] = (den, *reduction)
    return hit


def _span_test(w: Process, t: int, node, den, rhss, what: str):
    """NoRepresentation unless each rhs / den of rhss on the node's
    children is in the span of Delta W_t there, that is, every null row
    annihilates it; the null rows are read once for all of rhss."""
    nulls = _solver_at(w, t, node)[2]
    for rhs in rhss:
        if any(sum(map(mul, block, rhs)) for block in nulls):
            raise NoRepresentation(f"{what} outside the basis span", time=t,
                                   atom=node.id, witness=as_fractions(den, rhs))


def _solve_at(w: Process, t: int, node, den, rhs):
    """Least-index h with <h, Delta W_t> = rhs / den on the node's
    children, for rhs that passed _span_test, as int numerators (den', nums)
    over den' = |det| * den."""
    scale, solved, _, det = _solver_at(w, t, node)
    sign = 1 if det > 0 else -1
    h = [0] * w.dim
    for c, block in solved:
        h[c] = sign * scale * sum(map(mul, block, rhs))
    return abs(det) * den, tuple(h)


def conditional_multiplicity(tree: FilteredTree, t: int, atom_label: str,
                             d: int | None = None):
    """Successor-class count of one atom, with its ordered witness.

    With d given, the witness pads to d + 1 classes; the count itself is
    always the number of nonempty classes.
    """
    if not 1 <= t <= tree.horizon:
        raise TimeOutOfRange(f"time {t} outside 1..{tree.horizon}")
    node = tree.nodes.get(atom_label)
    if node is None or node.time != t - 1:
        raise DanglingNode(f"no atom {atom_label!r} at time {t - 1}")
    # siblings share the parent's mass, so this is (-branch_prob, id)
    children = sorted(node.children, key=lambda c: (-c.mass, c.id))
    count = len(children)
    width = count if d is None else d + 1
    if width < count:
        raise DimensionMismatch(
            f"{count} successor classes do not fit in {width} slots")
    pad = width - count
    return count, PartitionWitness(
        time=t, atom=atom_label,
        subatoms=tuple(child.id for child in children) + (None,) * pad,
        mass=node.mass,
        masses=tuple(child.mass for child in children) + (0,) * pad)


def single_jump_coefficient(xi, r: StoppingTime, w: Process) -> Process:
    """H supported on the graph of a predictable time with
    (H . W) jump at r equal to xi - E[xi | F_{r-}].

    xi is a terminal payoff vector (one rational per leaf), measurable at
    the time r reaches; the coefficient vanishes off the graph of r.
    """
    tree = w.tree
    if r.tree is not tree:
        raise DimensionMismatch("stopping time and basis on different trees")
    if not r.is_predictable():
        raise NotPredictable("single-jump coefficients need a predictable time")
    w.require_martingale(tree, what="basis")
    values = [to_fraction(v) for v in xi]
    if len(values) != tree.n_leaves:
        raise DimensionMismatch(
            f"expected {tree.n_leaves} payoff values, got {len(values)}")
    # measurability at the reached time: constant on each atom of that time
    for t in range(tree.horizon + 1):
        for node in tree.nodes_at[t]:
            if (r.values[node.leaf_lo] == t
                    and len({values[i] for i in node.leaves()}) > 1):
                raise NotMeasurable(
                    f"payoff not settled at time {t} on atom {node.id}")

    vden, vnums = over_common_denominator([(v,) for v in values])
    leaves = tree.base_filtration().parts[-1]
    zero = (1, (0,) * w.dim)

    def coefficient(t, atom):
        if r.values[atom.leaves[0]] != t:
            return zero
        # the payoff on each child minus its mean total / scale
        ((scale, (total,)),) = _means([atom], leaves, vden, vnums)
        node = tree.nodes[atom.label]
        rhs = [vnums[child.leaf_lo][0] * (scale // vden) - total
               for child in node.children]
        _span_test(w, t, node, scale, [rhs], "centered payoff")
        return _solve_at(w, t, node, scale, rhs)

    return Process._predictable(tree.base_filtration(), w.dim, coefficient)


@dataclass(frozen=True)
class ReconstructedBasis:
    """The (d+1)-dimensional successor-indicator family with its witnesses.

    What the enlargement checks derive from the basis alone is built once
    per basis, on first use, and kept on it: the (time, atom) index of the
    witnesses, the kernel check's covariance frame of each time and one-step
    law and its test that the increments centre the charged classes, the
    drift multiplier's orthogonal frames, N and the base-flow brackets
    [N, X2_h]^p (their conditional increments on each base node), and the
    basis's martingale test. Those memos die with the basis.
    """
    process: Process
    witnesses: tuple
    d: int

    @cached_property
    def _by_slot(self):
        return {(wit.time, wit.atom): wit for wit in self.witnesses}

    @cached_property
    def _memos(self):
        return {}

    def _witness(self, time: int, atom_label: str) -> PartitionWitness:
        """The witness of the time-(time-1) atom's successor classes."""
        wit = self._by_slot.get((time, atom_label))
        if wit is None:
            raise DegeneratePartition(
                f"no slot at time {time}, atom {atom_label}")
        return wit

    def _derived(self, key, build):
        """build(), computed once per key for this basis; the key names
        what is built from the basis alone."""
        if key not in self._memos:
            self._memos[key] = build()
        return self._memos[key]


def reconstruct_accessible(w: Process) -> ReconstructedBasis:
    """Build the compensated successor-indicator family, weight 1/2^t.

    Component h jumps by (1/2^t)(1 - p_h) on the h-th successor class and by
    -(1/2^t) p_h elsewhere under the same atom; empty padding classes give
    identically zero components on their slots.
    """
    check_mrp(w).require()
    return _reconstruct(w)


def _reconstruct(w: Process) -> ReconstructedBasis:
    """reconstruct_accessible for a basis whose rank report has passed."""
    tree = w.tree
    d = w.dim
    base = tree.base_filtration()
    witnesses = []

    def classes_at(t):
        rank_of = {}  # each time-t node's successor rank under its parent
        for node in tree.nodes_at[t - 1]:
            count, witness = conditional_multiplicity(tree, t, node.id, d=d)
            witnesses.append(witness)
            rank_of.update(zip(witness.subatoms[:count], range(count)))
        return (base.parts[t], [rank_of[node.id] for node in tree.nodes_at[t]],
                [(2 ** t, (1,) * (d + 1))] * len(tree.nodes_at[t - 1]))

    process = Process._compensated_classes(base, d + 1, classes_at)
    return ReconstructedBasis(process=process, witnesses=tuple(witnesses), d=d)


def orthogonalize(m: Process) -> Process:
    """Split a process's jumps into per-location compensated indicators.

    Components never share a jump node; integrands against m translate
    through translate_integrand.
    """
    mu = jump_measure(m)
    return constraint_martingales(mu, detect_fpcc(mu))


def translate_integrand(h: Process, m: Process) -> Process:
    """Map an integrand against m to one against orthogonalize(m).

    The k-th output is <h, alpha_k> / gauge(alpha_k) on nonempty slots, so
    (h . m) minus its compensator part equals the translated dot integral
    against the orthogonal family wherever m is a martingale.
    """
    mu = jump_measure(m)
    cs = detect_fpcc(mu)
    if h.dim != m.dim:
        raise DimensionMismatch(f"integrand dim {h.dim}, process dim {m.dim}")
    if not h.is_predictable(cs.filtration):
        raise NotPredictable("integrand is not predictable")

    def coefficient(t, atom, loc):
        # <h, alpha> from h's int slice and the location's cell
        cell = h.nums[t][h.parts[t].block_of[atom.leaves[0]]]
        den, alpha = loc
        return sum(map(mul, cell, alpha)), h.dens[t] * den

    return cs.integrand(coefficient)


def jump_constraint(w: Process) -> ConstraintSystem:
    """Constraint system of the basis's own jumps, with the slot-count bound.

    Under the representation property every conditioning atom has at most
    d + 1 successors, so no menu can exceed d + 1 entries.
    """
    check_mrp(w).require()
    return menu_bound(detect_fpcc(jump_measure(w)), w.dim)


def menu_bound(cs: ConstraintSystem, d: int) -> ConstraintSystem:
    """cs, or ConstraintMismatch when a menu has more than d + 1 entries."""
    for key, (ids, _) in cs._menus.items():
        filled = sum(1 for loc in ids if loc is not None)
        if filled > d + 1:
            raise ConstraintMismatch(
                f"menu at {key} has {filled} entries, bound {d + 1}")
    return cs

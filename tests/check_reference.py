"""The rank test, the compensator scan and the location pool on Fractions,
as the library had them.

Test-only reference. check_mrp ranked each node's increments read through
Process.increment, one Fraction per (component, child), and took the
counterexample from the null space of those rows stacked with the branch
probabilities. compensator_scan built both compensators as processes, for
the base flow and for the larger one, and compared their increments. The
tree's location pool was keyed by Fraction vectors (interned_ids), and each
menu gauge was taken from the vector (gauge). The library now works on
Delta W's and Delta A's int slices and pools each location by its int
cell; test_check_reference holds it to these functions on the fuzz corpus.
"""

from __future__ import annotations

from filtration_lab.calculus import Process, dual_predictable_projection
from filtration_lab.errors import DimensionMismatch, NotIncreasing
from filtration_lab.linalg import null_space, rank
from filtration_lab.rationals import over_lcm
from filtration_lab.representation import MrpReport
from filtration_lab.tree import as_filtration


def _increment_matrix(w: Process, t: int, children):
    return [list(row) for row in
            zip(*(w.increment(t, child.leaf_lo) for child in children))]


def check_mrp(w: Process) -> MrpReport:
    """Rank test: increments must span each node's mean-zero space."""
    tree = w.tree
    w.require_martingale(tree, what="candidate basis")
    ranks = {}
    failing = None
    counterexample = None
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t - 1]:
            children = node.children
            m = len(children)
            matrix = _increment_matrix(w, t, children)
            r = rank(matrix) if matrix else 0
            ranks[node.id] = (m, r)
            if r < m - 1 and failing is None:
                failing = node.id
                probs = [child.branch_prob for child in children]
                basis = null_space(matrix + [probs])
                counterexample = tuple(basis[0])
    return MrpReport(holds=failing is None, dim=w.dim, ranks=ranks,
                     failing_atom=failing, counterexample=counterexample)


def compensator_scan(a: Process, enlargement_like):
    """Null base-flow compensator increments stay null under the larger flow:
    (True, None) or (False, (time, base atom, larger atom))."""
    if a.dim != 1:
        raise DimensionMismatch("compensator scan takes scalar processes")
    filtration = as_filtration(enlargement_like)
    tree = a.tree
    for t in range(1, tree.horizon + 1):
        if any(inc[0] < 0 for inc in a._delta(t)[2]):
            raise NotIncreasing(f"decrement at time {t}")
    base = tree.base_filtration()
    fine = dual_predictable_projection(a, filtration)
    coarse = dual_predictable_projection(a, base)
    for t in range(1, tree.horizon + 1):
        subs = filtration.parts[t - 1]
        for atom in base.atoms(t - 1):
            if coarse.increment(t, atom.leaves[0])[0] != 0:
                continue
            for sub in [subs.atoms[k] for k, _ in subs.pieces(atom)]:
                if fine.increment(t, sub.leaves[0])[0] != 0:
                    return False, (t, atom.label, sub.label)
    return True, None


def interned_ids(pool, vectors):
    """The id of each vector in a pool keyed by Fraction vectors, holding
    pool's vectors first and interning the new ones in order."""
    ids = {vector: k for k, vector in enumerate(pool)}
    return [ids.setdefault(vector, len(ids)) for vector in vectors]


def gauge(vector):
    """The slot gauge of a Fraction location vector, as the int ratio (num,
    den) over the lcm of its denominators."""
    den, nums = over_lcm([c.as_integer_ratio() for c in vector])
    return min(sum(map(abs, nums)), den), den

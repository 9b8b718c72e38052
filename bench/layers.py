"""Traced walk over the library's layers, one scenario at a time.

After a traced pass has run the checks, the walk calls each module's public
functions with the arguments the checks use, every call through the tracer
so it records one span named after the layer metric it feeds. The walk
builds its own tree, flows and processes from the scenario's exports, so
lazy caches are cold as they are for a fresh command-line run. Counts are
exact and depend only on the scenario.

While the walk runs, `library_linalg_spans` routes the library's own calls
to linalg's solvers through the tracer too, so the linear algebra that
check_mrp, covariance_kernel or solve_drift_multiplier do inside lands in
the linalg layer rather than in the caller's.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

import filtration_lab.linalg as linalg_module

from filtration_lab.calculus import (
    Process,
    compensate_measure,
    dot_integral,
    dual_predictable_projection,
    jump_measure,
    predictable_bracket,
    star_integral,
)
from filtration_lab.constraint import (
    accessible_star_to_dot,
    detect_fpcc,
    expand_integrand,
    slot_events_disjoint,
    star_to_dot,
    value_slots_from_measure,
)
from filtration_lab.enlargement import (
    check_compensator_abs_continuity,
    covariance_kernel,
    drift_operator,
    find_deflator,
    g_star_consistency,
    solve_drift_multiplier,
    verify_drift_multiplier,
    verify_fbd,
)
from filtration_lab.fuzz import (
    random_increasing,
    random_jump_function,
    random_representable,
    rng_for,
)
from filtration_lab.linalg import gram_schmidt, null_space, rank, solve
from filtration_lab.representation import (
    check_mrp,
    jump_constraint,
    orthogonalize,
    reconstruct_accessible,
    representation_coefficient,
)
from filtration_lab.scenario import canonical_json, dumps, loads, scenario_hash
from filtration_lab.tree import build_tree, enlarge

import gate

ZERO = Fraction(0)
ONE = Fraction(1)


def _conditioning_atoms(filtration, horizon) -> int:
    return sum(len(filtration.atoms(t - 1)) for t in range(1, horizon + 1))


def _jump_counter(tree, w) -> Process:
    """Cumulative count of the driver's jump nodes, as the consistency check
    builds it."""
    values = {tree.root.id: ZERO}
    for t in range(1, tree.horizon + 1):
        for node in tree.nodes_at[t]:
            jumped = any(c != 0 for c in w.increment(t, node.leaf_lo))
            values[node.id] = values[node.parent.id] + (1 if jumped else 0)
    return Process.from_node_values(tree, values, dim=1)


def _note_matrix(counts, matrix) -> None:
    cols = len(matrix[0]) if matrix else 0
    counts["linalg.matrices"] += 1
    counts["linalg.entries"] += len(matrix) * cols
    counts["linalg.max_cols"] = max(counts["linalg.max_cols"], cols)


# public linalg functions the library calls from other modules, and the
# span each call is recorded under; the solvers' matrices are counted too
LIBRARY_SOLVERS = {
    "rank": "linalg.rank",
    "null_space": "linalg.null_space",
    "solve": "linalg.solve",
    "invert": "linalg.solve",
    "right_inverse": "linalg.solve",
    "gram_schmidt": "linalg.gram_schmidt",
}
LIBRARY_PRODUCTS = ("dot", "mat_mul", "transpose")


@contextmanager
def library_linalg_spans(tr, counts):
    """Within the block, every module of the package that bound one of these
    functions at import calls a traced stand-in; the originals are put back
    on exit."""
    stand_ins = {name: (span, True) for name, span in LIBRARY_SOLVERS.items()}
    stand_ins.update((name, ("linalg.product", False))
                     for name in LIBRARY_PRODUCTS)
    swapped = []
    for module_name, module in list(sys.modules.items()):
        if (not module_name.startswith("filtration_lab.")
                or module is linalg_module):
            continue
        for attr, (span_name, counted) in stand_ins.items():
            fn = getattr(linalg_module, attr, None)
            if fn is not None and getattr(module, attr, None) is fn:
                setattr(module, attr,
                        _traced(tr, counts if counted else None, span_name, fn))
                swapped.append((module, attr, fn))
    try:
        yield
    finally:
        for module, attr, fn in swapped:
            setattr(module, attr, fn)


def _traced(tr, counts, span_name, fn):
    def stand_in(first, *args, **kwargs):
        if counts is not None:
            _note_matrix(counts, first)
        return tr.call(span_name, fn, first, *args, **kwargs)
    return stand_in


def walk(tr, scenario, seed, rows, counts) -> None:
    """Walk every layer for one scenario; `rows` are its check rows."""
    # scenario
    text = tr.call("scenario.hash", dumps, scenario)
    tr.call("scenario.hash", scenario_hash, scenario)
    counts["scenario.bytes"] += len(text.encode("utf-8"))
    tr.call("scenario.load", loads, text)

    # tree
    tree = tr.call("tree.build", build_tree, scenario.tree.to_spec())
    base = tr.call("tree.filtration", tree.base_filtration)
    flows = []
    for name, given in sorted(scenario.enlargements.items()):
        enl = tr.call("tree.build", enlarge, tree, given.to_spec(), name=name)
        flows.append((name, enl, tr.call("tree.filtration", enl.filtration)))
    horizon = tree.horizon
    counts["tree.nodes"] += len(tree.nodes)
    counts["tree.leaves"] += tree.n_leaves
    counts["tree.atoms"] += sum(len(f.atoms(t))
                                for f in [base] + [f for _, _, f in flows]
                                for t in range(horizon + 1))

    # processes on the walk's own tree
    def rebuild(process):
        return tr.call("calculus.process", Process.from_node_values, tree,
                       process.node_values())

    w = rebuild(scenario.basis_process())
    prices = [(name, rebuild(p)) for name, p in scenario.family_processes()]
    components = tr.call("calculus.process", w.components)

    # check inputs, drawn as the checks draw them
    def draw(fn, *args):
        return tr.call("fuzz.generate", fn, *args)

    mu = tr.call("calculus.jump_measure", jump_measure, w)
    counts["calculus.atoms_visited"] += sum(len(base.atoms(t))
                                            for t in range(1, horizon + 1))
    star_gs = [draw(random_jump_function, mu, tree,
                    rng_for(seed, "star-to-dot", str(j))) for j in range(5)]
    inputs = {}
    for name, _, _ in flows:
        inputs[name] = {
            "xs": [draw(random_representable, w,
                        rng_for(seed, "multiplier", name, str(j)))
                   for j in range(3)],
            "gs": [draw(random_jump_function, mu, tree,
                        rng_for(seed, "consistency", name, str(j)))
                   for j in range(3)],
            "extra": draw(random_increasing, tree,
                          rng_for(seed, "consistency", name)),
        }

    # calculus
    for filtration in [base] + [f for _, _, f in flows]:
        table = tr.call("calculus.compensator", compensate_measure, mu,
                        filtration)
        counts["calculus.atoms_visited"] += _conditioning_atoms(filtration,
                                                                horizon)
        counts["calculus.compensator_entries"] += sum(
            len(table.charged(t, atom.label))
            for t in range(1, horizon + 1)
            for atom in filtration.atoms(t - 1))
    for name, enl, filtration in flows:
        visits = _conditioning_atoms(filtration, horizon)
        for component in components:
            tr.call("calculus.projection", dual_predictable_projection,
                    component, enl)
            counts["calculus.atoms_visited"] += visits
        for g in inputs[name]["gs"]:
            tr.call("calculus.star_integral", star_integral, g, mu, enl)
            tr.call("calculus.star_integral", star_integral, g, mu, base)
            counts["calculus.atoms_visited"] += visits + _conditioning_atoms(
                base, horizon)

    # representation
    report = tr.call("representation.check_mrp", check_mrp, w)
    counts["representation.rank_tests"] += len(report.ranks)
    tr.call("representation.check_mrp", jump_constraint, w)
    rebuilt = tr.call("representation.reconstruct", reconstruct_accessible, w)
    counts["representation.witnesses"] += len(rebuilt.witnesses)
    orthogonal = tr.call("representation.reconstruct", orthogonalize, w)
    combined = tr.call("calculus.process", Process.stack,
                       [rebuilt.process, orthogonal])
    joint = tr.call("representation.check_mrp", check_mrp, combined)
    counts["representation.rank_tests"] += len(joint.ranks)
    for name, _, _ in flows:
        for x in inputs[name]["xs"]:
            tr.call("representation.coefficient", representation_coefficient,
                    x, w)

    # constraint
    cs = tr.call("constraint.detect_fpcc", detect_fpcc, mu)
    tr.call("constraint.detect_fpcc", slot_events_disjoint, mu, cs)
    counts["constraint.slots"] += sum(
        sum(value is not None for value in cs.slot_values(t, atom.label))
        for t in range(1, horizon + 1) for atom in base.atoms(t - 1))
    slots = tr.call("constraint.accessible", value_slots_from_measure, mu)
    for g in star_gs:
        h, _ = tr.call("constraint.star_to_dot", star_to_dot, g, mu, cs)
        expanded = tr.call("constraint.star_to_dot", expand_integrand, h, mu,
                           cs)
        tr.call("calculus.star_integral", star_integral, expanded, mu, base)
        counts["calculus.atoms_visited"] += _conditioning_atoms(base, horizon)
        tr.call("constraint.accessible", accessible_star_to_dot, g, mu, slots)

    # enlargement, with the multiplier identity's brackets and integrals
    counter = tr.call("calculus.process", _jump_counter, tree, w)
    for name, enl, filtration in flows:
        for component in components:
            tr.call("enlargement.drift", drift_operator, component, enl)
        solution = tr.call("enlargement.multiplier", solve_drift_multiplier,
                           enl, rebuilt)
        for x in inputs[name]["xs"]:
            tr.call("enlargement.verify_multiplier", verify_drift_multiplier,
                    solution, x, enl)
        for _, price in prices:
            search = tr.call("enlargement.deflator", find_deflator, price, enl)
            counts["enlargement.deflator_atoms"] += len(search.audit)
            counts["enlargement.deflator_feasible"] += (
                len(search.audit) - len(search.violations))
            if search.feasible:
                tr.call("enlargement.deflator", verify_fbd, price,
                        search.deflator, enl)
        for witness in rebuilt.witnesses:
            tr.call("enlargement.kernel", covariance_kernel, enl, rebuilt,
                    witness.time, witness.atom)
        tr.call("enlargement.consistency", check_compensator_abs_continuity,
                counter, enl)
        tr.call("enlargement.consistency", check_compensator_abs_continuity,
                inputs[name]["extra"], enl)
        for g in inputs[name]["gs"]:
            tr.call("enlargement.consistency", g_star_consistency, g, mu, enl)

        n_parts = tr.call("calculus.process", solution.n.components)
        visits = _conditioning_atoms(base, horizon)
        for x in tr.call("calculus.process", rebuilt.process.components):
            brackets = [tr.call("calculus.bracket", predictable_bracket, n, x,
                                base) for n in n_parts]
            counts["calculus.atoms_visited"] += visits * len(n_parts)
            stacked = tr.call("calculus.process", Process.stack, brackets)
            tr.call("calculus.dot_integral", dot_integral, solution.phi,
                    stacked, enl)
            counts["calculus.atoms_visited"] += _conditioning_atoms(
                filtration, horizon)

    # linalg, on the per-node matrices the checks form
    probs = {(wit.time, wit.atom): list(wit.probs) for wit in rebuilt.witnesses}
    price = prices[0][1] if prices else None
    width = rebuilt.d + 1
    units = [[ONE if j == h else ZERO for j in range(width)]
             for h in range(width)]
    for t in range(1, horizon + 1):
        for node in tree.nodes_at[t - 1]:
            children = node.children
            incs = [w.increment(t, child.leaf_lo) for child in children]
            matrix = [[inc[j] for inc in incs] for j in range(w.dim)]
            tr.call("linalg.rank", rank, matrix)
            _note_matrix(counts, matrix)
            stacked = matrix + [[child.branch_prob for child in children]]
            tr.call("linalg.null_space", null_space, stacked)
            _note_matrix(counts, stacked)
            if price is not None:
                system = [list(inc) for inc in incs]
                rhs = [price.increment(t, child.leaf_lo)[0]
                       for child in children]
                tr.call("linalg.solve", solve, system, rhs)
                _note_matrix(counts, system)
            vectors = [probs[(t, node.id)], *units]
            tr.call("linalg.gram_schmidt", gram_schmidt, vectors)
            _note_matrix(counts, vectors)

    # cli
    report = tr.call("cli.render", canonical_json, rows)
    counts["cli.report_bytes"] += len(report.encode("utf-8"))
    counts["cli.max_bits"] = max(counts["cli.max_bits"], gate.max_bits(rows))

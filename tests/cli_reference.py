"""The fuzz shrinker as the command line tool had it.

Test-only reference: `_truncate_scenario` and `minimize_failure` below are
verbatim copies of the shrinker that edited Scenario objects, rebuilding a
FilteredTree from node specs, mapping every enlargement cell onto the new
leaves with its own survival test and slicing each process's node table.
The library now shrinks the scenario's JSON document and lets
parse_scenario judge each candidate; test_shrinker holds its reproducers
to the ones these functions give, byte for byte.

`json_safe` is the report walk as the tool had it before it dispatched on
exact types: an isinstance chain and a dataclass test on every leaf.
test_cli holds `cli._json_safe` to it on every check's details.

`drift_table` and `phi_table` are the drift and multiplier checks' report
tables as the tool built them: one Fraction per entry, read through
Process.increment or Process.at on each atom's first leaf, the phi atoms
of each base node found through Partition.pieces. The checks now write each
entry's text from the int slices; test_report_tables holds them to these.
"""

from __future__ import annotations

import dataclasses

from fractions import Fraction

from filtration_lab.calculus import Process
from filtration_lab.cli import CheckContext, _validate_checks, run_check
from filtration_lab.errors import FiltrationLabError
from filtration_lab.scenario import Scenario
from filtration_lab.tree import Enlargement, FilteredTree


def _truncate_scenario(scenario: Scenario, horizon: int):
    """Shrink to a smaller horizon when every partition cell survives."""
    old = scenario.tree
    specs = []
    for t in range(horizon + 1):
        for node in old.nodes_at[t]:
            specs.append((node.id, node.time,
                          node.parent.id if node.parent else None,
                          node.branch_prob))
    try:
        tree = FilteredTree(horizon, specs)
    except FiltrationLabError:
        return None

    new_leaves = old.base_filtration().parts[horizon]
    enlargements = {}
    for name, enlargement in scenario.enlargements.items():
        parts = {}
        for t in range(horizon + 1):
            cells = []
            for cell in enlargement.partitions[t]:
                # the new leaves the cell meets, each of which it must hold
                members = [new_leaves.atoms[k] for k in
                           dict.fromkeys(new_leaves.block_of[i] for i in cell)]
                if sum(len(node.leaves) for node in members) != len(cell):
                    return None
                cells.append([node.label for node in members])
            parts[t] = cells
        try:
            enlargements[name] = Enlargement(tree, parts, name=name)
        except FiltrationLabError:
            return None

    processes = {}
    for name, process in scenario.processes.items():
        table = process.node_values()
        kept = {nid: table[nid] for nid in tree.nodes}
        processes[name] = Process.from_node_values(tree, kept)
    return Scenario(tree=tree, enlargements=enlargements,
                    processes=processes, checks=scenario.checks,
                    seed=scenario.seed, basis=scenario.basis,
                    viability_family=scenario.viability_family)


def minimize_failure(scenario: Scenario, check_name: str, seed: int) -> Scenario:
    """Greedy shrink of a failing scenario, keeping the failure."""

    def still_fails(candidate):
        try:
            _validate_checks(candidate, (check_name,))
            ctx = CheckContext(candidate, seed, mode="fuzz")
            return run_check(ctx, check_name)["status"] != "pass"
        except FiltrationLabError:
            return False

    current = dataclasses.replace(scenario, checks=(check_name,))
    for name in sorted(current.enlargements):
        if len(current.enlargements) == 1:
            break
        smaller = dict(current.enlargements)
        del smaller[name]
        trial = dataclasses.replace(current, enlargements=smaller)
        if still_fails(trial):
            current = trial
    if check_name != "viability" and current.viability_family:
        trial = dataclasses.replace(current, viability_family=())
        if still_fails(trial):
            current = trial
    for name in sorted(current.processes):
        if name == current.basis or name in current.viability_family:
            continue
        smaller = dict(current.processes)
        del smaller[name]
        trial = dataclasses.replace(current, processes=smaller)
        if still_fails(trial):
            current = trial
    for horizon in range(1, current.tree.horizon):
        trial = _truncate_scenario(current, horizon)
        if trial is not None and still_fails(trial):
            current = trial
            break
    return current


def json_safe(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return json_safe(dataclasses.asdict(value))
    return value


def drift_table(drift: Process, filtration) -> dict:
    """The drift check's table of nonzero drift increments, as Fractions."""
    table = {}
    for t in range(1, filtration.tree.horizon + 1):
        for atom in filtration.atoms(t - 1):
            inc = drift.increment(t, atom.leaves[0])[0]
            if inc != 0:
                table[f"{t}:{atom.label}"] = inc
    return table


def phi_table(phi: Process, filtration) -> dict:
    """The multiplier check's phi table, as lists of Fractions."""
    tree = filtration.tree
    nodes, subs = tree.base_filtration().parts, filtration.parts
    return {f"{t}:{node.label}": {
        sub.label: list(phi.at(t, sub.leaves[0]))
        for sub in [subs[t - 1].atoms[k] for k, _ in subs[t - 1].pieces(node)]}
        for t in range(1, tree.horizon + 1) for node in nodes[t - 1].atoms}

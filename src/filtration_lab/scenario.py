"""Scenario documents: one JSON object holding a tree, named enlargements,
named processes, and instructions for the command line tools.

Schema: {"horizon": int, "nodes": [{"id", "time", "parent", "prob"}, ...],
"enlargements": {name: {"t": [["leafId", ...], ...]}}, "processes":
{name: {"dim": int, "values": {nodeId: ["p/q", ...]}}}, "checks": [name, ...],
"seed": int, "basis": name, "viability_family": [name, ...]}. All rationals are
"p/q" strings; every key beyond horizon and nodes is optional.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .calculus import Process
from .errors import ParseError
from .tree import Enlargement, FilteredTree, build_tree, enlarge

_TOP_KEYS = {"horizon", "nodes", "enlargements", "processes", "checks",
             "seed", "basis", "viability_family"}


@dataclass
class Scenario:
    tree: FilteredTree
    enlargements: dict[str, Enlargement] = field(default_factory=dict)
    processes: dict[str, Process] = field(default_factory=dict)
    checks: tuple[str, ...] = ()
    seed: int = 0
    basis: str | None = None
    viability_family: tuple[str, ...] = ()

    def basis_process(self) -> Process | None:
        if self.basis is None:
            return None
        return self.processes[self.basis]

    def family_processes(self) -> list[tuple[str, Process]]:
        return [(name, self.processes[name]) for name in self.viability_family]


def _require(condition, message):
    if not condition:
        raise ParseError(message)


def _string_list(raw, what):
    _require(isinstance(raw, list), f"{what} must be a list")
    for item in raw:
        _require(isinstance(item, str), f"{what} entries must be strings")
    return tuple(raw)


def parse_scenario(doc) -> Scenario:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown scenario keys: {sorted(unknown)}")
    for key in ("horizon", "nodes"):
        _require(key in doc, f"scenario is missing {key!r}")
    _require(isinstance(doc["nodes"], list), "nodes must be a list")
    for entry in doc["nodes"]:
        _require(isinstance(entry, dict), "each node must be an object")
        _require("id" in entry and "time" in entry,
                 "each node needs an id and a time")
    try:
        tree = build_tree(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tree spec: {exc}") from exc

    enlargements = {}
    raw = doc.get("enlargements", {})
    _require(isinstance(raw, dict), "enlargements must be an object")
    for name, partitions in raw.items():
        _require(isinstance(partitions, dict),
                 f"enlargement {name!r} must map times to partitions")
        enlargements[name] = enlarge(tree, partitions, name=name)

    processes = {}
    raw = doc.get("processes", {})
    _require(isinstance(raw, dict), "processes must be an object")
    for name, entry in raw.items():
        _require(isinstance(entry, dict) and "values" in entry,
                 f"process {name!r} needs a values table")
        values = entry["values"]
        _require(isinstance(values, dict),
                 f"process {name!r} values must map node ids to entries")
        dim = entry.get("dim")
        _require(dim is None or (isinstance(dim, int) and not isinstance(dim, bool)),
                 f"process {name!r} dim must be an integer")
        processes[name] = Process.from_node_values(tree, values, dim=dim)
        _require(processes[name].dim > 0,
                 f"process {name!r} is zero-dimensional")

    checks = _string_list(doc.get("checks", []), "checks")

    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "seed must be an integer")

    basis = doc.get("basis")
    _require(basis is None or isinstance(basis, str), "basis must be a string")
    if basis is not None:
        _require(basis in processes, f"basis names unknown process {basis!r}")

    family = _string_list(doc.get("viability_family", []), "viability_family")
    for name in family:
        _require(name in processes,
                 f"viability_family names unknown process {name!r}")

    return Scenario(tree=tree, enlargements=enlargements, processes=processes,
                    checks=checks, seed=seed, basis=basis,
                    viability_family=family)


def scenario_to_doc(scenario: Scenario) -> dict:
    doc = scenario.tree.to_spec()
    if scenario.enlargements:
        doc["enlargements"] = {
            name: enl.to_spec() for name, enl in scenario.enlargements.items()
        }
    if scenario.processes:
        doc["processes"] = {
            name: {
                "dim": proc.dim,
                "values": {
                    node_id: [str(v) for v in vec]
                    for node_id, vec in sorted(proc.node_values().items())
                },
            }
            for name, proc in scenario.processes.items()
        }
    if scenario.checks:
        doc["checks"] = list(scenario.checks)
    if scenario.seed:
        doc["seed"] = scenario.seed
    if scenario.basis is not None:
        doc["basis"] = scenario.basis
    if scenario.viability_family:
        doc["viability_family"] = list(scenario.viability_family)
    return doc


def loads(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def load(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    return loads(text)


def dumps(scenario: Scenario) -> str:
    return canonical_json(scenario_to_doc(scenario))


def save(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(scenario))
        handle.write("\n")


def canonical_json(doc) -> str:
    """Stable bytes for hashing and byte-identical reports."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def scenario_hash(scenario: Scenario) -> str:
    digest = hashlib.sha256(dumps(scenario).encode("utf-8"))
    return digest.hexdigest()[:16]

"""Seeded inputs for the benchmark workloads.

A workload is prepared once per run from the run's seed; `setup` then
builds fresh `Scenario` objects for every pass, so lazy per-object caches
are paid on each pass as a command-line user pays them.

- deep-binary: full binary tree, horizon 7, driver of dimension 1, one
  random enlargement; written to JSON and loaded back, checks in run mode.
- wide-shallow: full 5-ary tree, horizon 3, driver of dimension 4, one
  random enlargement plus the full-information flow; JSON, run mode.
- fuzz-small: consecutive `random_scenario` seeds in fuzz mode, taken until
  their summed size reaches a fixed budget (see `scenario_size`).
"""

from __future__ import annotations

import os
from fractions import Fraction

from filtration_lab.cli import CHECKS
from filtration_lab.fuzz import (
    random_basis,
    random_enlargement,
    random_positive_martingale,
    random_scenario,
    rng_for,
    widest_branching,
)
from filtration_lab.scenario import Scenario, load, save
from filtration_lab.tree import build_tree, enlarge

CHECK_NAMES = tuple(CHECKS)
STRIDE = 1000  # random_scenario seeds per fuzz-small input set
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def full_tree(branching: int, horizon: int):
    """Full b-ary tree whose k-th child (k = 1..b) has probability
    k / (1 + ... + b), so branch denominators are not powers of two."""
    total = branching * (branching + 1) // 2
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": None}]
    frontier = ["r"]
    for t in range(1, horizon + 1):
        grown = []
        for parent in frontier:
            for k in range(1, branching + 1):
                child = parent + LETTERS[k - 1]
                nodes.append({"id": child, "time": t, "parent": parent,
                              "prob": str(Fraction(k, total))})
                grown.append(child)
        frontier = grown
    return build_tree({"horizon": horizon, "nodes": nodes})


def shaped_scenario(seed, branching, horizon, dim, full_information):
    """Driver W, positive price S and enlargement G0 on a full tree; with
    full_information, also G1 where every leaf is its own time-0 cell.

    G0 is drawn from a fixed stream, the same for every seed: its atom
    count varies by a tenth between draws and moves the enlargement checks'
    time with it, which would swamp run-to-run comparisons."""
    tree = full_tree(branching, horizon)
    w = random_basis(tree, rng_for(seed, "basis"), d=dim)
    s = random_positive_martingale(tree, rng_for(seed, "price"))
    enlargements = {"G0": random_enlargement(
        tree, rng_for(0, "enlargement", "G0"), name="G0")}
    if full_information:
        enlargements["G1"] = enlarge(
            tree, {0: [[leaf] for leaf in tree.leaf_ids]}, name="G1")
    return Scenario(tree=tree, enlargements=enlargements,
                    processes={"W": w, "S": s}, checks=CHECK_NAMES,
                    seed=seed, basis="W", viability_family=("S",))


def scenario_size(scenario) -> int:
    """(tree nodes + atoms of every enlargement over all times) * (d + 1).

    Check time on random scenarios tracks this closely, so a pass sized by
    it does about the same work whatever the seed."""
    horizon = scenario.tree.horizon
    atoms = sum(len(enl.filtration().atoms(t))
                for enl in scenario.enlargements.values()
                for t in range(horizon + 1))
    return (len(scenario.tree.nodes) + atoms) * (scenario.basis_process().dim + 1)


class FileWorkload:
    """One shaped scenario, saved to JSON at preparation, loaded per pass."""

    mode = "run"

    def __init__(self, name, branching, horizon, dim, full_information):
        self.name = name
        self.shape = (branching, horizon, dim, full_information)
        self.path = None

    def prepare(self, seed: int, out_dir: str) -> None:
        scenario = shaped_scenario(seed, *self.shape)
        self.path = os.path.join(out_dir, f"{self.name}-seed{seed}.json")
        save(scenario, self.path)

    def setup(self, tracer):
        scenario = tracer.call("scenario.load", load, self.path)
        return [(scenario.seed, scenario)]


class FixtureWorkload(FileWorkload):
    """A scenario file as shipped, with its own configured checks."""

    def __init__(self, name, path):
        self.name = name
        self.path = path

    def prepare(self, seed: int, out_dir: str) -> None:
        pass


class FuzzWorkload:
    """Consecutive random_scenario seeds from seed * STRIDE, up to a size
    budget. Seeds whose tree never branches are skipped: there the driver
    has no jump, so star-to-dot and the jump checks examine nothing."""

    mode = "fuzz"

    def __init__(self, name, budget):
        self.name = name
        self.budget = budget
        self.seeds = ()

    def prepare(self, seed: int, out_dir: str) -> None:
        start = seed * STRIDE
        chosen = []
        total = 0
        for candidate in range(start, start + STRIDE):
            scenario = random_scenario(candidate)
            if widest_branching(scenario.tree) < 2:
                continue
            chosen.append(candidate)
            total += scenario_size(scenario)
            if total >= self.budget:
                break
        else:
            raise RuntimeError(f"seeds {start}.. do not reach the size budget")
        self.seeds = tuple(chosen)

    def setup(self, tracer):
        return [(s, tracer.call("fuzz.generate", random_scenario, s,
                                checks=CHECK_NAMES))
                for s in self.seeds]


def workloads() -> dict:
    return {
        "deep-binary": FileWorkload("deep-binary", 2, 7, 1, False),
        "wide-shallow": FileWorkload("wide-shallow", 5, 3, 4, True),
        "fuzz-small": FuzzWorkload("fuzz-small", budget=6000),
    }


def toy_workloads() -> dict:
    """The same shapes at horizon 2, for the self-test."""
    return {
        "deep-binary": FileWorkload("deep-binary", 2, 2, 1, False),
        "wide-shallow": FileWorkload("wide-shallow", 5, 2, 4, True),
        "fuzz-small": FuzzWorkload("fuzz-small", budget=300),
    }

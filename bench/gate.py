"""Correctness gate for benchmark passes.

Every check row is judged on its own (status and vacuity) and by digest:
the sha256 of its canonical JSON must match the row the run's warm-up pass
produced, and the per-check digests of a pass must match the ones recorded
in golden.json for that workload and input set. So must the digest of the
pass's inputs, the scenario hashes of everything the checks ran on, so a
change that alters or shrinks the generated inputs fails too. A mismatch, a
missing golden entry, a raised exception, an unexpected `fail` or a row that
examined nothing makes the row a failed operation; a row counts once however
many of these it has.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from filtration_lab.scenario import canonical_json, scenario_hash

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
ENLARGEMENT_CHECKS = ("drift", "multiplier", "viability", "kernel",
                      "consistency")
RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?")
# golden.json records input sets 0 .. RECORDED_SEEDS - 1; a run's --seed
# picks input set seed % RECORDED_SEEDS, so every run is checked
RECORDED_SEEDS = 50


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_digest(row) -> str:
    return digest(canonical_json(row))


def combine(digests) -> str:
    """Order-sensitive digest of a sequence of row digests."""
    return digest("".join(digests))[:16]


def vacuity(row) -> str | None:
    """Why a row examined nothing, or None when it examined something."""
    name = row["name"]
    details = row["details"]
    if name == "mrp" and not details.get("ranks"):
        return "no node was rank-tested"
    if name == "reconstruct" and "reason" not in details and not details.get("d"):
        return "the rebuilt family has no component"
    if name == "star-to-dot" and (not details.get("n")
                                  or not details.get("samples")):
        return "no jump slot to convert"
    if name in ENLARGEMENT_CHECKS and "reason" not in details:
        blocks = details.get("enlargements")
        if not blocks:
            return "no enlargement listed"
        if name == "viability":
            if not details.get("family_size"):
                return "no price examined"
            if any(not block.get("results") for block in blocks.values()):
                return "an enlargement examined no price"
        if name in ("drift", "kernel") and any(not rows for rows in blocks.values()):
            return "an enlargement has no rows"
    return None


def _economic_failure_only(details) -> bool:
    """A viability fail whose exact identities and witnesses all hold."""
    for block in details.get("enlargements", {}).values():
        for result in block["results"]:
            if result["feasible"] and not result["identity"]:
                return False
            if not result["feasible"] and any(
                    v["separating"] is None for v in result["violations"]):
                return False
    return True


def row_problem(row, mode: str) -> str | None:
    """Problem with one row on its own, or None.

    In run mode a viability fail is expected when the flow leaks future
    information: it stays a correct row as long as every identity and
    separating witness in it holds."""
    if row["status"] == "error":
        return row["details"]["error"]
    if row["status"] != "pass":
        expected = (mode == "run" and row["name"] == "viability"
                    and _economic_failure_only(row["details"]))
        if not expected:
            return "check failed"
    return vacuity(row)


def max_bits(value) -> int:
    """Largest numerator or denominator bit length among the rationals,
    which the rows carry as "p/q" strings."""
    best = 0
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            match = RATIONAL.fullmatch(item)
            if match:
                for part in match.groups():
                    if part is not None:
                        best = max(best, int(part).bit_length())
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return best


def load_golden() -> dict:
    """Recorded digests; empty when the file is missing, so that every row
    then fails as unrecorded."""
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def pass_digests(scenario_rows) -> dict[str, str]:
    """Per check, the combined digest of its rows over the pass's scenarios."""
    per_check: dict[str, list] = {}
    for _, digests in scenario_rows:
        for name, value in digests.items():
            per_check.setdefault(name, []).append(value)
    return {name: combine(values) for name, values in per_check.items()}


def inputs_digest(scenarios) -> str:
    """Combined scenario hash of a pass's inputs, in pass order."""
    return combine(scenario_hash(scenario) for _, scenario in scenarios)


def golden_entry(result) -> dict:
    """What golden.json records for one pass."""
    return {"inputs": inputs_digest(result.scenarios),
            "checks": pass_digests(result.digests)}


class Gate:
    """Counts operations and failed operations over a run's passes.

    `golden` is golden.json's content, or None to skip the golden
    comparison, which only the self-test's toy sizes do."""

    def __init__(self, workload, input_seed, golden):
        self.mode = workload.mode
        self.compare = golden is not None
        self.expected = (golden or {}).get(workload.name, {}).get(
            str(input_seed))
        self.reference = None
        self.ops = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def judge(self, result) -> None:
        """Count a pass's rows as operations and record the failed ones,
        each row once with all of its problems."""
        if self.reference is None:
            self.reference = result.digests
        problems: dict[tuple, list] = {}

        def flag(seed, name, problem):
            problems.setdefault((seed, name), []).append(problem)

        for seed, rows in result.rows:
            for row in rows:
                self.ops += 1
                problem = row_problem(row, self.mode)
                if problem is not None:
                    flag(seed, row["name"], problem)
        for (seed, got), (_, want) in zip(result.digests, self.reference):
            for name, value in got.items():
                if want.get(name) != value:
                    flag(seed, name, "row differs from the warm-up pass")
        if self.compare:
            self._against_golden(result, flag)
        self.failures.extend((seed, name, "; ".join(found))
                             for (seed, name), found in sorted(problems.items()))

    def _against_golden(self, result, flag) -> None:
        every_row = [(seed, name) for seed, digests in result.digests
                     for name in digests]
        if self.expected is None:
            for seed, name in every_row:
                flag(seed, name, "no digest recorded in golden.json")
            return
        if inputs_digest(result.scenarios) != self.expected["inputs"]:
            for seed, name in every_row:
                flag(seed, name, "inputs differ from golden.json")
        want = self.expected["checks"]
        got = pass_digests(result.digests)
        for seed, name in every_row:
            if want.get(name) != got[name]:
                flag(seed, name, "rows differ from golden.json")

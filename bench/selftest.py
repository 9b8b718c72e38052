"""Self-test of the benchmark at toy size.

    python3 bench/selftest.py

Runs the three bundled fixtures and each workload shape at horizon 2, and
checks that every metric named in BENCHMARK.json prints with its unit, that
every count repeats exactly across two traced runs, and that the
correctness gate flags an altered row, a vacuous row, a raised exception, a
golden-digest mismatch, altered inputs and an unrecorded input set, counting
a row with several problems once. The toy sizes have no golden entry, so
their runs skip that comparison. Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import harness  # noqa: E402
from spans import NullTracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import FixtureWorkload, toy_workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out", "selftest")
EXACT = [name for name, _ in harness.LAYER_COUNTS] + ["trace.spans"]
FIXTURES = os.path.join(ROOT, "src", "filtration_lab", "fixtures")


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[key]]


def units_of(result):
    return [(name, entry["unit"]) for name, entry in result["metrics"].items()]


def check_workload(workload, problems) -> None:
    plain = harness.run_workload(workload, 1, 0, False, OUT_DIR, None)
    traced = [harness.run_workload(workload, 1, 0, True, OUT_DIR, None)
              for _ in range(2)]
    for result in [plain, *traced]:
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload.name}: failed ops {result['failures']}")
    if units_of(plain) != declared("end_to_end"):
        problems.append(f"{workload.name}: end-to-end metrics differ from "
                        "BENCHMARK.json")
    if units_of(traced[0]) != declared("per_layer"):
        problems.append(f"{workload.name}: per-layer metrics differ from "
                        "BENCHMARK.json")
    for name in EXACT:
        entry = traced[0]["metrics"][name]
        again = traced[1]["metrics"][name]["value"]
        if entry["value"] != again:
            problems.append(f"{workload.name}: {name} was {entry['value']}, "
                            f"then {again}")
    print(f"ok {workload.name}: {plain['attempted']} ops, "
          f"{len(plain['metrics'])} + {len(traced[0]['metrics'])} metrics")


def altered(result, seed, name, change):
    """Copy of a pass whose row `name` of scenario `seed` went through
    `change`, with digests recomputed as a real pass would."""
    rows = copy.deepcopy(result.rows)
    digests = copy.deepcopy(result.digests)
    for (s, scenario_rows), (_, scenario_digests) in zip(rows, digests):
        for i, row in enumerate(scenario_rows):
            if s == seed and row["name"] == name:
                scenario_rows[i] = change(row)
                scenario_digests[name] = gate.row_digest(scenario_rows[i])
    return dataclasses.replace(result, rows=rows, digests=digests)


def check_gate(problems) -> None:
    workload = toy_workloads()["deep-binary"]
    workload.prepare(1, OUT_DIR)
    reference = harness.run_pass(workload, NullTracer(), SpeedProbe())
    seed = reference.rows[0][0]
    golden = {workload.name: {"1": gate.golden_entry(reference)}}

    def flip_rank(row):
        node = sorted(row["details"]["ranks"])[0]
        row["details"]["ranks"][node][1] += 1
        return row

    def empty_family(row):
        row["details"]["family_size"] = 0
        return row

    def raised(row):
        return {"name": row["name"], "status": "error",
                "details": {"error": "ValueError: injected"}}

    cases = [("altered value", "mrp", flip_rank),
             ("vacuous row", "viability", empty_family),
             ("raised exception", "kernel", raised)]
    for label, name, change in cases:
        for expected in (None, golden):
            judge = gate.Gate(workload, 1, expected)
            judge.judge(reference)
            if judge.failures:
                problems.append(f"gate: clean pass flagged {judge.failures}")
            judge.judge(altered(reference, seed, name, change))
            if not any(check == name for _, check, _ in judge.failures):
                problems.append(f"gate missed the {label} in {name}")
            if judge.failed != 1:
                problems.append(f"gate counted the {label} as "
                                f"{judge.failed} failed rows, not 1")
    rows = sum(len(scenario_rows) for _, scenario_rows in reference.rows)
    stale = altered(reference, seed, "mrp", flip_rank)
    other_inputs = dict(golden[workload.name]["1"], inputs="0" * 16)
    judged = [
        ("a golden-digest mismatch", {"inputs": golden[workload.name]["1"][
            "inputs"], "checks": gate.pass_digests(stale.digests)}, "golden", 1),
        ("altered inputs", other_inputs, "inputs differ", rows),
        ("an unrecorded input set", None, "no digest recorded", rows),
    ]
    for label, entry, words, failed in judged:
        recorded = {} if entry is None else {workload.name: {"1": entry}}
        judge = gate.Gate(workload, 1, recorded)
        judge.judge(reference)
        if (judge.failed != failed
                or not all(words in problem for _, _, problem in judge.failures)):
            problems.append(f"gate missed {label}: {judge.failures}")
    print("ok gate: altered, vacuous and raised rows, golden mismatches, "
          "altered inputs and unrecorded input sets are flagged")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    problems = []
    check_gate(problems)
    for name in sorted(os.listdir(FIXTURES)):
        stem = name.removesuffix(".json")
        check_workload(FixtureWorkload(f"fixture-{stem}",
                                       os.path.join(FIXTURES, name)), problems)
    for workload in toy_workloads().values():
        check_workload(workload, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark passes and metric assembly.

One process, one thread: each scenario's checks run only after the previous
scenario's finished. A run prepares the workload from its seed, runs one
untimed warm-up pass, then timed passes, each after three set-ups timed for
setup_s alone, while the next pass is expected to end within the requested
seconds. A traced run adds one pass with spans on, followed by the layer
walk.
"""

from __future__ import annotations

import gc
import resource
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from filtration_lab.cli import CheckContext, run_check

import gate
import layers
from spans import NullTracer, Tracer
from speed import SpeedProbe
from workloads import CHECK_NAMES

EXTRA_SETUPS = 3  # set-ups timed before each pass, for setup_s only

END_TO_END = (
    [("run_s", "s"), ("setup_s", "s")]
    + [(f"check.{name}_s", "s") for name in CHECK_NAMES]
    + [("peak_rss_mb", "MB")]
)

LAYER_TIMES = (
    "scenario.load", "scenario.hash",
    "fuzz.generate",
    "tree.build", "tree.filtration",
    "calculus.process", "calculus.jump_measure", "calculus.compensator",
    "calculus.projection", "calculus.bracket", "calculus.dot_integral",
    "calculus.star_integral",
    "constraint.detect_fpcc", "constraint.star_to_dot", "constraint.accessible",
    "representation.check_mrp", "representation.reconstruct",
    "representation.coefficient",
    "linalg.rank", "linalg.null_space", "linalg.solve", "linalg.gram_schmidt",
    "linalg.product",
    "enlargement.drift", "enlargement.multiplier",
    "enlargement.verify_multiplier", "enlargement.deflator",
    "enlargement.kernel", "enlargement.consistency",
    "cli.render",
)
LAYER_COUNTS = (
    ("scenario.bytes", "bytes"),
    ("tree.nodes", "count"), ("tree.leaves", "count"), ("tree.atoms", "count"),
    ("calculus.atoms_visited", "count"),
    ("calculus.compensator_entries", "count"),
    ("constraint.slots", "count"),
    ("representation.rank_tests", "count"),
    ("representation.witnesses", "count"),
    ("linalg.matrices", "count"), ("linalg.max_cols", "count"),
    ("linalg.entries", "count"),
    ("enlargement.deflator_atoms", "count"),
    ("enlargement.deflator_feasible_ratio", "ratio"),
    ("cli.report_bytes", "bytes"), ("cli.max_bits", "bits"),
)
PER_LAYER = (
    [(f"{name}_s", "s") for name in LAYER_TIMES]
    + list(LAYER_COUNTS)
    + [("linalg.share", "ratio"), ("trace.layer_self_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


@dataclass
class PassResult:
    """One pass: normalized seconds (see speed.py), the wall-clock seconds
    they came from, and the rows with their digests."""
    setup_s: float
    run_s: float
    check_s: dict
    wall: dict
    scenarios: list
    rows: list
    digests: list


def timed_setup(workload, tracer, probe):
    """Set up once between two probe bursts; (scenarios, normalized s, wall s)."""
    probe.sample()
    began = perf_counter()
    scenarios = workload.setup(tracer)
    ended = perf_counter()
    probe.sample()
    wall = ended - began
    return scenarios, wall / probe.slowdown(began, ended), wall


def run_pass(workload, tracer, probe, trace_prefix="") -> PassResult:
    """Set up fresh scenarios, then run every scenario's checks in order,
    hashing each row as a report writer would. Spans of one scenario share
    the trace id "<trace_prefix>:<scenario seed>"."""
    scenarios, setup_s, setup_wall = timed_setup(workload, tracer, probe)
    rows = []
    digests = []
    units = []
    for seed, scenario in scenarios:
        tracer.trace_id = f"{trace_prefix}:{seed}"
        ctx = CheckContext(scenario, seed, mode=workload.mode)
        scenario_rows = []
        scenario_digests = {}
        for name in scenario.checks:
            probe.sample(force=False)
            began = perf_counter()
            try:
                row = tracer.call(f"check.{name}", run_check, ctx, name)
            except Exception as exc:  # one failed operation; the pass goes on
                traceback.print_exc(file=sys.stderr)
                row = {"name": name, "status": "error",
                       "details": {"error": f"{type(exc).__name__}: {exc}"}}
            checked = perf_counter()
            scenario_rows.append(row)
            scenario_digests[name] = gate.row_digest(row)
            units.append((name, began, checked, perf_counter()))
        rows.append((seed, scenario_rows))
        digests.append((seed, scenario_digests))
    probe.sample()

    check_s = dict.fromkeys(CHECK_NAMES, 0.0)
    wall = {"setup_s": setup_wall, "run_s": 0.0,
            "check_s": dict.fromkeys(CHECK_NAMES, 0.0)}
    run_s = 0.0
    for name, began, checked, hashed in units:
        slowdown = probe.slowdown(began, hashed)
        check_s[name] += (checked - began) / slowdown
        run_s += (hashed - began) / slowdown
        wall["check_s"][name] += checked - began
        wall["run_s"] += hashed - began
    return PassResult(setup_s, run_s, check_s, wall, scenarios, rows, digests)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 out_dir: str, golden) -> dict:
    """One benchmark run on input set seed % gate.RECORDED_SEEDS; returns
    the result object and its extras. `golden` is as for gate.Gate."""
    input_seed = seed % gate.RECORDED_SEEDS
    workload.prepare(input_seed, out_dir)
    off = NullTracer()
    judge = gate.Gate(workload, input_seed, golden)

    probe = SpeedProbe()
    warm = run_pass(workload, off, probe)
    judge.judge(warm)
    del warm

    setups = []
    timed = []
    started = perf_counter()
    last = 0.0
    # stop before a pass that would overrun the measuring time
    while not timed or perf_counter() - started + last <= seconds:
        began = perf_counter()
        for _ in range(EXTRA_SETUPS):
            gc.collect()
            setups.append(timed_setup(workload, off, probe)[1])
        gc.collect()
        result = run_pass(workload, off, probe)
        judge.judge(result)
        setups.append(result.setup_s)
        timed.append(result)
        result.scenarios = result.rows = None
        last = perf_counter() - began

    run_s = median([p.run_s for p in timed])
    extras = {"input_seed": input_seed,
              "scenarios": len(timed[0].digests),
              "setup_s": setups,
              "run_s": [p.run_s for p in timed],
              "check_s": {name: [p.check_s[name] for p in timed]
                          for name in CHECK_NAMES},
              "wall": [p.wall for p in timed],
              "probe_s": probe.durations}
    if not trace:
        metrics = {
            "run_s": run_s,
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name in CHECK_NAMES:
            metrics[f"check.{name}_s"] = median([p.check_s[name] for p in timed])
        units = END_TO_END
    else:
        tracer = Tracer()
        prefix = f"{workload.name}:{seed}"
        tracer.trace_id = f"{prefix}:setup"
        gc.collect()
        traced = run_pass(workload, tracer, probe, prefix)
        judge.judge(traced)
        counts = Counter()
        with layers.library_linalg_spans(tracer, counts):
            for (s, scenario), (_, rows) in zip(traced.scenarios, traced.rows):
                tracer.trace_id = f"{prefix}:{s}"
                walk_root = tracer.begin("walk")
                layers.walk(tracer, scenario, s, rows, counts)
                tracer.end(walk_root)
        metrics = layer_metrics(tracer, counts, traced.run_s - run_s)
        units = PER_LAYER
        tracer.write(f"{out_dir}/spans-{workload.name}-seed{seed}.jsonl")
        extras["traced_run_s"] = traced.run_s

    return {
        "correct": judge.failed == 0,
        "attempted": judge.ops,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
        "extras": extras,
        "failures": judge.failures,
    }


def layer_metrics(tracer, counts, overhead) -> dict:
    self_times = tracer.self_times()
    metrics = {f"{name}_s": self_times.get(name, 0.0) for name in LAYER_TIMES}
    layer_total = sum(self_times.get(name, 0.0) for name in LAYER_TIMES)
    linalg = sum(self_times.get(name, 0.0) for name in LAYER_TIMES
                 if name.startswith("linalg."))
    for name, _ in LAYER_COUNTS:
        metrics[name] = counts[name]
    audited = counts["enlargement.deflator_atoms"]
    metrics["enlargement.deflator_feasible_ratio"] = (
        counts["enlargement.deflator_feasible"] / audited if audited else 0.0)
    metrics["linalg.share"] = linalg / layer_total
    metrics["trace.layer_self_s"] = layer_total
    metrics["trace.overhead_s"] = overhead
    metrics["trace.spans"] = len(tracer.spans)
    return metrics

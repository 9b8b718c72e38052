"""Record the golden digests the correctness gate compares with.

    python3 bench/record.py                          # every input set
    python3 bench/record.py --seeds 3 --workload fuzz-small

Runs one untraced pass per workload and input set and stores the digest of
its inputs and, per check, the combined digest of its rows in
bench/golden.json, keeping every entry it does not recompute. A row that the
gate rejects on its own is never recorded. Record only from a commit whose
reports are known to be right, and again whenever a change alters reports
on purpose or changes a workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import harness  # noqa: E402
from spans import NullTracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import workloads  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range,
                        default=range(gate.RECORDED_SEEDS),
                        help="one input set or an inclusive range such as "
                             "0-19; default all")
    parser.add_argument("--workload", action="append",
                        choices=tuple(workloads()))
    args = parser.parse_args(argv)
    if args.seeds[-1] >= gate.RECORDED_SEEDS:
        parser.error(f"input sets run from 0 to {gate.RECORDED_SEEDS - 1}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    golden = gate.load_golden()
    for name in args.workload or workloads():
        for seed in args.seeds:
            workload = workloads()[name]
            workload.prepare(seed, out_dir)
            result = harness.run_pass(workload, NullTracer(), SpeedProbe())
            for s, rows in result.rows:
                for row in rows:
                    problem = gate.row_problem(row, workload.mode)
                    if problem is not None:
                        print(f"{name} seed {seed}: scenario {s} "
                              f"{row['name']}: {problem}", file=sys.stderr)
                        return 1
            golden.setdefault(name, {})[str(seed)] = gate.golden_entry(result)
            print(f"{name} seed {seed}: recorded", flush=True)
            with open(gate.GOLDEN_PATH, "w", encoding="utf-8") as handle:
                json.dump(golden, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

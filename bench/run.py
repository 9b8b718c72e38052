"""Benchmark entry point.

    python3 bench/run.py --workload deep-binary --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
./src. One workload runs in this interpreter; `all` runs each workload in a
fresh interpreter and prints them side by side. The last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Lines
before it start with "#". Scenario files, spans and run metadata are written
to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("deep-binary", "wide-shallow", "fuzz-small")


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            with open(os.path.join(git_dir, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "note": "CPU frequency is not pinned; compare runs from one machine",
    }


def print_metrics(metrics) -> None:
    for name, entry in metrics.items():
        print(f"# {name:<40} {entry['value']:>16.6g} {entry['unit']}")


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import harness
    from gate import load_golden
    from workloads import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads()[args.workload]
    result = harness.run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace), OUT_DIR, load_golden())
    extras = result.pop("extras")
    failures = result.pop("failures")
    env = environment()
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "extras": extras, "failures": failures, "result": result}
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: input set "
          f"{extras['input_seed']}, {extras['scenarios']} "
          f"scenarios, {len(extras['run_s'])} timed passes, "
          f"{len(extras['setup_s'])} set-ups")
    for seed, check, problem in failures[:20]:
        print(f"# FAILED scenario {seed} check {check}: {problem}")
    share = result["failed"] / result["attempted"]
    print(f"# ops {result['attempted']} ops_failed {result['failed']} "
          f"ops_failed_share {share}")
    print_metrics(result["metrics"])
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "filtration_lab", "__init__.py")):
        print(f"no library source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""The committed benchmark records (BENCH_<n>.json at the repository root):
each is a correct run with no failed operation that reports every
end-to-end metric BENCHMARK.json declares, for every workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_correct_and_complete(path):
    result = json.loads(path.read_text())["result"]
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [f"{workload['name']}/{metric['name']}"
               for workload in SPEC["workloads"]
               for metric in SPEC["end_to_end"]
               if f"{workload['name']}/{metric['name']}" not in result["metrics"]]
    assert not missing

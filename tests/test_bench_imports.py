"""The benchmark's modules import against the library as it stands, so a
name the bench imports from src/ cannot be deleted without a tier-1
failure. Each import runs in a fresh interpreter with bench/ and src/ on
the path, as bench/run.py runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["layers", "harness", "workloads"])
def test_bench_module_imports(module):
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-B", "-c", f"import {module}"], cwd=ROOT / "bench",
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 0, result.stderr

"""Byte-identical report contract: CLI reports against recorded digests.

`report_digests.json` holds the exit code and the sha256 of the stdout of
each command below. A change that alters a report on purpose re-records the
file with `PYTHONPATH=src python tests/test_report_digests.py` and says why
in its change notes.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from filtration_lab.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "src" / "filtration_lab" / "fixtures"
SHORT = HERE / "data" / "ter1_short_basis.json"
DIGESTS = HERE / "report_digests.json"

COMMANDS = {
    "run bin1": ["run", str(FIXTURES / "bin1.json"), "--format", "json"],
    "run ter1_ga": ["run", str(FIXTURES / "ter1_ga.json"), "--format", "json"],
    "run ter1_gb": ["run", str(FIXTURES / "ter1_gb.json"), "--format", "json"],
    "run ter1_short": ["run", str(SHORT), "--format", "json"],
    "check-mrp bin1": ["check-mrp", str(FIXTURES / "bin1.json"),
                       "--format", "json"],
    "check-mrp ter1_short": ["check-mrp", str(SHORT), "--format", "json"],
    "viability ter1_ga": ["viability", str(FIXTURES / "ter1_ga.json"),
                          "--format", "json"],
    "viability ter1_gb": ["viability", str(FIXTURES / "ter1_gb.json"),
                          "--format", "json"],
    "fuzz 50": ["fuzz", "--count", "50", "--seed", "0", "--format", "json"],
    "fuzz deep": ["fuzz", "--count", "10", "--seed", "0", "--horizon", "5",
                  "--branching", "2", "--format", "json"],
    "fuzz wide": ["fuzz", "--count", "10", "--seed", "0", "--horizon", "2",
                  "--branching", "5", "--format", "json"],
}


def digest_of(argv, repro_dir):
    if argv[0] == "fuzz":
        argv = argv + ["--repro-dir", str(repro_dir)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_recorded_digest(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digest_of(COMMANDS[name], tmp_path) == recorded[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = {name: digest_of(argv, scratch)
                 for name, argv in sorted(COMMANDS.items())}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.stdout.write(f"recorded {len(table)} digests in {DIGESTS}\n")

"""Command line entry points: exit codes, report shapes, determinism."""

import contextlib
import dataclasses
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtration_lab.calculus import Process
from filtration_lab.cli import CHECKS, CheckContext, _json_safe, main, run_check
from filtration_lab.errors import NoRepresentation
from filtration_lab.fuzz import random_scenario
from filtration_lab.representation import _reconstruct
from filtration_lab.scenario import dumps, load, scenario_hash

import cli_reference

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "filtration_lab" / "fixtures"
BIN1 = str(FIXTURES / "bin1.json")
TER1_GA = str(FIXTURES / "ter1_ga.json")
TER1_GB = str(FIXTURES / "ter1_gb.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestRun:
    def test_ga_selected_checks_pass(self, capsys):
        code, report, _ = run_json(
            capsys, "run", TER1_GA, "--checks", "drift,multiplier")
        assert code == 0
        assert report["verdict"] == "pass"
        assert [c["name"] for c in report["checks"]] == ["drift", "multiplier"]
        assert all(c["status"] == "pass" for c in report["checks"])
        assert report["tool"] == "filtration-lab"
        assert report["scenario_hash"]

    def test_ga_default_checks_pass(self, capsys):
        code, report, _ = run_json(capsys, "run", TER1_GA)
        assert code == 0
        assert report["verdict"] == "pass"

    def test_bin1_passes(self, capsys):
        code, report, _ = run_json(capsys, "run", BIN1)
        assert code == 0
        assert report["verdict"] == "pass"

    def test_ga_viability_fails_with_witness(self, capsys):
        code, report, _ = run_json(
            capsys, "run", TER1_GA, "--checks", "viability")
        assert code == 1
        assert report["verdict"] == "fail"
        text = json.dumps(report)
        assert "b|c" in text

    def test_empty_check_list_runs_nothing(self, capsys):
        code, report, _ = run_json(capsys, "run", TER1_GA, "--checks", "")
        assert code == 0
        assert report["checks"] == []

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", TER1_GA, "--checks", "zeta")
        assert code == 2
        assert "unknown check" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == 2
        assert err

    def test_bad_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert err

    def test_bare_float_value_is_usage_error(self, capsys, tmp_path):
        doc = json.loads(Path(BIN1).read_text(encoding="utf-8"))
        (name,) = doc["processes"]
        doc["processes"][name]["values"]["r"] = 0.5
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert "not a rational: 0.5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where, value", [
        ("horizon", 1.9), ("horizon", True), ("time", 1.6)])
    def test_non_integer_time_is_usage_error(self, capsys, tmp_path, where, value):
        doc = json.loads(Path(BIN1).read_text(encoding="utf-8"))
        if where == "horizon":
            doc["horizon"] = value
        else:
            doc["nodes"][1]["time"] = value
        path = tmp_path / "times.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert f"must be an integer, got {value!r}" in err
        assert "Traceback" not in err

    def test_zero_dimensional_process_is_usage_error(self, capsys, tmp_path):
        doc = json.loads(Path(TER1_GA).read_text(encoding="utf-8"))
        for entry in doc["processes"].values():
            entry["dim"] = 0
            entry["values"] = {node: [] for node in entry["values"]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert "process 'W' is zero-dimensional" in err

    def test_non_martingale_basis_drift_is_usage_error(self, capsys, tmp_path):
        doc = json.loads(Path(TER1_GB).read_text(encoding="utf-8"))
        doc["processes"]["W"]["values"]["a"] = ["2", "1"]  # W0 has mean 1/3
        path = tmp_path / "drifting_basis.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path), "--checks", "drift")
        assert code == 2
        assert out == ""
        assert err == "error: drift input is not a martingale for this filtration\n"

    def test_long_chain_runs(self, capsys, tmp_path):
        # deeper than the interpreter's default recursion limit
        horizon = 1500
        nodes = [{"id": "n0", "time": 0, "parent": None, "prob": None}]
        nodes += [{"id": f"n{t}", "time": t, "parent": f"n{t - 1}",
                   "prob": "1"} for t in range(1, horizon + 1)]
        doc = {"horizon": horizon, "nodes": nodes,
               "processes": {
                   "W": {"values": {n["id"]: ["0"] for n in nodes}},
                   "S": {"values": {n["id"]: ["1"] for n in nodes}}},
               "enlargements": {"G": {}}, "basis": "W",
               "viability_family": ["S"],
               "checks": ["mrp", "drift", "viability"]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_json(capsys, "run", str(path))
        assert code == 0, err
        assert [c["status"] for c in report["checks"]] == ["pass"] * 3

    @pytest.mark.parametrize("partition, message", [
        ({"0": [1, 2]}, "cell 1 at time 0 is not a list of leaves"),
        ({"0": [[["a"]]]}, "leaf ['a'] is neither a leaf index nor a leaf id"),
        ({"0": [[{"x": 1}], ["b", "c"]]},
         "leaf {'x': 1} is neither a leaf index nor a leaf id"),
        ({"x": [["a", "b", "c"]]}, "enlargement time 'x' is not an integer"),
        ({"0": [[True], [False, 2]]},
         "leaf True is neither a leaf index nor a leaf id"),
        # a string is a leaf id, not a cell of one-character leaf ids
        ({"0": [["a"], ["b", "c"]], "1": ["a", "b", "c"]},
         "cell 'a' at time 1 is not a list of leaves"),
    ], ids=["int-cells", "nested-cell", "object-leaf", "time-key", "bool-leaf",
            "string-cells"])
    def test_malformed_enlargement_is_usage_error(self, capsys, tmp_path,
                                                  partition, message):
        doc = json.loads(Path(TER1_GA).read_text(encoding="utf-8"))
        doc["enlargements"]["GA"] = partition
        path = tmp_path / "bad_enlargement.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_table_output_mentions_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", TER1_GA, "--checks", "drift")
        assert code == 0
        assert "drift" in out and "pass" in out

    def test_out_into_missing_directory_is_usage_error(self, capsys,
                                                        tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "run", TER1_GB, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err


class TestDeterminism:
    def test_run_reports_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for target in (first, second):
            code = main(["run", TER1_GA, "--format", "json",
                         "--out", str(target)])
            capsys.readouterr()
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_fuzz_reports_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for target in (first, second):
            code = main(["fuzz", "--count", "3", "--seed", "11",
                         "--format", "json", "--out", str(target),
                         "--repro-dir", str(tmp_path)])
            capsys.readouterr()
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestFuzz:
    def test_small_campaign_passes(self, capsys, tmp_path):
        code, report, _ = run_json(
            capsys, "fuzz", "--count", "4", "--seed", "2",
            "--repro-dir", str(tmp_path))
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["failures"] == 0
        assert len(report["results"]) == 4
        assert [row["seed"] for row in report["results"]] == [2, 3, 4, 5]
        probed = 0
        for row in report["results"]:
            assert row["verdict"] == "pass"
            names = {c["name"] for c in row["checks"]}
            # the planted-defect probe needs a node with three children
            assert names - {"mrp-adversarial"} == set(CHECKS)
            probed += "mrp-adversarial" in names
        assert probed > 0

    def test_horizon_and_branching_knobs(self, capsys, tmp_path):
        code, report, _ = run_json(
            capsys, "fuzz", "--count", "2", "--seed", "5",
            "--horizon", "1", "--branching", "2",
            "--checks", "mrp,star-to-dot", "--repro-dir", str(tmp_path))
        assert code == 0
        assert report["params"]["horizon"] == 1
        assert report["params"]["max_branching"] == 2

    @pytest.mark.parametrize("flags, message", [
        (("--count", "-3"), "fuzz count must be at least 1, got -3"),
        (("--count", "0"), "fuzz count must be at least 1, got 0"),
        (("--branching", "100"),
         "random_tree needs max_branching in 1..8, got 100"),
        (("--branching", "-4"),
         "random_tree needs max_branching in 1..8, got -4"),
    ], ids=["negative-count", "zero-count", "wide", "negative-branching"])
    def test_out_of_range_knobs_are_usage_errors(self, capsys, tmp_path,
                                                 flags, message):
        code, out, err = run_cli(capsys, "fuzz", *flags,
                                 "--repro-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def _force_failure(monkeypatch, name):
    """Make check `name` fail on every scenario."""
    monkeypatch.setitem(CHECKS, name, dataclasses.replace(
        CHECKS[name], runner=lambda ctx: (False, {})))


class TestShrink:
    # seed 13 draws a horizon-3 tree whose enlargement cuts back to horizon 1
    SEED = 13

    def test_reproducer_replays_the_failure(self, capsys, monkeypatch,
                                            tmp_path):
        _force_failure(monkeypatch, "kernel")
        code, report, _ = run_json(
            capsys, "fuzz", "--count", "1", "--seed", str(self.SEED),
            "--checks", "kernel", "--repro-dir", str(tmp_path))
        assert code == 1
        (entry,) = report["results"]
        assert entry["failing"] == ["kernel"]
        path = entry["reproducer"]
        assert path == str(tmp_path / f"repro-{self.SEED}.json")
        reduced = load(path)
        assert random_scenario(self.SEED).tree.horizon == 3
        assert reduced.tree.horizon == 1
        assert reduced.checks == ("kernel",)
        assert Path(path).read_text(encoding="utf-8") == dumps(reduced) + "\n"
        code, replay, _ = run_json(capsys, "run", path, "--checks", "kernel")
        assert code == 1
        assert replay["scenario_hash"] == scenario_hash(reduced)

    def test_unwritable_repro_dir_is_usage_error(self, capsys, monkeypatch,
                                                 tmp_path):
        _force_failure(monkeypatch, "kernel")
        missing = tmp_path / "missing"
        code, out, err = run_cli(
            capsys, "fuzz", "--count", "1", "--seed", str(self.SEED),
            "--checks", "kernel", "--repro-dir", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"error: cannot write {missing / f'repro-{self.SEED}.json'}")
        assert "Traceback" not in err


class TestCheckMrp:
    def test_ga_basis_report(self, capsys):
        code, report, _ = run_json(capsys, "check-mrp", TER1_GA)
        assert code == 0
        assert report["mrp"] is True
        assert report["multiplicity"] == {"1:r": 3}
        assert report["ranks"] == {"r": [3, 2]}
        assert report["counterexample"] is None
        slots = report["constraint"]["slots"]
        assert slots[0]["values"] == [["-1", "1"], ["0", "-2"], ["1", "1"]]


class TestViability:
    def test_gb_audit_passes(self, capsys):
        code, report, _ = run_json(capsys, "viability", TER1_GB)
        assert code == 0
        assert report["verdict"] == "pass"
        (search,) = report["enlargements"].values()
        assert search["viable"] is True
        for result in search["results"]:
            assert result["feasible"] is True
            assert result["violations"] == []

    def test_ga_audit_fails(self, capsys, tmp_path):
        # same scenario, but ask for the deflator search against S under GA
        doc = json.loads(Path(TER1_GA).read_text(encoding="utf-8"))
        doc["viability_family"] = ["S"]
        path = tmp_path / "ga_family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = run_json(capsys, "viability", str(path))
        assert code == 1
        assert report["verdict"] == "fail"
        (search,) = report["enlargements"].values()
        result = search["results"][0]
        assert set(result["violations"]) == {"a", "b|c"}
        statuses = {row["atom"]: row["status"] for row in result["audit"]}
        assert statuses["a"] == "infeasible"


    def test_default_grid_through_run(self, capsys, tmp_path):
        """Without a viability family, run searches the default grid on the
        basis: GB prices the first component fairly and is refuted on the
        second, each refusal witnessed by a separating sign."""
        doc = json.loads(Path(TER1_GB).read_text(encoding="utf-8"))
        del doc["viability_family"]
        path = tmp_path / "gb_default_grid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, _ = run_json(capsys, "run", str(path), "--checks", "viability")
        assert code == 1
        (check,) = report["checks"]
        assert check["details"]["family_size"] == 8
        gb = check["details"]["enlargements"]["GB"]
        assert gb["viable"] is False
        infeasible = [r for r in gb["results"] if not r["feasible"]]
        assert [r["price"] for r in infeasible] == [
            "exp[1]*1/4", "exp[1]*-1/4", "exp[1]*3/8", "exp[1]*-3/8"]
        for result in infeasible:
            assert len(result["violations"]) == 2
            assert all(v["separating"] in (1, -1) for v in result["violations"])
        assert all(r["identity"] for r in gb["results"] if r["feasible"])

    def test_audit_rows_hold_the_nine_record_fields(self, capsys):
        for fixture in (TER1_GA, TER1_GB):
            _, report, _ = run_json(capsys, "viability", fixture)
            rows = [row for search in report["enlargements"].values()
                    for result in search["results"] for row in result["audit"]]
            assert rows and {tuple(sorted(row)) for row in rows} == {(
                "atom", "floor", "price_moves", "separating", "solution",
                "status", "subatoms", "time", "weights")}


@pytest.mark.parametrize("seed", range(50))
def test_report_walk_matches_reference(seed):
    """Every check's details as the exact-type walk and the isinstance walk
    make them JSON-ready, with the same JSON text."""
    ctx = CheckContext(random_scenario(seed), seed, mode="fuzz")
    for name, check in CHECKS.items():
        if check.needs_enlargement and not ctx.scenario.enlargements:
            continue
        try:
            _, details = check.runner(ctx)
        except NoRepresentation:
            continue
        new, old = _json_safe(details), cli_reference.json_safe(details)
        assert new == old
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_drift_check_tests_each_component_once(seed, monkeypatch):
    """Under the base flow, each basis component is tested as a martingale
    once per drift check, not once per enlargement; under each enlargement
    only its martingale part is tested."""
    ctx = CheckContext(random_scenario(seed), seed, "run")
    w = ctx.basis()
    flows = len(ctx.scenario.enlargements)
    assert flows > 1 and w.dim > 1
    tested = []
    original = Process.is_martingale

    def counted(self, filtration_like):
        tested.append(filtration_like)
        return original(self, filtration_like)

    monkeypatch.setattr(Process, "is_martingale", counted)
    assert run_check(ctx, "drift")["status"] == "pass"
    assert sum(f is ctx.tree for f in tested) == w.dim
    assert len(tested) == w.dim * (1 + flows)


def unweighted(scenario):
    """The reconstructed family of the scenario's basis with class weight 1
    at every time, where the construction puts 1/2^t."""
    w = scenario.basis_process()
    tree, width = w.tree, w.dim + 1
    base = tree.base_filtration()
    rebuilt = _reconstruct(w)
    rank_of = {sub: h for wit in rebuilt.witnesses
               for h, sub in enumerate(wit.subatoms)}

    def classes_at(t):
        return (base.parts[t], [rank_of[node.id] for node in tree.nodes_at[t]],
                [(1, (1,) * width)] * len(tree.nodes_at[t - 1]))

    return dataclasses.replace(
        rebuilt, process=Process._compensated_classes(base, width, classes_at))


@pytest.mark.parametrize("fixture", [BIN1, TER1_GA, TER1_GB],
                         ids=["bin1", "ter1_ga", "ter1_gb"])
def test_reconstruct_check_holds_the_class_weights(fixture):
    """The check passes the reconstructed family and fails one built without
    the 1/2^t weights, which still has the representation property and
    never jumps by more than 1."""
    scenario = load(fixture)
    assert run_check(CheckContext(scenario, 0, "run"), "reconstruct")["status"] == "pass"
    ctx = CheckContext(scenario, 0, "run")
    ctx.reconstructed = unweighted(scenario)
    row = run_check(ctx, "reconstruct")
    assert row["status"] == "fail"
    assert row["details"]["joint_mrp"] and row["details"]["events_disjoint"]
    assert Fraction(row["details"]["class_increment_bound"]) <= 1


class TestExplain:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_each_check_has_prose(self, capsys, name):
        code, out, _ = run_cli(capsys, "explain", name)
        assert code == 0
        assert len(out.strip()) > 40

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "explain", "zeta")
        assert code == 2
        assert "unknown check" in err


class TestTiming:
    def test_timing_flag_adds_seconds(self, capsys):
        code, report, _ = run_json(
            capsys, "run", TER1_GA, "--checks", "drift", "--timing")
        assert code == 0
        assert "timing" in report and "seconds" in report["timing"]


# JSON values a mutated scenario may hold where the fixture has something else
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["r", "a", "b", "c", "0", "1", "x", "1/3", "-1/2",
                       "1/0", "mrp", "drift", "viability", "kernel"])
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["0", "1", "x", "a"]),
                                     inner, max_size=3)),
    max_leaves=8)
_time_keys = st.sampled_from(["0", "1", "2", "-1", "x", " 1", "01"])
_mutations = st.one_of(
    st.tuples(st.just("node"), st.integers(0, 3),
              st.sampled_from(["id", "time", "parent", "prob"]), _json_values),
    st.tuples(st.just("cells"), _time_keys, _json_values),
    st.tuples(st.just("rekey"), st.sampled_from(["0", "1"]), _time_keys),
    st.tuples(st.just("value"), st.sampled_from(["W", "S"]),
              st.sampled_from(["r", "a", "b", "c", "u", "d", "z"]), _json_values),
    st.tuples(st.just("checks"), _json_values),
    st.tuples(st.just("drop"), st.integers(0, 99)),
)


def _fields(value):
    """(container, key) of every dict field and list item below value,
    depth first."""
    keys = (range(len(value)) if isinstance(value, list)
            else list(value) if isinstance(value, dict) else ())
    for key in keys:
        yield value, key
        yield from _fields(value[key])


def _mutate(doc, mutation):
    """Apply one mutation; one whose target an earlier deletion removed
    does nothing. Cells go to the document's first enlargement, or to a
    new one."""
    kind = mutation[0]
    if kind == "node":
        _, index, field, value = mutation
        if doc.get("nodes"):
            doc["nodes"][index % len(doc["nodes"])][field] = value
    elif kind in ("cells", "rekey"):
        flows = doc.setdefault("enlargements", {})
        flow = flows.setdefault(next(iter(flows), "G"), {})
        if kind == "cells":
            _, key, value = mutation
            flow[key] = value
        else:
            _, old, new = mutation
            flow[new] = flow.pop(old, None)
    elif kind == "value":
        _, name, node, value = mutation
        process = doc.get("processes", {}).get(name, {})
        if "values" in process:
            process["values"][node] = value
    elif kind == "checks":
        doc["checks"] = mutation[1]
    else:
        fields = list(_fields(doc))
        if fields:
            container, key = fields[mutation[1] % len(fields)]
            del container[key]


class TestMutatedScenarios:
    """Whatever a scenario file holds, run, check-mrp and viability exit 0,
    1 or 2, never raise and write no traceback."""

    @pytest.mark.parametrize("command", ["run", "check-mrp", "viability"])
    @pytest.mark.parametrize("fixture", [BIN1, TER1_GA, TER1_GB],
                             ids=["bin1", "ter1_ga", "ter1_gb"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(_mutations, min_size=1, max_size=3))
    @example([("cells", "0", [1, 2])])
    @example([("cells", "0", [[["a"]]])])
    @example([("cells", "0", [[{"x": 1}], ["b", "c"]])])
    @example([("cells", "x", [["a", "b", "c"]])])
    @example([("cells", "0", [[True], [False, 2]])])
    @example([("drop", 0)])
    def test_run_exit_code_contract(self, fixture, command, mutations):
        doc = json.loads(Path(fixture).read_text(encoding="utf-8"))
        for mutation in mutations:
            _mutate(doc, mutation)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([command, str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


def _node(node_id, time, parent, prob):
    return lambda doc: doc["nodes"].append(
        {"id": node_id, "time": time, "parent": parent, "prob": prob})


def _set(value, *keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


# (command, edits to ter1_gb or a fixture path, message on stderr)
_REFUSALS = {
    "horizon-below-zero": ("run", [_set(-1, "horizon")],
                           "horizon must be >= 0, got -1"),
    "duplicate-id": ("run", [_node("a", 1, "r", "1/3")], "duplicate node id 'a'"),
    # a child of a horizon node is past the horizon
    "past-the-horizon": ("run", [_node("d", 2, "a", "1")], "node 'd' has time 2"),
    "parentless-at-time-1": ("run", [_node("d", 1, None, None)],
                             "node 'd' has no parent but time 1"),
    # every node hangs under a parent one time earlier, so all reach the root
    "time-0-under-the-root": ("run", [_node("d", 0, "r", "1")],
                              "node 'd' at time 0 under parent at time 0"),
    "two-roots": ("run", [_node("r2", 0, None, None)],
                  "expected exactly one root, found 2"),
    "childless-non-terminal": ("run", [_set(2, "horizon")],
                               "non-terminal node 'a' has no children"),
    "declared-dim": ("run", [_set(3, "processes", "W", "dim")],
                     "declared dim 3, values have dim 2"),
    "missing-node-value": ("run", [_drop("processes", "W", "values", "c")],
                           "no value for nodes ['c']"),
    "empty-cell": ("run", [_set([["a", "b", "c"], []], "enlargements", "GB", "0")],
                   "empty cell in enlargement at time 0"),
    "leaf-index-99": ("run", [_set([[99], ["b"], ["c"]], "enlargements", "GB", "1")],
                      "leaf index 99 out of range"),
    "non-leaf-id": ("run", [_set([["r"]], "enlargements", "GB", "1")],
                    "node 'r' is not a leaf"),
    "check-needs-enlargement": (["run", BIN1, "--checks", "drift"], None,
                                "check 'drift' needs an enlargement"),
    "run-without-basis": ("run", [_drop("basis")],
                          'checks need a basis process; set "basis"'),
    "check-mrp-without-basis": ("check-mrp", [_drop("basis")],
                                "scenario has no basis process"),
    "viability-without-enlargement": (["viability", BIN1], None,
                                      "scenario has no enlargement"),
    "viability-without-family-or-basis": (
        "viability", [_drop("basis"), _drop("viability_family")],
        "scenario needs a viability family or a basis process"),
    "fuzz-horizon-0": (["fuzz", "--horizon", "0", "--count", "1"], None,
                       "random_tree needs horizon >= 1"),
}


@pytest.mark.parametrize("command, edits, message", list(_REFUSALS.values()),
                         ids=list(_REFUSALS))
def test_refusal_exits_2_with_its_message(capsys, tmp_path, command, edits, message):
    """Each refusal of bad input exits 2 with its own message and no
    traceback, through the command line."""
    if edits is None:
        argv = command
    else:
        doc = json.loads(Path(TER1_GB).read_text(encoding="utf-8"))
        for edit in edits:
            edit(doc)
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"

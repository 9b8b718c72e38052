"""Scenario documents: parse, serialize, and hash."""

import json
from pathlib import Path

import pytest

from filtration_lab.errors import ParseError
from filtration_lab.scenario import (
    Scenario,
    canonical_json,
    dumps,
    load,
    loads,
    parse_scenario,
    scenario_hash,
    scenario_to_doc,
)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "filtration_lab" / "fixtures"


def ter1_doc():
    return {
        "horizon": 1,
        "nodes": [
            {"id": "r", "time": 0, "parent": None, "prob": None},
            {"id": "a", "time": 1, "parent": "r", "prob": "1/3"},
            {"id": "b", "time": 1, "parent": "r", "prob": "1/3"},
            {"id": "c", "time": 1, "parent": "r", "prob": "1/3"},
        ],
        "enlargements": {"GA": {"0": [["a"], ["b", "c"]],
                                "1": [["a"], ["b"], ["c"]]}},
        "processes": {
            "W": {"dim": 2, "values": {"r": ["0", "0"], "a": ["1", "1"],
                                       "b": ["-1", "1"], "c": ["0", "-2"]}},
            "S": {"dim": 1, "values": {"r": ["1"], "a": ["3/2"],
                                       "b": ["1/2"], "c": ["1"]}},
        },
        "checks": ["drift", "multiplier"],
        "seed": 7,
        "basis": "W",
        "viability_family": ["S"],
    }


class TestParse:
    def test_round_trip_document(self):
        scenario = parse_scenario(ter1_doc())
        assert set(scenario.enlargements) == {"GA"}
        assert set(scenario.processes) == {"W", "S"}
        assert scenario.checks == ("drift", "multiplier")
        assert scenario.seed == 7
        assert scenario.basis_process() is scenario.processes["W"]
        assert scenario.family_processes() == [("S", scenario.processes["S"])]
        again = loads(dumps(scenario))
        assert dumps(again) == dumps(scenario)

    def test_minimal_document(self):
        doc = {"horizon": 0, "nodes": [
            {"id": "r", "time": 0, "parent": None, "prob": None}]}
        scenario = parse_scenario(doc)
        assert scenario.checks == ()
        assert scenario.seed == 0
        assert scenario.basis is None
        assert scenario.basis_process() is None

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            parse_scenario([1, 2])

    def test_unknown_key(self):
        doc = ter1_doc()
        doc["flavor"] = "salted"
        with pytest.raises(ParseError, match="flavor"):
            parse_scenario(doc)

    def test_missing_horizon(self):
        doc = ter1_doc()
        del doc["horizon"]
        with pytest.raises(ParseError, match="horizon"):
            parse_scenario(doc)

    def test_missing_nodes(self):
        with pytest.raises(ParseError, match="nodes"):
            parse_scenario({"horizon": 1})

    def test_node_not_object(self):
        with pytest.raises(ParseError):
            parse_scenario({"horizon": 0, "nodes": ["r"]})

    def test_float_probability_rejected(self):
        doc = ter1_doc()
        doc["nodes"][1]["prob"] = 0.3333
        with pytest.raises(ParseError):
            parse_scenario(doc)

    def test_bad_probability_string(self):
        doc = ter1_doc()
        doc["nodes"][1]["prob"] = "one third"
        with pytest.raises(ParseError):
            parse_scenario(doc)

    def test_float_process_value_rejected(self):
        doc = ter1_doc()
        doc["processes"]["S"]["values"]["a"] = [1.5]
        with pytest.raises(ParseError):
            parse_scenario(doc)

    @pytest.mark.parametrize("field, value", [
        ("horizon", 1.9), ("horizon", True), ("horizon", 1.0), ("time", 1.6),
        ("time", True)])
    def test_non_integer_times_rejected(self, field, value):
        # int() would truncate 1.9 and 1.6 and read True as 1
        doc = ter1_doc()
        if field == "horizon":
            doc["horizon"] = value
        else:
            doc["nodes"][1]["time"] = value
        with pytest.raises(ParseError, match=f"{field}.* must be an integer"):
            parse_scenario(doc)

    def test_bool_seed_rejected(self):
        doc = ter1_doc()
        doc["seed"] = True
        with pytest.raises(ParseError, match="seed"):
            parse_scenario(doc)

    def test_bool_dim_rejected(self):
        doc = ter1_doc()
        doc["processes"]["S"]["dim"] = True
        with pytest.raises(ParseError, match="dim"):
            parse_scenario(doc)

    def test_process_without_values(self):
        doc = ter1_doc()
        doc["processes"]["S"] = {"dim": 1}
        with pytest.raises(ParseError, match="values"):
            parse_scenario(doc)

    def test_unknown_basis(self):
        doc = ter1_doc()
        doc["basis"] = "missing"
        with pytest.raises(ParseError, match="missing"):
            parse_scenario(doc)

    def test_unknown_family_member(self):
        doc = ter1_doc()
        doc["viability_family"] = ["ghost"]
        with pytest.raises(ParseError, match="ghost"):
            parse_scenario(doc)

    def test_checks_must_be_strings(self):
        doc = ter1_doc()
        doc["checks"] = [1]
        with pytest.raises(ParseError):
            parse_scenario(doc)

    def test_invalid_json_text(self):
        with pytest.raises(ParseError, match="JSON"):
            loads("{not json")


class TestSerialize:
    def test_doc_round_trip_is_stable(self):
        scenario = parse_scenario(ter1_doc())
        doc = scenario_to_doc(scenario)
        assert dumps(parse_scenario(doc)) == dumps(scenario)

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_hash_is_stable(self):
        first = scenario_hash(parse_scenario(ter1_doc()))
        second = scenario_hash(parse_scenario(ter1_doc()))
        assert first == second
        assert len(first) == 16

    def test_hash_tracks_content(self):
        doc = ter1_doc()
        base = scenario_hash(parse_scenario(doc))
        doc["seed"] = 8
        assert scenario_hash(parse_scenario(doc)) != base

    def test_save_load_round_trip(self, tmp_path):
        scenario = parse_scenario(ter1_doc())
        path = tmp_path / "scenario.json"
        path.write_text(dumps(scenario) + "\n", encoding="utf-8")
        assert scenario_hash(load(path)) == scenario_hash(scenario)


class TestShippedFixtures:
    @pytest.mark.parametrize("name", ["bin1", "ter1_ga", "ter1_gb"])
    def test_fixture_parses(self, name):
        scenario = load(FIXTURES / f"{name}.json")
        assert isinstance(scenario, Scenario)
        assert scenario.checks

    def test_fixture_checks_named(self):
        ga = load(FIXTURES / "ter1_ga.json")
        assert "viability" not in ga.checks
        gb = load(FIXTURES / "ter1_gb.json")
        assert "viability" in gb.checks
        assert gb.viability_family == ("S",)

    def test_fixture_round_trip_hash(self):
        # pretty-printed files and their canonical re-dump agree on content
        for name in ("bin1", "ter1_ga", "ter1_gb"):
            scenario = load(FIXTURES / f"{name}.json")
            assert scenario_hash(loads(dumps(scenario))) == scenario_hash(scenario)

"""Batch front door: scenario runs, fuzz campaigns, focused reports.

Subcommands: run, fuzz, check-mrp, viability, explain. Reports are
deterministic given inputs and seed: canonical JSON with sorted keys, no
wall-clock content unless --timing is passed. Exit codes: 0 all checks pass,
1 a check failed, 2 bad input.

Every subcommand goes through one pipeline. A `CheckContext` derives what
the checks share from one scenario, each object once: the basis's rank
report, its jump measure, its constraint system, which keeps the slot
martingales it builds from successor masses (not from star integrals), and
the reconstructed family. A check runner maps the context to (ok,
details); `run_check` turns a basis without the representation property
into a failed row with its reason. The five checks under an enlargement are
each a body (name, enlargement) -> (good, row), which `_each_enlargement`
runs over the enlargements in name order. The focused reports reuse the
runners: check-mrp is the mrp check's details, and the viability audit rows
come through `_each_enlargement` too.

A fuzz failure is shrunk on the scenario's JSON document, keeping each
edit (drop an enlargement, the viability family or a spare process, cut the
horizon) that the parser accepts and the check still fails on. The
reproducer is that document, so `run repro-<seed>.json` replays it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import __version__
from .calculus import Process, _star_stack, jump_measure
from .constraint import (
    _accessible_converter,
    _expanded,
    _star_to_dot,
    constraint_martingales,
    detect_fpcc,
    slot_events_disjoint,
    value_slots_from_measure,
)
from .enlargement import (
    _drift,
    _law_identity,
    _verify_multiplier_stack,
    check_compensator_abs_continuity,
    check_full_viability,
    covariance_kernel,
    default_viability_family,
    g_star_consistency,
    solve_drift_multiplier,
    verify_fbd,
)
from .errors import FiltrationLabError, NoRepresentation, ParseError, UnknownCheck
from .fuzz import (
    _random_representables,
    random_increasing,
    random_jump_function,
    random_scenario,
    rng_for,
    undersized_basis,
    widest_branching,
)
from .rationals import ratio_text
from .representation import _reconstruct, check_mrp, menu_bound
from .scenario import (
    Scenario,
    canonical_json,
    load,
    parse_scenario,
    scenario_hash,
    scenario_to_doc,
)


class CheckContext:
    """One scenario's shared objects across checks, each built on first use."""

    def __init__(self, scenario: Scenario, seed: int, mode: str):
        self.scenario = scenario
        self.seed = seed
        self.mode = mode
        self.tree = scenario.tree

    def basis(self) -> Process:
        return self.scenario.basis_process()

    @cached_property
    def mrp(self):
        return check_mrp(self.basis())

    @cached_property
    def measure(self):
        return jump_measure(self.basis())

    @cached_property
    def constraint(self):
        return detect_fpcc(self.measure)

    @cached_property
    def reconstructed(self):
        # a raised NoRepresentation is not cached: fail on the cached report,
        # and build on it without ranking the basis again
        self.mrp.require()
        return _reconstruct(self.basis())


def _each_enlargement(ctx: CheckContext, body):
    """Run body(name, enlargement) -> (good, row) over the scenario's
    enlargements in name order; ok when every body is good."""
    ok = True
    rows = {}
    for name, enlargement in sorted(ctx.scenario.enlargements.items()):
        good, rows[name] = body(name, enlargement)
        ok = ok and good
    return ok, {"enlargements": rows}


_LEAVES = frozenset([str, int, bool, type(None)])


def _json_safe(value):
    """A JSON-ready copy of value: Fractions as strings, tuples as lists,
    dict keys as strings. Report details hold nothing but Fractions and the
    exact leaf and container types, so nothing else is dispatched."""
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is dict:
        return {str(k): _json_safe(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_json_safe(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _jump_counter(ctx: CheckContext) -> Process:
    """Cumulative count of the driver's jump nodes along each path."""
    nodes, locs = ctx.tree.base_filtration().parts, ctx.measure.locs
    return Process._accumulate(ctx.tree, (0,), lambda t: (nodes[t], 1, tuple(
        [(int(loc is not None),) for loc in locs[t]])))


# check runners: each returns (ok, details)

def _run_mrp(ctx: CheckContext):
    report = ctx.mrp
    details = {
        "holds": report.holds,
        "dim": report.dim,
        "ranks": {nid: list(pair) for nid, pair in sorted(report.ranks.items())},
        "failing_atom": report.failing_atom,
        "counterexample": report.counterexample,
        # successor classes: the child count m of the rank test
        "multiplicity": {f"{ctx.tree.nodes[nid].time + 1}:{nid}": m
                         for nid, (m, _) in report.ranks.items()},
    }
    if report.holds:
        details["constraint"] = menu_bound(ctx.constraint, report.dim).as_table()
    return report.holds, details


def _run_reconstruct(ctx: CheckContext):
    rebuilt, mu, cs = ctx.reconstructed, ctx.measure, ctx.constraint
    combined = Process.stack([rebuilt.process, constraint_martingales(mu, cs)])
    joint = check_mrp(combined)
    disjoint = slot_events_disjoint(mu, cs)
    x = rebuilt.process
    # the bound the 1/2^t class weights promise, |Delta X_t| < 1/2^t, and
    # the largest |Delta X_t| entry as (num, den), in one scan on ints
    within, num, den = True, 0, 1
    for t in range(1, x.tree.horizon + 1):
        _, d, incs = x._delta(t)
        m = max(abs(c) for inc in incs for c in inc)
        within = within and 2 ** t * m < d
        if m * den > num * d:
            num, den = m, d
    ok = joint.holds and disjoint and within
    return ok, {
        "d": rebuilt.d,
        "components": combined.dim,
        "joint_mrp": joint.holds,
        "events_disjoint": disjoint,
        "class_increment_bound": ratio_text(num, den),
    }


def _run_star_to_dot(ctx: CheckContext):
    mu, cs = ctx.measure, ctx.constraint
    base = ctx.tree.base_filtration()
    # the slots are normalized and their plan built once, and every route
    # runs once over the stack of the five samples, each read off its own
    # component
    convert_accessible = _accessible_converter(mu, value_slots_from_measure(mu), base)
    gs = [random_jump_function(mu, ctx.tree, rng_for(ctx.seed, "star-to-dot", str(j)))
          for j in range(5)]
    h, star, dot, forward = _star_to_dot(gs, mu, cs)
    back = _star_stack(_expanded(h, mu, cs, len(gs)), mu, base)
    *_, accessible = convert_accessible(gs, star)
    samples = [{"sample": j, "forward": f is None, "round_trip": r is None,
                "accessible": a is None}
               for j, (f, r, a) in enumerate(zip(forward, back._divergences(dot),
                                                 accessible))]
    ok = all(row["forward"] and row["round_trip"] and row["accessible"]
             for row in samples)
    return ok, {"n": cs.n, "samples": samples}


def _drift_table(drift: Process, filtration) -> dict:
    """The nonzero increments of a scalar drift, one per time-(t-1) atom,
    keyed "t:atom label": each the text of its Fraction, read off the int
    increment slice."""
    table = {}
    for t in range(1, filtration.tree.horizon + 1):
        part, den, nums = drift._delta(t)
        block_of = part.block_of
        for atom in filtration.parts[t - 1].atoms:
            (num,) = nums[block_of[atom.leaves[0]]]
            if num:
                table[f"{t}:{atom.label}"] = ratio_text(num, den)
    return table


def _run_drift(ctx: CheckContext):
    components = ctx.basis().components()
    for component in components:  # once per check, not once per enlargement
        component.require_martingale(ctx.tree, what="drift input")

    def body(name, enlargement):
        filtration = enlargement.filtration()
        ok = True
        rows = []
        for i, component in enumerate(components):
            result = _drift(component, filtration)
            good = (result.g_martingale.is_martingale(filtration)
                    and result.drift.is_predictable(filtration))
            ok = ok and good
            rows.append({"component": i, "decomposed": good,
                         "drift": _drift_table(result.drift, filtration)})
        return ok, rows

    return _each_enlargement(ctx, body)


def _phi_table(phi: Process, filtration) -> dict:
    """phi on every time-(t-1) atom of the flow, grouped under the base
    node holding it, keyed "t:node label": each vector the texts of its
    Fractions, zeros kept, read off phi's int slices."""
    nodes, subs = filtration.tree.base_filtration().parts, filtration.parts
    table = {}
    for t in range(1, filtration.tree.horizon + 1):
        block_of, den, nums = phi.parts[t].block_of, phi.dens[t], phi.nums[t]
        atoms = subs[t - 1].atoms
        for node, pieces in zip(nodes[t - 1].atoms,
                                subs[t - 1].pieces_table(nodes[t - 1])):
            table[f"{t}:{node.label}"] = {
                atoms[k].label: [ratio_text(num, den)
                                 for num in nums[block_of[atoms[k].leaves[0]]]]
                for k, _ in pieces}
    return table


def _run_multiplier(ctx: CheckContext):
    rebuilt = ctx.reconstructed

    def body(name, enlargement):
        solution = solve_drift_multiplier(enlargement, rebuilt)
        # the three samples are drawn only when the identity holds on the
        # family, and verified as one stack, each sample on its own component
        good = solution.holds and _verify_multiplier_stack(
            solution, _random_representables(ctx.basis(), [
                rng_for(ctx.seed, "multiplier", name, str(j)) for j in range(3)]),
            enlargement)
        return good, {"holds": solution.holds, "verified_samples": 3,
                      "phi": _phi_table(solution.phi, enlargement.filtration())}

    return _each_enlargement(ctx, body)


def _viability_family(scenario: Scenario):
    """The scenario's own price family, else the default grid on its basis."""
    family = scenario.family_processes()
    if family:
        return family
    if scenario.basis is None:
        raise ParseError("scenario needs a viability family or a basis process")
    return default_viability_family(scenario.basis_process())


def _run_viability(ctx: CheckContext):
    family = _viability_family(ctx.scenario)

    def body(name, enlargement):
        report = check_full_viability(enlargement, family)
        identities = True
        rows = []
        for price_name, search in report.results:
            if search.feasible:
                fair = verify_fbd(search.deflator.target, search.deflator,
                                  enlargement)
                identities = identities and fair
                rows.append({"price": price_name, "feasible": True,
                             "identity": fair})
            else:
                witnesses = [{"time": v.time, "atom": v.atom,
                              "separating": v.separating}
                             for v in search.violations]
                identities = identities and all(
                    v.separating is not None for v in search.violations)
                rows.append({"price": price_name, "feasible": False,
                             "violations": witnesses})
        return identities, {"viable": report.viable, "results": rows}

    identities, details = _each_enlargement(ctx, body)
    economic = all(block["viable"] for block in details["enlargements"].values())
    ok = identities if ctx.mode == "fuzz" else (economic and identities)
    return ok, {"family_size": len(family), **details}


def _run_kernel(ctx: CheckContext):
    rebuilt = ctx.reconstructed

    def body(name, enlargement):
        ok = True
        rows = []
        for witness in rebuilt.witnesses:
            certificate = covariance_kernel(enlargement, rebuilt,
                                            witness.time, witness.atom)
            ok = ok and certificate.holds
            rows.append({"time": witness.time, "atom": witness.atom,
                         "kernel_dim": len(certificate.kernel_ints),
                         "holds": certificate.holds})
        return ok, rows

    return _each_enlargement(ctx, body)


def _run_consistency(ctx: CheckContext):
    mu = ctx.measure
    counter = _jump_counter(ctx)

    def body(name, enlargement):
        count_ok, witness = check_compensator_abs_continuity(counter,
                                                             enlargement)
        extra = random_increasing(ctx.tree,
                                  rng_for(ctx.seed, "consistency", name))
        extra_ok, extra_witness = check_compensator_abs_continuity(extra,
                                                                   enlargement)
        law_ok, law_witness = _law_identity(mu, enlargement)
        g = random_jump_function(mu, ctx.tree,
                                 rng_for(ctx.seed, "consistency", name, "0"))
        # a law that fails the identity may charge a point g does not hold
        star_ok = law_ok and g_star_consistency(g, mu, enlargement)
        return count_ok and extra_ok and star_ok, {
            "counter_scan": count_ok,
            "random_scan": extra_ok,
            "star": star_ok,
            "witness": witness or extra_witness or law_witness,
        }

    return _each_enlargement(ctx, body)


@dataclass(frozen=True)
class CheckDef:
    runner: object
    needs_enlargement: bool
    explain: str


CHECKS = {
    "mrp": CheckDef(
        runner=_run_mrp, needs_enlargement=False,
        explain=(
            "Tests whether the scenario basis can represent every "
            "martingale: at each non-terminal node the centered one-step "
            "increments must span the mean-zero directions over its "
            "children, i.e. have rank one less than the child count. "
            "Passes when every node spans; otherwise the report names the "
            "first failing atom and an unrepresentable mean-zero "
            "direction.")),
    "reconstruct": CheckDef(
        runner=_run_reconstruct, needs_enlargement=False,
        explain=(
            "Rebuilds a representation family from the tree itself: "
            "successor-class indicator martingales weighted 1/2^t per "
            "time, stacked with the compensated jump-location indicators "
            "of the basis. Passes when the stacked family has the "
            "representation property, each charged location matches "
            "exactly one slot, and the class-indicator increments stay "
            "strictly below 1/2^t in absolute value at every time t.")),
    "star-to-dot": CheckDef(
        runner=_run_star_to_dot, needs_enlargement=False,
        explain=(
            "Converts compensated jump-measure integrals into dot "
            "integrals against the compensated location-indicator "
            "martingales and back, plus the accessible-time class "
            "version. Passes when every conversion agrees with the "
            "original node for node, in exact arithmetic, for seeded "
            "random jump functions.")),
    "drift": CheckDef(
        runner=_run_drift, needs_enlargement=True,
        explain=(
            "Decomposes each basis component under each enlargement into "
            "a martingale for the enlarged flow plus a predictable drift. "
            "Passes when the drift is predictable for the enlarged flow "
            "and the remainder is an exact martingale; the report "
            "tabulates the nonzero drift increments per conditioning "
            "atom.")),
    "multiplier": CheckDef(
        runner=_run_multiplier, needs_enlargement=True,
        explain=(
            "Finds one pair (N, phi) expressing the enlarged-flow drift "
            "of every representable martingale X as the phi-weighted "
            "integral of the base predictable bracket of N and X. Passes "
            "when the defining identity holds exactly for the "
            "reconstructed family's components and for seeded "
            "representable test martingales.")),
    "viability": CheckDef(
        runner=_run_viability, needs_enlargement=True,
        explain=(
            "Searches each enlargement for deflators: per conditioning "
            "atom, strictly positive reweightings of the successor atoms "
            "keeping each family price fair, found by maximizing the "
            "minimum weight in closed form. Passes when every price "
            "admits a deflator and the deflator drift identity verifies; "
            "otherwise it lists the violating atoms, each with a one-sided "
            "price-move witness.")),
    "kernel": CheckDef(
        runner=_run_kernel, needs_enlargement=True,
        explain=(
            "Certifies the per-atom covariance step C of the "
            "reconstructed family: its null space is spanned by the "
            "all-ones direction on charged classes together with the "
            "units of empty classes, and the pseudo-inverse J built on "
            "the charged sum-zero directions gives J C = P, the centring "
            "of the charged classes. The family's components are pathwise "
            "orthogonal: each increment sums to 0 over its atom's charged "
            "classes and vanishes on the empty ones, so every "
            "enlarged-flow atom's covariance step M satisfies M = M J C "
            "whatever the flow; the check tests that once per basis. "
            "Passes when all of these hold at every atom.")),
    "consistency": CheckDef(
        runner=_run_consistency, needs_enlargement=True,
        explain=(
            "Coherence of compensators across flows: increments null "
            "under the base compensator must stay null under the "
            "enlargement, checked for the driver's jump counter and a "
            "seeded increasing process. The enlarged-flow compensator of "
            "the driver's jumps must equal, at every time and enlarged "
            "atom, the conditional law of the jump given that atom, summed "
            "from the leaf masses; this holds exactly when every "
            "base-anchored jump function integrates under the enlarged "
            "flow to the drift-corrected base integral, which one seeded "
            "jump function also checks. Passes when all of these hold "
            "exactly.")),
}


def _lookup(name: str) -> CheckDef:
    if name not in CHECKS:
        raise UnknownCheck(
            f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return CHECKS[name]


def _validate_checks(scenario: Scenario, names):
    checks = [_lookup(name) for name in names]
    if names and scenario.basis is None:
        raise ParseError("checks need a basis process; set \"basis\"")
    for name, check in zip(names, checks):
        if check.needs_enlargement and not scenario.enlargements:
            raise ParseError(f"check {name!r} needs an enlargement")


def run_check(ctx: CheckContext, name: str) -> dict:
    try:
        ok, details = CHECKS[name].runner(ctx)
    except NoRepresentation as exc:
        ok, details = False, {"reason": str(exc)}
    return {"name": name, "status": "pass" if ok else "fail",
            "details": _json_safe(details)}


def _report(kind: str, ok: bool, **fields) -> tuple[dict, int]:
    """Wrap a report body in the common envelope; returns (report, exit code)."""
    report = {"tool": "filtration-lab", "version": __version__, "kind": kind,
              **fields, "verdict": "pass" if ok else "fail"}
    return report, 0 if ok else 1


def run_scenario(path, checks=None, seed=None) -> tuple[dict, int]:
    """Execute a scenario's checks; returns (report, exit code)."""
    scenario = load(path)
    names = tuple(checks) if checks is not None else scenario.checks
    _validate_checks(scenario, names)
    if seed is None:
        seed = scenario.seed
    ctx = CheckContext(scenario, seed, mode="run")
    rows = [run_check(ctx, name) for name in names]
    return _report("run", all(r["status"] == "pass" for r in rows),
                   scenario_hash=scenario_hash(scenario), seed=seed,
                   checks=rows)


def _adversarial_probe(scenario: Scenario, seed: int):
    """Deliberately undersized driver: the rank test must reject it."""
    if widest_branching(scenario.tree) < 3:
        return None
    bad = undersized_basis(scenario.tree, rng_for(seed, "adversarial"))
    report = check_mrp(bad)
    return {
        "name": "mrp-adversarial",
        "status": "pass" if not report.holds else "fail",
        "details": {"dim": bad.dim, "failing_atom": report.failing_atom},
    }


def _cut_horizon(doc: dict, horizon: int) -> dict:
    """The scenario document at an earlier horizon: later nodes, times and
    table entries dropped, each enlargement cell's leaves replaced by their
    time-horizon ancestors. A cell that splits a new leaf then shares it
    with another cell, which the parser rejects."""
    top = {}  # each node's ancestor at the horizon; parents are listed first
    for node in doc["nodes"]:
        top[node["id"]] = (node["id"] if node["time"] <= horizon
                           else top[node["parent"]])
    nodes = [node for node in doc["nodes"] if node["time"] <= horizon]
    kept = {node["id"] for node in nodes}
    enlargements = {
        name: {t: [list(dict.fromkeys(top[leaf] for leaf in cell)) for cell in cells]
               for t, cells in parts.items() if int(t) <= horizon}
        for name, parts in doc["enlargements"].items()}
    processes = {
        name: dict(entry, values={nid: value for nid, value
                                  in entry["values"].items() if nid in kept})
        for name, entry in doc["processes"].items()}
    return dict(doc, horizon=horizon, nodes=nodes, enlargements=enlargements,
                processes=processes)


def minimize_failure(scenario: Scenario, check_name: str, seed: int) -> dict:
    """Greedy shrink of a failing fuzz scenario's document, keeping the
    failure: drop enlargements down to one, the viability family, spare
    processes, then cut the horizon. parse_scenario decides whether a
    candidate is a scenario at all, and the check whether it still fails.
    """

    def still_fails(doc):
        try:
            candidate = parse_scenario(doc)
            _validate_checks(candidate, (check_name,))
            ctx = CheckContext(candidate, seed, mode="fuzz")
            return run_check(ctx, check_name)["status"] != "pass"
        except FiltrationLabError:
            return False

    def without(doc, key, name):
        return dict(doc, **{key: {k: v for k, v in doc[key].items() if k != name}})

    current = dict(scenario_to_doc(scenario), checks=[check_name])
    for name in sorted(current["enlargements"]):
        if len(current["enlargements"]) == 1:
            break
        trial = without(current, "enlargements", name)
        if still_fails(trial):
            current = trial
    if check_name != "viability" and "viability_family" in current:
        trial = {k: v for k, v in current.items() if k != "viability_family"}
        if still_fails(trial):
            current = trial
    for name in sorted(current["processes"]):
        if name == current["basis"] or name in current.get("viability_family", ()):
            continue
        trial = without(current, "processes", name)
        if still_fails(trial):
            current = trial
    for horizon in range(1, current["horizon"]):
        trial = _cut_horizon(current, horizon)
        if still_fails(trial):
            current = trial
            break
    return current


def fuzz_campaign(seed_start, count, checks=None, horizon=None,
                  max_branching=None, repro_dir=".") -> tuple[dict, int]:
    """Run the check registry over seeded random scenarios."""
    names = tuple(checks) if checks else tuple(CHECKS)
    for name in names:
        _lookup(name)
    if count < 1:
        raise ParseError(f"fuzz count must be at least 1, got {count}")
    params = {
        "seed_start": seed_start,
        "count": count,
        "checks": list(names),
        "horizon": horizon,
        "max_branching": max_branching,
    }
    results = []
    failures = 0
    for seed in range(seed_start, seed_start + count):
        scenario = random_scenario(seed, horizon=horizon,
                                   max_branching=max_branching, checks=names)
        ctx = CheckContext(scenario, seed, mode="fuzz")
        rows = [run_check(ctx, name) for name in names]
        probe = _adversarial_probe(scenario, seed)
        if probe is not None:
            rows.append(probe)
        failing = [r["name"] for r in rows if r["status"] != "pass"]
        entry = {
            "seed": seed,
            "verdict": "fail" if failing else "pass",
            "checks": [{"name": r["name"], "status": r["status"]}
                       for r in rows],
        }
        if failing:
            failures += 1
            entry["failing"] = failing
            culprit = next((n for n in failing if n in CHECKS), None)
            if culprit is not None:
                reduced = minimize_failure(scenario, culprit, seed)
                path = os.path.join(repro_dir, f"repro-{seed}.json")
                _write(path, canonical_json(reduced) + "\n")
                entry["reproducer"] = path
        results.append(entry)
    digest = hashlib.sha256(canonical_json(params).encode("utf-8"))
    return _report("fuzz", failures == 0, params=params,
                   params_hash=digest.hexdigest()[:16],
                   results=results, failures=failures)


def check_mrp_report(path) -> tuple[dict, int]:
    """Focused rank report: the mrp check's details, its verdict as mrp."""
    scenario = load(path)
    if scenario.basis is None:
        raise ParseError("scenario has no basis process")
    ok, details = _run_mrp(CheckContext(scenario, scenario.seed, mode="run"))
    details["mrp"] = details.pop("holds")
    return _report("check-mrp", ok, scenario_hash=scenario_hash(scenario),
                   **_json_safe(details))


# the rendered fields of an enlargement.AtomAudit
_AUDIT_KEYS = ("time", "atom", "subatoms", "weights", "price_moves", "status",
              "floor", "solution", "separating")


def viability_report(path) -> tuple[dict, int]:
    """Focused deflator search with the full per-atom audit."""
    scenario = load(path)
    if not scenario.enlargements:
        raise ParseError("scenario has no enlargement")
    family = _viability_family(scenario)

    def body(name, enlargement):
        report = check_full_viability(enlargement, family)
        return report.viable, {"viable": report.viable, "results": [{
            "price": price_name,
            "feasible": search.feasible,
            "violations": [a.atom for a in search.violations],
            "audit": [{key: getattr(row, key) for key in _AUDIT_KEYS}
                      for row in search.audit],
        } for price_name, search in report.results]}

    viable, details = _each_enlargement(
        CheckContext(scenario, scenario.seed, mode="run"), body)
    return _report("viability", viable, scenario_hash=scenario_hash(scenario),
                   family_size=len(family), **_json_safe(details))


def explain(name: str) -> str:
    return _lookup(name).explain


# rendering

def render_table(report) -> str:
    lines = [f"filtration-lab {report['version']}"]
    if "scenario_hash" in report:
        lines[0] += f"  scenario {report['scenario_hash']}"
    if "seed" in report:
        lines[0] += f"  seed {report['seed']}"
    if report["kind"] == "run":
        width = max((len(r["name"]) for r in report["checks"]), default=5)
        for row in report["checks"]:
            lines.append(f"  {row['name']:<{width}}  {row['status']}")
    elif report["kind"] == "fuzz":
        lines.append(f"  seeds {report['params']['seed_start']}"
                     f"..{report['params']['seed_start'] + report['params']['count'] - 1}"
                     f"  failures {report['failures']}")
        for entry in report["results"]:
            if entry["verdict"] != "pass":
                lines.append(f"  seed {entry['seed']}: fail "
                             f"({', '.join(entry['failing'])})"
                             + (f" -> {entry['reproducer']}"
                                if "reproducer" in entry else ""))
    elif report["kind"] == "check-mrp":
        lines.append(f"  mrp: {report['mrp']} (dim {report['dim']})")
        if report["failing_atom"] is not None:
            lines.append(f"  failing atom: {report['failing_atom']}"
                         f"  counterexample: {report['counterexample']}")
        for key in sorted(report["multiplicity"]):
            lines.append(f"  multiplicity {key}: {report['multiplicity'][key]}")
    elif report["kind"] == "viability":
        for name in sorted(report["enlargements"]):
            block = report["enlargements"][name]
            lines.append(f"  {name}: {'viable' if block['viable'] else 'not viable'}")
            for row in block["results"]:
                if not row["feasible"]:
                    lines.append(f"    {row['price']}: violations "
                                 f"{', '.join(row['violations'])}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def emit(report, args) -> None:
    text = (json.dumps(report, sort_keys=True, indent=2) + "\n"
            if args.format == "json" else render_table(report))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _split_checks(raw):
    if raw is None:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="filtration-lab",
        description="Exact checks for event-tree martingale scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--timing", action="store_true",
                       help="append wall-clock seconds (breaks byte-identical output)")

    p_run = sub.add_parser("run", help="run a scenario's checks")
    p_run.add_argument("scenario")
    p_run.add_argument("--checks", default=None,
                       help="comma-separated override of the scenario's list")
    common(p_run)

    p_fuzz = sub.add_parser("fuzz", help="run checks over random scenarios")
    p_fuzz.add_argument("--count", type=int, default=20)
    p_fuzz.add_argument("--checks", default=None)
    p_fuzz.add_argument("--horizon", type=int, default=None)
    p_fuzz.add_argument("--branching", type=int, default=None)
    p_fuzz.add_argument("--repro-dir", default=".")
    common(p_fuzz)

    p_mrp = sub.add_parser("check-mrp", help="rank report for the basis")
    p_mrp.add_argument("scenario")
    common(p_mrp)

    p_via = sub.add_parser("viability", help="deflator search with audit")
    p_via.add_argument("scenario")
    common(p_via)

    p_exp = sub.add_parser("explain", help="what a check verifies")
    p_exp.add_argument("check")

    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "run":
            report, code = run_scenario(args.scenario,
                                        checks=_split_checks(args.checks),
                                        seed=args.seed)
        elif args.command == "fuzz":
            report, code = fuzz_campaign(
                args.seed if args.seed is not None else 0,
                args.count, checks=_split_checks(args.checks),
                horizon=args.horizon, max_branching=args.branching,
                repro_dir=args.repro_dir)
        elif args.command == "check-mrp":
            report, code = check_mrp_report(args.scenario)
        elif args.command == "viability":
            report, code = viability_report(args.scenario)
        else:
            sys.stdout.write(explain(args.check) + "\n")
            return 0
        if args.timing:
            report["timing"] = {"seconds": round(time.monotonic() - started, 3)}
        emit(report, args)
    except FiltrationLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

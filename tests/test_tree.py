"""Event trees, filtrations, conditional expectations, enlargements."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtration_lab import (
    StoppingTime,
    build_tree,
    conditional_expectation,
    enlarge,
    random_tree,
)
from filtration_lab.errors import (
    DanglingNode,
    NonPositiveProbability,
    NotARefinement,
    NotAStoppingTime,
    NotMonotone,
    ProbabilitySumNotOne,
    TimeOutOfRange,
)
from filtration_lab.fuzz import random_scenario

F = Fraction


class TestBuildTree:
    def test_bin1_shape(self, bin1):
        assert bin1.horizon == 1
        assert len(bin1.nodes) == 3
        assert bin1.n_leaves == 2
        assert bin1.leaf_probs == [F(1, 2), F(1, 2)]

    def test_ter1_shape(self, ter1):
        assert len(ter1.nodes) == 4
        assert ter1.n_leaves == 3
        assert sum(ter1.leaf_probs) == 1

    def test_probability_sum_checked(self):
        with pytest.raises(ProbabilitySumNotOne):
            build_tree({
                "horizon": 1,
                "nodes": [
                    {"id": "r", "time": 0, "parent": None, "prob": None},
                    {"id": "u", "time": 1, "parent": "r", "prob": "1/2"},
                    {"id": "d", "time": 1, "parent": "r", "prob": "1/3"},
                ],
            })

    def test_zero_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            build_tree({
                "horizon": 1,
                "nodes": [
                    {"id": "r", "time": 0, "parent": None, "prob": None},
                    {"id": "u", "time": 1, "parent": "r", "prob": "1"},
                    {"id": "d", "time": 1, "parent": "r", "prob": "0"},
                ],
            })

    def test_dangling_parent_rejected(self):
        with pytest.raises(DanglingNode):
            build_tree({
                "horizon": 1,
                "nodes": [
                    {"id": "r", "time": 0, "parent": None, "prob": None},
                    {"id": "u", "time": 1, "parent": "ghost", "prob": "1"},
                ],
            })

    def test_spec_round_trip(self, ter1):
        assert build_tree(ter1.to_spec()).to_spec() == ter1.to_spec()


class TestConditionalExpectation:
    def test_mean_zero_at_root(self, ter1):
        assert conditional_expectation([1, -1, 0], 0, ter1) == {"r": F(0)}

    def test_enlarged_atom_averages(self, ter1, ga):
        # oracle: (-1 * 1/3 + 0 * 1/3) / (2/3) = -1/2 on {b, c}
        values = conditional_expectation([1, -1, 0], 0, ga)
        assert values == {"a": F(1), "b|c": F(-1, 2)}

    def test_constants_are_fixed_points(self, bin1):
        assert conditional_expectation([5, 5], 0, bin1) == {"r": F(5)}

    def test_time_out_of_range(self, bin1):
        with pytest.raises(TimeOutOfRange):
            conditional_expectation([1, 2], 5, bin1)

    def test_tower_property_on_random_trees(self):
        from filtration_lab.tree import conditional_expectation_leafwise
        for seed in range(6):
            tree = random_tree(seed, horizon=3, max_branching=3)
            x = [F(i * i - 3, 2) for i in range(tree.n_leaves)]
            for s in range(3):
                for t in range(s, 4):
                    inner = conditional_expectation_leafwise(x, t, tree)
                    assert (conditional_expectation_leafwise(inner, s, tree)
                            == conditional_expectation_leafwise(x, s, tree))

    def test_enlargement_tower_into_base(self, ter1, ga):
        from filtration_lab.tree import conditional_expectation_leafwise
        x = [F(7), F(-2), F(5)]
        fine = conditional_expectation_leafwise(x, 0, ga)
        assert (conditional_expectation_leafwise(fine, 0, ter1)
                == conditional_expectation_leafwise(x, 0, ter1))


class TestEnlarge:
    def test_ga_valid(self, ga):
        atoms0 = [a.label for a in ga.filtration().atoms(0)]
        assert sorted(atoms0) == ["a", "b|c"]

    def test_gb_valid(self, gb):
        atoms0 = [a.label for a in gb.filtration().atoms(0)]
        assert sorted(atoms0) == ["a|b", "c"]

    def test_coarser_than_base_rejected(self, ter1):
        # time-1 base atoms are singletons; {a, b} cannot be a G1 cell
        with pytest.raises(NotARefinement):
            enlarge(ter1, {0: [["a"], ["b"], ["c"]],
                           1: [["a", "b"], ["c"]]})

    def test_non_monotone_rejected(self, two_step):
        # each partition refines the base at its own time, but the time-1
        # cells split a time-0 cell
        with pytest.raises(NotMonotone):
            enlarge(two_step, {0: [["uu", "ud", "du"], ["dm", "dd"]],
                               1: [["uu", "ud"], ["du", "dm", "dd"]]})

    def test_missing_times_default_to_refinement(self, ter1):
        g = enlarge(ter1, {0: [["a"], ["b", "c"]]})
        assert sorted(a.label for a in g.filtration().atoms(1)) == ["a", "b", "c"]

    def test_atoms_partition_leaves(self, ga):
        filtration = ga.filtration()
        for t in range(2):
            seen = sorted(i for atom in filtration.atoms(t) for i in atom.leaves)
            assert seen == list(range(3))


class TestAtomsWithin:
    """Partition.pieces, the one atom index, against a subset scan."""

    def test_matches_subset_scan(self):
        for seed in range(30):
            scenario = random_scenario(seed)
            tree = scenario.tree
            flows = [tree.base_filtration()] + [
                e.filtration() for e in scenario.enlargements.values()]
            for fine in flows:
                for t in range(1, tree.horizon + 1):
                    for coarse in (tree.base_filtration(), fine):
                        for atom in coarse.atoms(t - 1):
                            inside = set(atom.leaves)
                            scan = tuple((sub.index, sub.mass)
                                         for sub in fine.atoms(t)
                                         if set(sub.leaves) <= inside)
                            assert fine.parts[t].pieces(atom) == scan


class TestRandomTree:
    def test_deterministic_per_seed(self):
        assert (random_tree(0, horizon=2, max_branching=3).to_spec()
                == random_tree(0, horizon=2, max_branching=3).to_spec())

    def test_seeds_differ(self):
        specs = {str(random_tree(seed, horizon=2, max_branching=3).to_spec())
                 for seed in range(6)}
        assert len(specs) > 1

    def test_single_path_when_branching_one(self):
        tree = random_tree(3, horizon=3, max_branching=1)
        assert tree.n_leaves == 1
        assert all(len(node.children) <= 1 for node in tree.nodes.values())

    def test_long_chain(self):
        # deeper than the interpreter's default recursion limit
        tree = random_tree(5, horizon=1500, max_branching=1)
        assert tree.n_leaves == 1
        assert [len(row) for row in tree.nodes_at] == [1] * 1501
        assert tree.root.leaves() == (0,)
        assert build_tree(tree.to_spec()).leaf_ids == tree.leaf_ids

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariants_always_hold(self, seed):
        tree = random_tree(seed, horizon=3, max_branching=4)
        for node in tree.nodes.values():
            if node.children:
                total = sum((c.branch_prob for c in node.children), start=F(0))
                assert total == 1
                assert all(c.branch_prob > 0 for c in node.children)
                assert all(c.time == node.time + 1 for c in node.children)


class TestStoppingTime:
    def test_constant_time_is_predictable(self, ter1):
        tau = StoppingTime.constant(ter1, 1)
        assert tau.is_predictable()

    def test_non_measurable_rejected(self, two_step):
        # {tau <= 1} = {uu} is not a union of time-1 atoms
        with pytest.raises(NotAStoppingTime, match="cuts through node u$"):
            StoppingTime(two_step, [1, 2, 2, 2, 2])

    def test_infinity_sentinel(self, bin1):
        tau = StoppingTime(bin1, [2, 2])  # horizon + 1 means never
        assert list(tau.graph_at(1)) == []

    @pytest.mark.parametrize("value", [1.9, 1.0, F(3, 2), True, "1"])
    def test_non_integral_values_rejected(self, bin1, value):
        # int() used to truncate 1.9 and 3/2 to 1 and read True as 1
        with pytest.raises(NotAStoppingTime):
            StoppingTime(bin1, [value, 1])
        with pytest.raises(NotAStoppingTime):
            StoppingTime.constant(bin1, value)

    def test_constant_matches_validated_constructor(self):
        # constant skips the leaf walks; it must accept and reject exactly
        # what the walking constructor does, with the same message
        def outcome(build):
            try:
                tau = build()
            except NotAStoppingTime as exc:
                return "error", str(exc)
            return tau.values, tau.infinity, tau.is_predictable()

        for seed in range(50):
            tree = random_tree(seed, horizon=1 + seed % 3)
            top = tree.horizon + 1
            for t in [*range(top + 1), -1, top + 1, 1.5]:
                new = outcome(lambda: StoppingTime.constant(tree, t))
                old = outcome(lambda: StoppingTime(tree, [t] * tree.n_leaves))
                assert new == old
                assert (new[0] == "error") == (t not in range(top + 1))

    def test_integral_fraction_accepted(self, bin1):
        assert StoppingTime(bin1, [F(2, 2), 1]).values == (1, 1)

    def test_node_walk_matches_atom_loops(self):
        # the atom-by-atom loops the node walk replaced, as the reference
        def ref_is_stopping_time(tree, vals):
            return all(len({vals[i] <= t for i in atom.leaves}) == 1
                       for t in range(tree.horizon + 1)
                       for atom in tree.base_filtration().atoms(t))

        def ref_is_predictable(tree, vals):
            zero_set = {i for i, v in enumerate(vals) if v == 0}
            if zero_set and len(zero_set) != tree.n_leaves:
                return False
            return all(len({vals[i] == t for i in atom.leaves}) == 1
                       for t in range(1, tree.horizon + 1)
                       for atom in tree.base_filtration().atoms(t - 1))

        def stopped(tree, rng, lag):
            # stop below a node drawn top down, at its time plus lag: with
            # lag 1 the stop is known one step ahead, so tau is predictable
            vals = [tree.horizon + 1] * tree.n_leaves
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if rng.random() < 0.3:
                    for i in node.leaves():
                        vals[i] = node.time + lag
                else:
                    stack.extend(node.children)
            return vals

        outcomes = set()
        for seed in range(50):
            tree = random_tree(seed, horizon=3, max_branching=3)
            rng = random.Random(seed)
            top = tree.horizon + 1
            cases = [stopped(tree, rng, 0), stopped(tree, rng, 1),
                     [rng.randint(0, top)] * tree.n_leaves,
                     [rng.randint(0, top) for _ in range(tree.n_leaves)]]
            for vals in cases[:3]:  # each also with one leaf moved
                moved = list(vals)
                moved[rng.randrange(tree.n_leaves)] = rng.randint(0, top)
                cases.append(moved)
            for vals in cases:
                if not ref_is_stopping_time(tree, vals):
                    with pytest.raises(NotAStoppingTime, match="cuts through node"):
                        StoppingTime(tree, vals)
                    outcomes.add(None)
                    continue
                predictable = StoppingTime(tree, vals).is_predictable()
                assert predictable == ref_is_predictable(tree, vals)
                outcomes.add(predictable)
        assert outcomes == {None, False, True}

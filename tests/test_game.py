import json

import numpy as np
import pytest

from keyshare import (CoalitionGame, DegradedSourceSpec, ValidationError,
                      build_degraded_source, clearance_level_games,
                      conditional_mi, core_bounds, core_contains, excess,
                      is_superadditive, is_supermodular,
                      shapley_from_game, sorted_excess_vector, nucleolus,
                      value_function, value_function_conditional,
                      w_is_submodular)
from keyshare.game import coalition_sums
from keyshare.source import JointSource, attach_z

from conftest import (EXAMPLE2_VALUES, brute_conditional_mi,
                      random_degraded_spec)


class TestValueFunction:
    def test_example2_table(self, example2_game):
        for mask, expected in EXAMPLE2_VALUES.items():
            assert example2_game.value(mask) == pytest.approx(expected, abs=1e-5)

    def test_uninformative_agents_give_zero_game(self):
        src = build_degraded_source(DegradedSourceSpec(q=0.4, p=(0.5, 0.5)))
        game = value_function(src)
        assert np.allclose(game.values, 0.0, atol=1e-10)

    def test_single_agent(self):
        src = build_degraded_source(DegradedSourceSpec(q=0.4, p=(0.2,)))
        game = value_function(src)
        assert game.value(1) == pytest.approx(conditional_mi(src, 1), abs=1e-12)

    def test_rejects_non_degraded_source(self):
        prob = np.zeros((2, 2, 2))
        q, p = 0.4, 0.2
        for x0 in (0, 1):
            for b in (0, 1):
                x = x0 ^ b
                prob[x0, x, x] += (q if x0 else 1 - q) * (p if b else 1 - p)
        src = JointSource(num_agents=2, prob=prob)
        with pytest.raises(ValidationError):
            value_function(src)

    def test_grand_minus_complement_identity(self, example2_source, example2_game):
        full = example2_game.full_mask
        for mask in range(1, full + 1):
            lhs = example2_game.grand_value() - example2_game.value(full & ~mask)
            rhs = conditional_mi(example2_source, mask)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_monotone(self, example2_game):
        full = example2_game.full_mask
        for mask in range(1, full + 1):
            sub = mask
            while sub:
                sub = (sub - 1) & mask
                assert example2_game.value(sub) <= example2_game.value(mask) + 1e-12


class TestConditionalValueFunction:
    def test_independent_z_changes_nothing(self, example2_source, example2_game):
        z_given = np.full(example2_source.prob.shape + (2,), 0.5)
        src_z = attach_z(example2_source, z_given)
        game = value_function_conditional(src_z)
        assert np.allclose(game.values, example2_game.values, atol=1e-10)

    def test_z_equals_base_kills_game(self, example2_source):
        shape = example2_source.prob.shape
        z_given = np.zeros(shape + (2,))
        for x0 in (0, 1):
            z_given[x0, ..., x0] = 1.0
        src_z = attach_z(example2_source, z_given)
        game = value_function_conditional(src_z)
        assert np.allclose(game.values, 0.0, atol=1e-10)

    def test_missing_z_rejected(self, example2_source):
        with pytest.raises(ValidationError):
            value_function_conditional(example2_source)

    def test_third_agent_as_eavesdropper(self, example2_source):
        # fold agent 3 of the three-agent source into an explicit Z component
        prob3 = example2_source.prob
        prob_z = np.moveaxis(prob3, 3, -1)  # (x0, x1, x2, z)
        src_z = JointSource(num_agents=2, prob=prob_z, has_z=True)
        game = value_function_conditional(src_z)
        for sub, s_mask in ((0b01, 0b001), (0b10, 0b010), (0b11, 0b011)):
            peers = 0b011 & ~s_mask
            expected = brute_conditional_mi(
                prob3,
                [l + 1 for l in range(2) if s_mask >> l & 1],
                [0],
                [l + 1 for l in range(2) if peers >> l & 1] + [3],
            )
            assert game.value(sub) == pytest.approx(expected, abs=1e-10)


class TestClearanceLevels:
    def test_single_level_equals_value_function(self, example2_source, example2_game):
        games = clearance_level_games(example2_source, [(1, 2, 3)])
        assert len(games) == 1
        assert np.allclose(games[0].values, example2_game.values, atol=1e-12)

    def test_one_agent_per_level(self, example2_source):
        games = clearance_level_games(example2_source, [(1,), (2,), (3,)])
        # level q sees all strictly lower levels as the eavesdropper
        assert games[0].value(1) == pytest.approx(
            conditional_mi(example2_source, 0b001, 0b110), abs=1e-12)
        assert games[1].value(1) == pytest.approx(
            conditional_mi(example2_source, 0b010, 0b100), abs=1e-12)
        assert games[2].value(1) == pytest.approx(
            conditional_mi(example2_source, 0b100, 0b000), abs=1e-12)

    def test_example2_two_levels(self, example2_source, example2_spec):
        games = clearance_level_games(example2_source, [(1,), (2, 3)])
        assert games[0].value(1) == pytest.approx(EXAMPLE2_VALUES[0b001], abs=1e-5)
        # the low level plays the plain game of the marginal (q, p2, p3) source
        sub = build_degraded_source(
            DegradedSourceSpec(q=example2_spec.q, p=example2_spec.p[1:]))
        assert np.allclose(games[1].values, value_function(sub).values, atol=1e-12)

    def test_rejects_bad_partition(self, example2_source):
        with pytest.raises(ValidationError):
            clearance_level_games(example2_source, [(1,), (2,)])


class TestGamePredicates:
    def test_example2_superadditive_and_supermodular(self, example2_game):
        assert is_superadditive(example2_game, tol=1e-10) == (True, None)
        assert is_supermodular(example2_game, tol=1e-10) == (True, None)

    def test_zero_game(self):
        game = CoalitionGame(num_agents=2, values=np.zeros(4))
        assert is_superadditive(game)[0]
        assert is_supermodular(game)[0]

    def test_superadditivity_violation_with_witness(self):
        game = CoalitionGame(num_agents=2, values=np.array([0.0, 1.0, 1.0, 1.0]))
        ok, witness = is_superadditive(game)
        assert not ok
        assert witness == (1, 2)

    def test_additive_game_supermodular_with_equality(self):
        c = np.array([0.3, 0.7, 0.2])
        values = coalition_sums(c)
        game = CoalitionGame(num_agents=3, values=values)
        assert is_supermodular(game, tol=0.0)[0]

    def test_supermodularity_violation_with_witness(self):
        # v({1,2}) = v({2,3}) = 1 but v(grand) = 1: merging loses value
        values = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        game = CoalitionGame(num_agents=3, values=values)
        ok, witness = is_supermodular(game)
        assert not ok
        u, v = witness
        assert game.values[u] + game.values[v] > game.values[u | v] + game.values[u & v]

    def test_random_degraded_games_convex(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            spec = random_degraded_spec(rng, int(rng.integers(2, 5)))
            game = value_function(build_degraded_source(spec))
            assert is_superadditive(game, tol=1e-10)[0]
            assert is_supermodular(game, tol=1e-10)[0]


class TestCore:
    def test_grand_coalition_bounds_degenerate(self, example2_source, example2_game):
        cb = core_bounds(example2_source, 0b111)
        assert cb.lower == pytest.approx(cb.upper, abs=1e-12)
        assert cb.upper == pytest.approx(example2_game.grand_value(), abs=1e-10)

    def test_example2_singleton_bounds(self, example2_source):
        from keyshare import EntropyQuery, mutual_information
        cb = core_bounds(example2_source, 0b001)
        upper = mutual_information(example2_source, EntropyQuery(subset_a=1, b_x0=True))
        leak = mutual_information(example2_source, EntropyQuery(subset_a=1, subset_b=0b110))
        assert cb.upper == pytest.approx(upper, abs=1e-12)
        assert cb.lower == pytest.approx(upper - leak, abs=1e-12)

    def test_uninformative_source_bounds_collapse(self):
        src = build_degraded_source(DegradedSourceSpec(q=0.5, p=(0.5, 0.5)))
        cb = core_bounds(src, 0b01)
        assert cb.lower == pytest.approx(0.0, abs=1e-10)
        assert cb.upper == pytest.approx(0.0, abs=1e-10)

    def test_shapley_in_core(self, example2_game):
        assert core_contains(example2_game, shapley_from_game(example2_game))[0]

    def test_nucleolus_in_core(self, example2_game):
        rates, _ = nucleolus(example2_game)
        assert core_contains(example2_game, rates)[0]

    def test_grabbing_allocation_rejected_with_witness(self, example2_game):
        grab = [example2_game.grand_value(), 0.0, 0.0]
        ok, witness = core_contains(example2_game, grab)
        assert not ok
        assert witness == 0b010  # agent 2 alone does better

    def test_non_finite_rates_never_in_core(self, example2_game):
        for bad in (float("nan"), float("inf")):
            ok, witness = core_contains(example2_game, [bad, 0.1, 0.1])
            assert not ok and witness == example2_game.full_mask

    def test_bounds_equivalence_random_allocations(self, example2_source, example2_game):
        rng = np.random.default_rng(9)
        full = example2_game.full_mask
        bounds = {m: core_bounds(example2_source, m) for m in range(1, full + 1)}
        base = shapley_from_game(example2_game)
        for _ in range(300):
            cand = np.abs(base + rng.normal(0, 0.08, size=3))
            if rng.random() < 0.8:
                cand *= example2_game.grand_value() / cand.sum()
            in_core, _ = core_contains(example2_game, cand, tol=1e-11)
            sums = coalition_sums(cand)
            via_bounds = all(
                bounds[m].lower - 1e-11 <= sums[m] <= bounds[m].upper + 1e-11
                for m in range(1, full + 1))
            assert in_core == via_bounds


class TestExcess:
    def test_empty_coalition_zero(self, example2_game):
        assert excess(example2_game, [0.1, 0.2, 0.1], 0) == 0.0

    def test_efficient_allocation_grand_excess_zero(self, example2_game):
        rates, _ = nucleolus(example2_game)
        assert excess(example2_game, rates, example2_game.full_mask) == pytest.approx(
            0.0, abs=1e-9)

    def test_nucleolus_max_proper_excess_equals_stage_one(self, example2_game):
        rates, trace = nucleolus(example2_game)
        proper = [excess(example2_game, rates, m)
                  for m in range(1, example2_game.full_mask)]
        assert max(proper) == pytest.approx(trace.stages[0].optimum, abs=1e-8)

    def test_sorted_vector_is_nonincreasing(self, example2_game):
        vec = sorted_excess_vector(example2_game, [0.1, 0.2, 0.15])
        assert np.all(np.diff(vec) <= 1e-15)
        assert len(vec) == 8


class TestWSubmodularity:
    def test_example2_pair(self, example2_source):
        assert w_is_submodular(example2_source, 0b011)[0]

    def test_singleton_vacuous(self, example2_source):
        assert w_is_submodular(example2_source, 0b001)[0]

    def test_random_specs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            spec = random_degraded_spec(rng, 3)
            src = build_degraded_source(spec)
            for s_mask in (0b011, 0b101, 0b110):
                assert w_is_submodular(src, s_mask)[0]

    def test_rejects_grand_coalition(self, example2_source):
        with pytest.raises(ValidationError):
            w_is_submodular(example2_source, 0b111)


class TestGameIO:
    def test_round_trip(self, example2_game, tmp_path):
        path = tmp_path / "game.json"
        example2_game.save(str(path))
        loaded = CoalitionGame.load(str(path))
        assert loaded.num_agents == example2_game.num_agents
        assert np.allclose(loaded.values, example2_game.values)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"L": 2, "v": [0.0, 1.0]}))
        with pytest.raises(ValidationError):
            CoalitionGame.load(str(path))

    def test_rejects_nonzero_empty_value(self):
        with pytest.raises(ValidationError):
            CoalitionGame(num_agents=1, values=np.array([0.5, 1.0]))

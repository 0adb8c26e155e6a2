import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyshare import (CapacityError, CoalitionGame, DegradedSourceSpec, JointSource,
                      ValidationError, build_degraded_source,
                      clearance_level_games, core_bounds, core_contains,
                      is_superadditive, is_supermodular, mutual_information,
                      shapley_from_game, nucleolus, value_function,
                      verify_markov)
from keyshare.game import _first_adjacent_violation, coalition_sums
from keyshare.source import _member_masks
from keyshare.suites import (core_bounds_equivalence,
                             grand_minus_complement_identity,
                             value_function_monotone,
                             value_function_superadditive,
                             value_function_supermodular)

from conftest import EXAMPLE2_VALUES, random_degraded_spec


def pair_scan(v: np.ndarray, tol: float):
    """Supermodularity oracle: (ok, witness), the first pair u < w, in
    row-major order, with v[u] + v[w] > v[u|w] + v[u&w] + tol; 4^L/2 pairs."""
    masks = np.arange(len(v))
    for u in range(len(v)):
        w = masks[u + 1:]
        bad = np.flatnonzero(v[u] + v[w] > v[u | w] + v[u & w] + tol)
        if bad.size:
            return False, (u, int(w[bad[0]]))
    return True, None


def w_is_submodular(src, s_mask: int, tol: float = 1e-9):
    """(ok, witness) for T -> I(X_T ; X0 | X_{S^c}) being submodular on
    subsets of S, the lemma behind the game's convexity.  Negation is
    exact, so -w breaks supermodularity exactly where w breaks
    w[u] + w[v] >= w[u|v] + w[u&v] - tol; the witness pair is mapped from
    positions among S's members back to coalition bitmasks."""
    full = src.full_mask
    if s_mask == full:
        raise ValidationError("w is defined for proper coalitions S only")
    t = _member_masks([l for l in range(src.num_agents) if s_mask >> l & 1])
    w = np.zeros(len(t))
    w[1:] = mutual_information(src, t[1:] << 1, 1, (full & ~s_mask) << 1)
    ok, witness = _first_adjacent_violation(-w, tol)
    return ok, witness and tuple(int(t[u]) for u in witness)


@st.composite
def integer_games(draw):
    """Integer-valued games, exact in floating point: a supermodular base
    (nonnegative singleton and pairwise weights) with up to three
    coalition values shifted, which may or may not break convexity."""
    L = draw(st.integers(1, 5))
    singles = np.array(draw(st.lists(st.integers(0, 5), min_size=L, max_size=L)))
    pairs = draw(st.lists(st.integers(0, 3), min_size=L * L, max_size=L * L))
    members = (np.arange(1 << L)[:, None] >> np.arange(L)) & 1
    values = (members @ singles
              + np.einsum("si,ij,sj->s", members, np.triu(np.reshape(pairs, (L, L)), 1),
                          members)).astype(float)
    for mask, shift in draw(st.lists(st.tuples(st.integers(1, (1 << L) - 1),
                                               st.integers(-4, 4)), max_size=3)):
        values[mask] = max(values[mask] + shift, 0.0)
    return CoalitionGame(num_agents=L, values=values)


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
        assert game.value(1) == pytest.approx(mutual_information(src, 1 << 1, 1), abs=1e-12)

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

    def test_grand_minus_complement_identity(self, example2_source):
        result = grand_minus_complement_identity([example2_source])
        assert result.passed, result.witness

    def test_monotone(self, example2_game):
        result = value_function_monotone([example2_game])
        assert result.passed, result.witness


class TestClearanceLevels:
    def test_single_level_equals_value_function(self, example2_source, example2_game):
        games = clearance_level_games(example2_source, [(1, 2, 3)])
        assert len(games) == 1
        assert np.allclose(games[0].values, example2_game.values, atol=1e-12)

    def test_one_agent_per_level(self, example2_source):
        games = clearance_level_games(example2_source, [(1,), (2,), (3,)])
        # level q sees all strictly lower levels as the eavesdropper
        assert games[0].value(1) == pytest.approx(
            mutual_information(example2_source, 0b001 << 1, 1, 0b110 << 1), abs=1e-12)
        assert games[1].value(1) == pytest.approx(
            mutual_information(example2_source, 0b010 << 1, 1, 0b100 << 1), abs=1e-12)
        assert games[2].value(1) == pytest.approx(
            mutual_information(example2_source, 0b100 << 1, 1, 0b000 << 1), abs=1e-12)

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


# 0.2 + 0.2 > 0.1: neither superadditive, supermodular nor with (0.05, 0.05) in its core
NON_CONVEX_PAIR = CoalitionGame(num_agents=2, values=np.array([0.0, 0.2, 0.2, 0.1]))
TOLERANCE_CHECKS = {
    "is_superadditive": lambda tol: is_superadditive(NON_CONVEX_PAIR, tol=tol),
    "is_supermodular": lambda tol: is_supermodular(NON_CONVEX_PAIR, tol=tol),
    "core_contains": lambda tol: core_contains(NON_CONVEX_PAIR, [0.05, 0.05], tol=tol),
    "verify_markov": lambda tol: verify_markov(
        JointSource.from_spec(DegradedSourceSpec(q=0.4, p=(0.2, 0.3))), tol=tol),
}


class TestGamePredicates:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
    @pytest.mark.parametrize("check", sorted(TOLERANCE_CHECKS))
    def test_rejects_a_bad_tolerance(self, check, tol):
        with pytest.raises(ValidationError, match="tol must be finite and nonnegative"):
            TOLERANCE_CHECKS[check](tol)

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

    def test_witness_is_the_first_adjacent_pair(self):
        # the pair {1,2}, {2,3} violates only through S = {2}: agents 1 < 3
        values = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        assert is_supermodular(CoalitionGame(num_agents=3, values=values)) == (False, (3, 6))

    def test_no_capacity_guard_past_twelve_agents(self):
        game = CoalitionGame(num_agents=14, values=coalition_sums(np.arange(1.0, 15.0)))
        assert is_supermodular(game, tol=0.0) == (True, None)
        game.values[-1] -= 1e-6
        ok, (u, w) = is_supermodular(game)
        assert not ok and u | w == game.full_mask and bin(u ^ w).count("1") == 2

    @settings(max_examples=300, deadline=None)
    @given(integer_games())
    def test_matches_pair_scan_on_exact_games(self, game):
        # exact arithmetic: adjacent pairs decide convexity exactly
        ok, witness = is_supermodular(game, tol=0.0)
        assert ok == pair_scan(game.values, 0.0)[0]
        if not ok:
            v = game.values
            u, w = witness
            assert bin(u ^ w).count("1") == 2 and u < w
            assert v[u] + v[w] > v[u | w] + v[u & w]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5),
           st.lists(st.tuples(st.integers(1, 31), st.floats(-0.05, 0.05)), max_size=2))
    def test_agrees_with_pair_scan_on_perturbed_degraded_games(self, seed, num_agents,
                                                              shifts):
        game = value_function(build_degraded_source(
            random_degraded_spec(np.random.default_rng(seed), num_agents)))
        for mask, shift in shifts:
            mask &= game.full_mask
            game.values[mask] = max(game.values[mask] + shift, 0.0) if mask else 0.0
        v, tol = game.values, 1e-9
        ok, witness = is_supermodular(game, tol=tol)
        if pair_scan(v, tol)[0]:
            assert ok
        if ok:
            # every pair's gap is the sum of at most L^2 / 4 adjacent gaps
            assert pair_scan(v, tol * num_agents ** 2)[0]
        else:
            u, w = witness
            assert v[u] + v[w] > v[u | w] + v[u & w] + tol

    def test_random_degraded_games_convex(self):
        rng = np.random.default_rng(5)
        games = [value_function(build_degraded_source(
                     random_degraded_spec(rng, int(rng.integers(2, 5)))))
                 for _ in range(25)]
        for result in (value_function_superadditive(games), value_function_supermodular(games)):
            assert result.passed, (result.name, result.witness)


class TestCore:
    def test_grand_coalition_bounds_degenerate(self, example2_game):
        lower, upper = core_bounds(example2_game)
        assert lower[0b111] == pytest.approx(upper[0b111], abs=1e-12)
        assert upper[0b111] == pytest.approx(example2_game.grand_value(), abs=1e-10)

    def test_example2_singleton_bounds(self, example2_source, example2_game):
        from keyshare import mutual_information
        lower, upper = core_bounds(example2_game)
        # axis bitmasks: X0 is bit 0, agent l is bit l
        info = mutual_information(example2_source, 0b0010, 0b0001)
        leak = mutual_information(example2_source, 0b0010, 0b1100)
        assert upper[0b001] == pytest.approx(info, abs=1e-12)
        assert lower[0b001] == pytest.approx(info - leak, abs=1e-12)

    def test_table_matches_per_coalition_lookups(self):
        from keyshare import mutual_information
        rng = np.random.default_rng(12)
        src = build_degraded_source(random_degraded_spec(rng, 5))
        lower, upper = core_bounds(value_function(src))
        full = src.full_mask
        for s in range(1, full + 1):
            up = mutual_information(src, s << 1, 1)
            leak = mutual_information(src, s << 1, (full & ~s) << 1)
            assert upper[s] == pytest.approx(up, abs=1e-12)
            assert lower[s] == pytest.approx(max(up - leak, 0.0), abs=1e-12)

    def test_bounds_table_shape_and_order(self, example2_game):
        lower, upper = core_bounds(example2_game)
        assert lower.shape == upper.shape == (8,)
        assert lower[0] == upper[0] == 0.0
        assert np.all((0.0 <= lower) & (lower <= upper))

    def test_uninformative_source_bounds_collapse(self):
        src = build_degraded_source(DegradedSourceSpec(q=0.5, p=(0.5, 0.5)))
        lower, upper = core_bounds(value_function(src))
        assert lower[0b01] == pytest.approx(0.0, abs=1e-10)
        assert upper[0b01] == pytest.approx(0.0, abs=1e-10)

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

    def test_bounds_equivalence_random_allocations(self, example2_game):
        rng = np.random.default_rng(9)
        base = shapley_from_game(example2_game)
        cands = []
        for _ in range(300):
            cand = np.abs(base + rng.normal(0, 0.08, size=3))
            if rng.random() < 0.8:
                cand *= example2_game.grand_value() / cand.sum()
            cands.append(cand)
        result = core_bounds_equivalence([(example2_game, np.array(cands))])
        assert result.passed, result.witness


class TestExcess:
    # e(y, S) = v(S) - sum_{i in S} y_i for every coalition at once
    def test_empty_coalition_zero(self, example2_game):
        assert (example2_game.values - coalition_sums([0.1, 0.2, 0.1]))[0] == 0.0

    def test_efficient_allocation_grand_excess_zero(self, example2_game):
        rates, _ = nucleolus(example2_game)
        exc = example2_game.values - coalition_sums(rates)
        assert exc[example2_game.full_mask] == pytest.approx(0.0, abs=1e-9)

    def test_nucleolus_max_proper_excess_equals_stage_one(self, example2_game):
        rates, trace = nucleolus(example2_game)
        proper = (example2_game.values - coalition_sums(rates))[1:example2_game.full_mask]
        assert max(proper) == pytest.approx(trace.stages[0].optimum, abs=1e-8)


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

    def test_witness_is_coalition_masks(self, monkeypatch):
        # a w that is supermodular on {2, 3}, S = 0b110: the witness names
        # the coalitions {2} and {3}, not their positions among S's members
        src = build_degraded_source(DegradedSourceSpec(q=0.4, p=(0.2, 0.27, 0.25)))
        monkeypatch.setattr(sys.modules[__name__], "mutual_information",
                            lambda src, t, x0, cond: np.array([0.1, 0.1, 0.3]))
        assert w_is_submodular(src, 0b110) == (False, (0b010, 0b100))


def _refuse_oversized_conversion(monkeypatch):
    """Make game.reals fail on a list longer than any admissible value table."""
    from keyshare import game as game_mod

    def refuse(values, name):
        assert len(values) <= 1 << 20, "reals converted an oversized list"
        return convert(values, name)

    convert = game_mod.reals
    monkeypatch.setattr(game_mod, "reals", refuse)


class TestGameIO:
    def test_round_trip(self, example2_game, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(example2_game.to_json()))
        loaded = CoalitionGame.load(str(path))
        assert loaded.num_agents == example2_game.num_agents
        assert np.allclose(loaded.values, example2_game.values)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"L": 2, "v": [0.0, 1.0]}))
        with pytest.raises(ValidationError):
            CoalitionGame.load(str(path))

    # a v longer than 2^MAX_TABLE_AGENTS fits no admissible L; it is refused
    # with the L or length error before reals converts its entries
    @pytest.mark.parametrize("num_agents, error, message", [
        (20, ValidationError, r"2\^L = 1048576 numbers for L=20, got shape \(1048577,\)"),
        (21, CapacityError, "L <= 20, got L=21"),
        (0, ValidationError, "'L'")], ids=["L20", "L21", "L0"])
    def test_oversized_table_is_refused_before_conversion(self, tmp_path, monkeypatch,
                                                          num_agents, error, message):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"L": num_agents, "v": [0] * ((1 << 20) + 1)}))
        _refuse_oversized_conversion(monkeypatch)
        with pytest.raises(error, match=message):
            CoalitionGame.load(str(path))

    # the constructor measures a caller's list the same way
    def test_oversized_api_table_is_refused_before_conversion(self, monkeypatch):
        _refuse_oversized_conversion(monkeypatch)
        with pytest.raises(ValidationError, match=r"got shape \(1048577,\)"):
            CoalitionGame(20, [0] * (2**20 + 1))

    # L = 0 used to pass and fail later in shapley_from_game and nucleolus
    @pytest.mark.parametrize("num_agents", [0, -1, True, 2.0])
    def test_constructor_rejects_bad_agent_count(self, num_agents):
        with pytest.raises(ValidationError, match="'L'"):
            CoalitionGame(num_agents, [0.0])

    def test_rejects_nonzero_empty_value(self):
        with pytest.raises(ValidationError):
            CoalitionGame(num_agents=1, values=np.array([0.5, 1.0]))

    def test_caller_table_is_copied(self):
        v = np.array([1e-13, 0.5, -1e-13, 0.7])
        game = CoalitionGame(2, v)
        assert game.values is not v
        assert v.tolist() == [1e-13, 0.5, -1e-13, 0.7]
        assert game.values.tolist() == [0.0, 0.5, 0.0, 0.7]

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from keyshare import (CapacityError, CoalitionGame, DegradedSourceSpec,
                      SolverError, ValidationError, brute_force_nucleolus,
                      core_polytope_vertices, mutual_information, nucleolus,
                      prekernel_gap, shapley_closed_form, shapley_from_game,
                      value_function)
import keyshare.allocate as allocate
from keyshare.allocate import lp_solve
from keyshare.game import coalition_sums
from keyshare.suites import (allocations_in_core, nucleolus_matches_grid_oracle,
                             nucleolus_routes_agree, shapley_dual_route_agreement,
                             solve)

from conftest import (NUCLEOLUS_INTERVALS, SHAPLEY_INTERVALS,
                      random_degraded_spec)


def sorted_excesses(game, rates):
    """Excesses over all 2^L coalitions, sorted nonincreasing."""
    return np.sort(game.values - coalition_sums(rates))[::-1]


class TestLpSolve:
    def test_max_of_two_lower_bounds(self):
        # x >= 3 and x >= 5, negated into a_ub
        status, opt, sol, _ = lp_solve(np.array([1.0]), np.array([[-1.0], [-1.0]]),
                                       np.array([-3.0, -5.0]))
        assert status == "optimal"
        assert opt == pytest.approx(5.0, abs=1e-9)
        assert sol[0] >= 5.0 - 1e-9

    def test_multipliers_of_two_lower_bounds(self):
        # only x >= 5 holds the optimum up, so only its multiplier is positive
        multipliers = lp_solve(np.array([1.0]), np.array([[-1.0], [-1.0]]),
                               np.array([-3.0, -5.0]))[3]
        assert np.max(np.abs(multipliers - [0.0, 1.0])) <= 1e-9

    def test_infeasible_pair(self):
        status = lp_solve(np.array([1.0]), np.array([[1.0], [-1.0]]),
                          np.array([0.0, -1.0]))[0]
        assert status == "infeasible"

    def test_unbounded(self):
        assert lp_solve(np.array([1.0]))[0] == "unbounded"

    def test_solution_feasibility_tolerance(self, example2_game):
        # stage-1 nucleolus LP: every constraint satisfied within 1e-9
        L = example2_game.num_agents
        masks = np.arange(1, example2_game.full_mask)
        rows = np.hstack([allocate._incidence(masks, L), np.ones((len(masks), 1))])
        eff = np.append(np.ones(L), 0.0)[None, :]
        obj = np.zeros(L + 1)
        obj[L] = 1.0
        status, opt, sol, _ = lp_solve(
            obj, -rows, -example2_game.values[masks], eff,
            np.array([example2_game.grand_value()]), [(0.0, None)] * L + [(None, None)])
        assert status == "optimal"
        assert np.all(rows @ sol >= example2_game.values[masks] - 1e-9)
        assert float(eff[0] @ sol) == pytest.approx(example2_game.grand_value(), abs=1e-9)


class TestShapley:
    def test_example2_intervals(self, example2_game):
        rates = shapley_from_game(example2_game)
        for rate, (lo, hi) in zip(rates, SHAPLEY_INTERVALS):
            assert lo <= rate <= hi

    def test_symmetric_two_player(self):
        game = CoalitionGame(num_agents=2, values=np.array([0.0, 0.2, 0.2, 0.9]))
        rates = shapley_from_game(game)
        assert rates[0] == pytest.approx(rates[1], abs=1e-12)
        assert rates.sum() == pytest.approx(0.9, abs=1e-12)

    def test_dummy_agent_gets_nothing(self):
        src = DegradedSourceSpec(q=0.4, p=(0.2, 0.5))
        rates = shapley_from_game(value_function(src))
        assert rates[1] == pytest.approx(0.0, abs=1e-10)

    def test_efficiency(self, example2_game):
        rates = shapley_from_game(example2_game)
        assert rates.sum() == pytest.approx(example2_game.grand_value(), abs=1e-10)

    def test_additivity(self):
        rng = np.random.default_rng(2)
        spec1 = random_degraded_spec(rng, 3)
        spec2 = random_degraded_spec(rng, 3)
        g1 = value_function(spec1)
        g2 = value_function(spec2)
        combined = CoalitionGame(num_agents=3, values=g1.values + g2.values)
        lhs = shapley_from_game(combined)
        rhs = shapley_from_game(g1) + shapley_from_game(g2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_closed_form_single_agent(self):
        src = DegradedSourceSpec(q=0.4, p=(0.2,))
        rates = shapley_closed_form(src)
        assert rates[0] == pytest.approx(mutual_information(src, 1 << 1, 1), abs=1e-12)

    def test_dual_route_agreement_random(self):
        rng = np.random.default_rng(13)
        sources = [random_degraded_spec(rng, int(rng.integers(1, 5)))
                   for _ in range(30)]
        result = shapley_dual_route_agreement(sources)
        assert result.passed, result.witness


class TestNucleolus:
    def test_example2_intervals(self, example2_game):
        rates, _ = nucleolus(example2_game)
        for rate, (lo, hi) in zip(rates, NUCLEOLUS_INTERVALS):
            assert lo <= rate <= hi

    def test_two_player_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            v1, v2 = rng.uniform(0, 0.4, size=2)
            v12 = v1 + v2 + rng.uniform(0, 0.5)  # convex
            game = CoalitionGame(num_agents=2, values=np.array([0.0, v1, v2, v12]))
            rates, _ = nucleolus(game)
            expected = np.array([v1 + (v12 - v1 - v2) / 2, v2 + (v12 - v1 - v2) / 2])
            assert np.max(np.abs(rates - expected)) < 1e-9

    def test_additive_game(self):
        c = np.array([0.3, 0.5, 0.1])
        game = CoalitionGame(num_agents=3, values=coalition_sums(c))
        rates, _ = nucleolus(game)
        assert np.max(np.abs(rates - c)) < 1e-9

    def test_scales_with_the_game(self):
        # the stage tolerances are absolute; large values must not defeat them
        small = CoalitionGame(num_agents=3, values=np.array(
            [0.0, 0.1, 0.05, 0.2, 0.12, 0.3, 0.25, 0.6]))
        base, base_trace = nucleolus(small)
        assert base_trace.route == "prekernel"
        # small values must not fall below them either
        for factor in (4.0, 759248487.0, 1e12, 2.0 ** -20, 2.0 ** -30):
            rates, trace = nucleolus(CoalitionGame(num_agents=3, values=small.values * factor))
            assert trace.route == "prekernel"
            assert np.max(np.abs(rates / factor - base)) < 1e-9
            assert len(trace.stages) == len(base_trace.stages)
            assert all(np.array_equal(s.fixed_coalitions, t.fixed_coalitions)
                       for s, t in zip(trace.stages, base_trace.stages))
        pair = CoalitionGame(num_agents=2, values=np.array([0.0, 0.0, 0.0, 759248487.0]))
        rates, trace = nucleolus(pair)
        assert trace.route == "prekernel"
        assert np.allclose(rates, 759248487.0 / 2, rtol=1e-12)

    def test_single_agent(self):
        game = CoalitionGame(num_agents=1, values=np.array([0.0, 0.7]))
        rates, trace = nucleolus(game)
        assert rates[0] == pytest.approx(0.7, abs=1e-12)
        assert trace.stages == []

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(23)
        games = [value_function(random_degraded_spec(rng, 3))
                 for _ in range(5)]
        result = nucleolus_matches_grid_oracle(solve(games), grid_step=1e-3)
        assert result.passed, result.witness

    def test_degenerate_first_stage_face(self):
        # stage-1 binding pair {1,2} and {3} spans efficiency: the optimal
        # set is a whole segment and later stages must refine inside it
        spec = DegradedSourceSpec(
            q=0.3388506996347092,
            p=(0.06638940957447788, 0.05661105421141164, 0.375308095680109))
        game = value_function(spec)
        rates, trace = nucleolus(game)
        assert len(trace.stages) >= 2
        result = nucleolus_matches_grid_oracle([(game, {"nucleolus": rates})],
                                               grid_step=1e-3)
        assert result.passed, result.witness
        # exact lexicographic optimality against a sweep of segment points
        ours = np.round(sorted_excesses(game, rates), 9)
        y3 = rates[2]
        for y1 in np.linspace(0.0, game.grand_value() - y3, 301):
            cand = np.array([y1, game.grand_value() - y3 - y1, y3])
            theirs = np.round(sorted_excesses(game, cand), 9)
            assert not tuple(theirs) < tuple(ours)

    def test_stage_optima_nonincreasing(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            spec = random_degraded_spec(rng, int(rng.integers(2, 5)))
            game = value_function(spec)
            _, trace = nucleolus(game)
            optima = [s.optimum for s in trace.stages]
            assert all(a >= b - 1e-9 for a, b in zip(optima, optima[1:]))
            assert trace.stages[-1].system_rank == game.num_agents

    def test_nucleolus_not_lexicographically_beaten(self, example2_game):
        rates, _ = nucleolus(example2_game)
        ours = sorted_excesses(example2_game, rates)
        rng = np.random.default_rng(31)
        total = example2_game.grand_value()
        for _ in range(500):
            cand = rng.dirichlet(np.ones(3)) * total
            theirs = sorted_excesses(example2_game, cand)
            assert not tuple(theirs + 1e-9) < tuple(ours)

    def test_in_core_for_random_convex_games(self):
        rng = np.random.default_rng(37)
        games = [value_function(random_degraded_spec(rng, int(rng.integers(2, 5))))
                 for _ in range(10)]
        result = allocations_in_core(solve(games))
        assert result.passed, result.witness


class TestGoldenNucleolus:
    """Pins nucleolus_lp bit for bit, so any change in what reaches the
    solver shows up here.  The digest hashes the stage traces and was
    recorded when each stage began dropping the free coalitions in the span
    of the fixed system; TestRecordedRates holds the rates to the values
    before that change.  The LP count was recorded at the same time (binding
    sets from stage multipliers and max-slack LPs made 139 LP solves without
    the span pruning, and the per-coalition binding tests before them 320).
    The digest was re-recorded when degraded sources began reading their
    entropy table off the product form: rates and stage optima moved by at
    most 3e-15, the fixed sets and ranks not at all.  It was re-recorded
    again when the fixed system became a basis of at most L rows, so the
    LPs and the final solve see fewer equalities: rates moved by at most
    1.1e-14 (the hand-built L=4 game) and 9.7e-16 (the spec games), stage
    optima by at most 5.6e-17, the fixed sets, ranks and LP count not at
    all."""

    DIGEST = "89f8da6540c9d16020aca78ec9eee8b99c17f2e18dd339df63310a83f9fd9550"
    LP_SOLVES = 43

    @staticmethod
    def games():
        rng = np.random.default_rng(43)
        games = [value_function(random_degraded_spec(rng, L))
                 for L in range(3, 9)]
        # values of 1 or more take the power-of-two scaling path
        games.append(CoalitionGame(num_agents=4, values=np.array(
            [0, 3, 5, 9, 2, 8, 10, 15, 4, 9, 11, 17, 7, 14, 16, 24], dtype=float)))
        return games

    def test_rates_and_stages_digest(self):
        digest = hashlib.sha256()
        for game in self.games():
            rates, trace = allocate.nucleolus_lp(game)
            digest.update(rates.tobytes())
            for stage in trace.stages:
                digest.update(np.float64(stage.optimum).tobytes())
                digest.update(np.array(stage.fixed_coalitions, dtype=np.int64).tobytes())
                digest.update(np.int64(stage.system_rank).tobytes())
        assert digest.hexdigest() == self.DIGEST

    def test_lp_solve_count(self, monkeypatch):
        calls = []
        solve = allocate.lp_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(allocate, "lp_solve", counting)
        for game in self.games():
            allocate.nucleolus_lp(game)
        assert len(calls) == self.LP_SOLVES


RECORDED = Path(__file__).parent / "data" / "nucleolus_rates.json"


def stream0_games(count=12, num_agents=10):
    """The first draws of stream 0 of the verify-suite spec distribution."""
    rng = np.random.default_rng(0)
    games = []
    for _ in range(count):
        q = float(rng.uniform(0.15, 0.85))
        p = tuple(float(rng.uniform(0.05, 0.45)) for _ in range(num_agents))
        games.append(value_function(DegradedSourceSpec(q=q, p=p)))
    return games


def tiered_game():
    p = (0.08,) * 5 + (0.24,) * 5 + (0.40,) * 2
    return value_function(DegradedSourceSpec(q=0.40, p=p))


@pytest.fixture(scope="module")
def solved_games():
    """(set name, game, rates, trace) for every game of the recorded sets."""
    sets = {"golden": TestGoldenNucleolus.games(), "stream0_L10": stream0_games(),
            "tiered_L12": [tiered_game()]}
    return [(name, game, *nucleolus(game)) for name, games in sets.items() for game in games]


class TestRecordedRates:
    """The span pruning changes the stage LPs but not the nucleolus: the rates
    stay within 1e-12 of those recorded before it."""

    def test_rates_match_the_recorded_values(self, solved_games):
        recorded = json.loads(RECORDED.read_text())
        for name in ("golden", "stream0_L10", "tiered_L12"):
            rates = [r for n, _, r, _ in solved_games if n == name]
            assert len(rates) == len(recorded[name])
            for ours, theirs in zip(rates, recorded[name]):
                assert np.max(np.abs(ours - np.array(theirs))) <= 1e-12


def fixed_rows_only(monkeypatch):
    """Patch _drop_spanned to run without the span pruning: only the
    coalitions of the basis rows (the last system _extend_basis returned)
    leave.  Efficiency's grand coalition is never free, so before the
    first extension nothing leaves."""
    basis = []
    extend = allocate._extend_basis

    def extending(*args):
        a_eq, b_eq, null = extend(*args)
        basis[:] = [a_eq]
        return a_eq, b_eq, null

    def drop(free, null):
        for a_eq in basis:
            free[(a_eq @ (1 << np.arange(a_eq.shape[1]))).astype(int)] = False
        return null.shape[1] - len(null)

    monkeypatch.setattr(allocate, "_extend_basis", extending)
    monkeypatch.setattr(allocate, "_drop_spanned", drop)


def projector_drop_spanned(free, a_eq):
    """The span test as a projection residual of every free incidence row
    against an orthonormal basis of a_eq, at PIVOT_TOL: _drop_spanned's oracle."""
    rows = allocate._incidence(np.arange(len(free)), a_eq.shape[1])
    _, singular, vt = np.linalg.svd(a_eq, full_matrices=False)
    basis = vt[singular > allocate.PIVOT_TOL]
    residual = rows[free] @ (np.eye(a_eq.shape[1]) - basis.T @ basis)
    free[free] = np.linalg.norm(residual, axis=1) > allocate.PIVOT_TOL
    return len(basis)


def additive_game(L):
    """v(S) = sum of distinct single-agent values: every proper coalition
    has excess 0 at the nucleolus, so the one stage fixes all of them."""
    return CoalitionGame(num_agents=L, values=coalition_sums(np.arange(1, L + 1) / 64))


class TestDropSpanned:
    def test_a_tall_fixed_system_keeps_the_left_factor_small(self, monkeypatch):
        # the additive game fixes 2^L - 1 coalitions, efficiency included,
        # but only efficiency's row is factored: the span tests read the
        # null directions that _extend_basis keeps, so no factor over the
        # fixed rows is built (a U over every one of them would be 4095 x 12
        # here and 2^20 x 20 at L = 20)
        factors = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            u, singular, vt = svd(a, *args, **kwargs)
            factors.append((a.shape, u.shape))
            return u, singular, vt

        monkeypatch.setattr(np.linalg, "svd", recording)
        game = additive_game(12)
        rates, trace = nucleolus(game)
        assert np.allclose(rates, np.arange(1, 13) / 64, rtol=0, atol=1e-12)
        assert [len(stage.fixed_coalitions) for stage in trace.stages] == [4094]
        assert factors == [((1, 12), (1, 1))]

    @staticmethod
    def systems(rng, L):
        """Fixed systems as the stage loop builds them (efficiency plus
        incidence rows, dependent ones among them) and random dense ones,
        full rank and rank deficient, with fewer and more rows than L."""
        masks = rng.integers(1, 1 << L, size=rng.integers(1, 2 * L))
        yield np.vstack([np.ones(L), allocate._incidence(masks, L)])
        # S, its complement and a repeated row are dependent on efficiency
        s = int(rng.integers(1, (1 << L) - 1))
        yield allocate._incidence([(1 << L) - 1, s, (1 << L) - 1 ^ s, s], L)
        for rows in (L - 2, L + 3):
            yield rng.normal(size=(rows, L))
            rank = int(rng.integers(1, L))
            yield rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, L))

    @pytest.mark.parametrize("L", range(3, 11))
    def test_matches_the_projector_formula(self, L):
        rng = np.random.default_rng(59 + L)
        for _ in range(5):
            for a_eq in self.systems(rng, L):
                free = rng.random(1 << L) < 0.7
                free[[0, -1]] = False
                expected = free.copy()
                rank = projector_drop_spanned(expected, a_eq)
                null = np.linalg.svd(a_eq)[2][rank:]
                assert allocate._drop_spanned(free, null) == rank
                assert np.array_equal(free, expected)


class TestFixedBasis:
    def test_no_fixed_system_holds_more_than_L_rows(self, monkeypatch):
        # every a_eq that _extend_basis builds or an LP reads, on both
        # routes; a fixed system of every fixed coalition would reach 4095
        # rows here
        systems = []
        extend, solve = allocate._extend_basis, allocate.lp_solve

        def extending(*args):
            a_eq, b_eq, null = extend(*args)
            systems.append(a_eq.shape)
            return a_eq, b_eq, null

        def solving(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
            systems.append(np.shape(a_eq))
            return solve(c, a_ub, b_ub, a_eq, b_eq, bounds)

        monkeypatch.setattr(allocate, "_extend_basis", extending)
        monkeypatch.setattr(allocate, "lp_solve", solving)
        for route, game in (("prekernel", additive_game(12)), ("lp", additive_game(5))):
            systems.clear()
            rates, trace = (nucleolus if route == "prekernel" else allocate.nucleolus_lp)(game)
            L = game.num_agents
            assert trace.route == route and len(trace.stages[0].fixed_coalitions) == 2 ** L - 2
            assert np.allclose(rates, np.arange(1, L + 1) / 64, rtol=0, atol=1e-12)
            assert systems and all(rows <= L for rows, _ in systems)

    def test_the_final_check_covers_every_fixed_coalition(self, monkeypatch):
        # a coalition listed in the trace but outside the basis is checked
        # too: here the last stage's first coalition, listed at stage 1 as
        # well, has the wrong stage optimum there
        fix_stages = allocate._fix_stages

        def listing(*args):
            trace, a_eq, b_eq = fix_stages(*args)
            first = trace.stages[0]
            first.fixed_coalitions = np.append(first.fixed_coalitions,
                                               trace.stages[-1].fixed_coalitions[0])
            return trace, a_eq, b_eq

        monkeypatch.setattr(allocate, "_fix_stages", listing)
        with pytest.raises(SolverError, match="final nucleolus system inconsistent"):
            allocate.nucleolus_lp(TestGoldenNucleolus.games()[1])


class TestStageBound:
    def test_at_most_L_minus_1_rank_raising_stages(self, solved_games):
        for _, game, _, trace in solved_games:
            ranks = [1] + [s.system_rank for s in trace.stages]
            assert len(trace.stages) <= game.num_agents - 1
            assert all(a < b for a, b in zip(ranks, ranks[1:]))
            assert ranks[-1] == game.num_agents

    def test_a_stage_that_does_not_raise_the_rank_is_an_error(self, monkeypatch):
        # the first golden L=4 game fixes {2} and its complement {13} at its
        # first stage, and only {2} joins the basis; without the span
        # pruning (only the basis coalitions leave the free set) its second
        # stage fixes {13}, a coalition already in the span of the fixed system
        fixed_rows_only(monkeypatch)
        with pytest.raises(SolverError,
                           match=r"stage 2 fixed \[13\] without raising the system rank 2"):
            allocate.nucleolus_lp(TestGoldenNucleolus.games()[1])


class TestRoutes:
    def test_convex_games_take_the_prekernel_route_and_match_the_lps(self):
        result = nucleolus_routes_agree(stream0_games() + [tiered_game()])
        assert result.passed, result.witness

    def test_non_convex_game_takes_the_lp_route(self):
        # the hand-built L=4 golden game fails the convexity check
        game = TestGoldenNucleolus.games()[-1]
        rates, trace = nucleolus(game)
        lp_rates, lp_trace = allocate.nucleolus_lp(game)
        assert (trace.route, trace.iterations, trace.convex) == ("lp", None, False)
        assert np.array_equal(rates, lp_rates) and trace.to_json() == lp_trace.to_json()

    def test_stalled_iteration_falls_back_to_the_lps(self, monkeypatch):
        # with no steps allowed only the Shapley value is tried, and on this
        # game it is not the nucleolus
        monkeypatch.setattr(allocate, "PREKERNEL_STEPS_PER_AGENT", 0)
        game = tiered_game()
        rates, trace = nucleolus(game)
        lp_rates, lp_trace = allocate.nucleolus_lp(game)
        assert (trace.route, trace.iterations, trace.convex) == ("lp", 0, True)
        assert np.array_equal(rates, lp_rates) and trace.to_json() == lp_trace.to_json()

    def test_prekernel_route_builds_only_pair_and_fixed_rows(self, monkeypatch):
        # the incidence matrices are the pair system (at most L(L-1)/2 rows)
        # and blocks of the coalitions a stage fixes (at most SCAN_ENTRIES
        # entries), never a table of every mask: the additive game fixes
        # all 2^L - 2 proper coalitions at its one stage
        built = []
        incidence = allocate._incidence

        def recording(masks, L):
            rows = incidence(masks, L)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(allocate, "_incidence", recording)
        for game in stream0_games(count=4) + [tiered_game(), additive_game(12)]:
            built.clear()
            L = game.num_agents
            trace = nucleolus(game)[1]
            assert trace.route == "prekernel" and built
            assert max(built) <= max(L * (L - 1) // 2, allocate.SCAN_ENTRIES // L)

    def test_a_level_that_does_not_raise_the_rank_is_an_error(self, monkeypatch):
        # with only the basis coalitions leaving the free set, the nucleolus
        # of the first golden L=4 game has a level already in the fixed span
        game = TestGoldenNucleolus.games()[1]
        rates, _ = nucleolus(game)
        fixed_rows_only(monkeypatch)
        with pytest.raises(SolverError, match="without raising the system rank"):
            allocate._excess_levels(game, rates)


class TestPrekernelGap:
    def test_matches_a_loop_over_coalitions(self):
        rng = np.random.default_rng(47)
        for L in (1, 2, 4, 7):
            game = value_function(random_degraded_spec(rng, L))
            rates = rng.uniform(0.0, 0.2, size=L)
            excess = game.values - coalition_sums(rates)
            expected = 0.0
            for i in range(L):
                for j in range(L):
                    if i != j:
                        s_ij = max(excess[m] for m in range(1 << L)
                                   if m >> i & 1 and not m >> j & 1)
                        s_ji = max(excess[m] for m in range(1 << L)
                                   if m >> j & 1 and not m >> i & 1)
                        expected = max(expected, abs(s_ij - s_ji))
            assert prekernel_gap(game, rates) == expected, L

    def test_certifies_the_nucleolus_not_the_shapley_value(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            game = value_function(random_degraded_spec(rng, int(rng.integers(3, 7))))
            rates, _ = nucleolus(game)
            assert prekernel_gap(game, rates) <= 1e-9
            assert prekernel_gap(game, shapley_from_game(game)) > 1e-6

    def test_rejects_wrong_length(self, example2_game):
        with pytest.raises(ValidationError):
            prekernel_gap(example2_game, [0.1, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        game = CoalitionGame(num_agents=2, values=np.array([0.0, 0.2, 0.2, 0.5]))
        with pytest.raises(ValidationError, match="finite rates"):
            prekernel_gap(game, [bad, 0.3])


class TestBruteForceOracle:
    def test_additive_point(self):
        c = np.array([0.2, 0.4])
        game = CoalitionGame(num_agents=2, values=coalition_sums(c))
        ref = brute_force_nucleolus(game, grid_step=1e-3)
        assert np.max(np.abs(ref - c)) <= 2e-3

    def test_symmetric_two_player(self):
        game = CoalitionGame(num_agents=2, values=np.array([0.0, 0.1, 0.1, 0.8]))
        ref = brute_force_nucleolus(game, grid_step=1e-3)
        assert np.max(np.abs(ref - 0.4)) <= 2e-3

    def test_capacity_guard(self):
        game = CoalitionGame(num_agents=4, values=np.zeros(16))
        with pytest.raises(CapacityError):
            brute_force_nucleolus(game, grid_step=0.1)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -0.1])
    def test_rejects_bad_grid_step(self, step):
        game = CoalitionGame(num_agents=2, values=np.array([0.0, 0.1, 0.1, 0.8]))
        with pytest.raises(ValidationError, match="grid_step"):
            brute_force_nucleolus(game, grid_step=step)

    def test_single_agent(self):
        game = CoalitionGame(num_agents=1, values=np.array([0.0, 0.7]))
        assert brute_force_nucleolus(game, grid_step=0.1).tolist() == [0.7]


class TestCorePolytope:
    def test_example2_vertices_feasible_and_tight(self, example2_game):
        verts = core_polytope_vertices(example2_game)
        assert len(verts) >= 3
        for v in verts:
            assert v.sum() == pytest.approx(example2_game.grand_value(), abs=1e-9)
            tight = 0
            for mask in range(1, 7):
                paid = sum(v[l] for l in range(3) if mask >> l & 1)
                assert paid >= example2_game.values[mask] - 1e-9
                if paid <= example2_game.values[mask] + 1e-9:
                    tight += 1
            assert tight >= 2

    def test_solution_points_inside_hull_box(self, example2_game):
        verts = core_polytope_vertices(example2_game)
        shap = shapley_from_game(example2_game)
        nuc, _ = nucleolus(example2_game)
        lo, hi = verts.min(axis=0) - 1e-9, verts.max(axis=0) + 1e-9
        for point in (shap, nuc):
            assert np.all(point >= lo) and np.all(point <= hi)

    def test_wrong_size_rejected(self):
        game = CoalitionGame(num_agents=2, values=np.array([0.0, 0.1, 0.1, 0.5]))
        with pytest.raises(CapacityError):
            core_polytope_vertices(game)

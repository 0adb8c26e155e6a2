"""Acceptance criteria, one test per criterion.

Each test prints a single [criterion N] PASS line (visible with -s) and
enforces its runtime budget.  Run as:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from keyshare import (binary_entropy, build_degraded_source, build_index_sets,
                      clearance_level_games, entropy_profile_mc, nucleolus,
                      run_protocol, shapley_from_game, value_function)
from keyshare.suites import (allocations_in_core, core_bounds_equivalence,
                             leftover_hash_bound_holds, mc_profile_matches_exact,
                             nucleolus_matches_grid_oracle,
                             shapley_dual_route_agreement, solve,
                             toeplitz_two_universal,
                             transform_involution_and_linear,
                             value_function_superadditive,
                             value_function_supermodular)
from keyshare.protocol import ProtocolConfig

from conftest import (EXAMPLE2, EXAMPLE2_VALUES, NUCLEOLUS_INTERVALS,
                      SHAPLEY_INTERVALS, random_degraded_spec)


def _report(num: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num}] PASS {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_example2_value_table(example2_game):
    t0 = time.perf_counter()
    for mask, expected in EXAMPLE2_VALUES.items():
        assert example2_game.value(mask) == pytest.approx(expected, abs=1e-5)
    _report(1, "value table matches the published seven coalition values", t0, 1.0)


def test_criterion_2_shapley(example2_source, example2_game):
    t0 = time.perf_counter()
    for rate, (lo, hi) in zip(shapley_from_game(example2_game), SHAPLEY_INTERVALS):
        assert lo <= rate <= hi
    result = shapley_dual_route_agreement([example2_source])
    assert result.passed, result.witness
    _report(2, "Shapley value in published intervals, dual routes agree", t0, 1.0)


def test_criterion_3_nucleolus(example2_game):
    t0 = time.perf_counter()
    rates, trace = nucleolus(example2_game)
    for rate, (lo, hi) in zip(rates, NUCLEOLUS_INTERVALS):
        assert lo <= rate <= hi
    result = nucleolus_matches_grid_oracle([(example2_game, {"nucleolus": rates})],
                                           grid_step=1e-3)
    assert result.passed, result.witness
    _report(3, "nucleolus in published intervals, matches grid oracle", t0, 30.0)


def test_criterion_4_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    games, cases = [], []
    for trial in range(100):
        num_agents = int(rng.integers(2, 5))
        spec = random_degraded_spec(rng, num_agents)
        game = value_function(build_degraded_source(spec))
        # 1000 allocations around the Shapley value, 70 % rescaled to efficiency
        cand = np.abs(shapley_from_game(game) + rng.normal(0, 0.08, size=(1000, num_agents)))
        rescale = rng.random(1000) < 0.7
        cand[rescale] *= (game.grand_value() / cand[rescale].sum(axis=1))[:, None]
        games.append(game)
        cases.append((game, cand))
    for result in (value_function_superadditive(games), value_function_supermodular(games),
                   allocations_in_core(solve(games)), core_bounds_equivalence(cases)):
        assert result.passed, (result.name, result.witness)
    _report(4, "100 random degraded games: convexity, core membership, "
               "bound equivalence on 1000 allocations each", t0, 120.0)


def test_criterion_5_polar_suite():
    t0 = time.perf_counter()
    for result in (*transform_involution_and_linear(
                       (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024), seed=5),
                   mc_profile_matches_exact(
                       [(n, p) for n in (8, 16) for p in (0.11, 0.3)], 100_000, seed=17)):
        assert result.passed, (result.name, result.witness)

    p = 0.11
    target = binary_entropy(p)
    h_frac, v_frac = [], []
    for n in (64, 128, 256, 512, 1024):
        prof = entropy_profile_mc(p, n, 40_000, seed=23)
        sets = build_index_sets(prof)
        h_frac.append(sets.h_mask.mean())
        v_frac.append(sets.v_mask.mean())
    # H approaches the conditional entropy from above, V from below,
    # monotone within a 0.03 noise band at each doubling
    assert all(s >= target for s in h_frac)
    assert all(s <= target for s in v_frac)
    for a, b in zip(h_frac, h_frac[1:]):
        assert b <= a + 0.03, f"H-set fraction not shrinking: {h_frac}"
    for a, b in zip(v_frac, v_frac[1:]):
        assert b >= a - 0.03, f"V-set fraction not growing: {v_frac}"
    # strict approach once the threshold regime stabilizes (the large
    # delta at N=64 truncates the H-set and masks the drift)
    assert h_frac[-1] < h_frac[1], f"H-set fraction never approached: {h_frac}"
    assert v_frac[-1] > v_frac[0], f"V-set fraction never approached: {v_frac}"
    _report(5, "transform algebra, exact-vs-MC profiles, index-set "
               "fractions trending to the conditional entropy", t0, 300.0)


def test_criterion_6_protocol_desk_scale(example2_game):
    t0 = time.perf_counter()
    target = tuple(shapley_from_game(example2_game))
    cfg = ProtocolConfig(n=1024, b=4, target=target, epsilon=0.05)
    report = run_protocol(EXAMPLE2, cfg, runs=100)

    assert report["failure_rate"] <= 0.10
    floor = 0.9 * (example2_game.grand_value() - 3 * cfg.epsilon)
    assert report["sum_rate"] >= floor
    assert report["chi2_p"] >= 0.01
    assert report["per_agent"][1]["r"] == 682  # floor(4096 (R1 - eps)) at the exact Shapley rate
    _report(6, f"desk-scale protocol: failure {report['failure_rate']:.2f}, "
               f"sum-rate {report['sum_rate']:.4f} >= {floor:.4f}, "
               f"chi2 p {report['chi2_p']:.3f}", t0, 600.0)


def test_criterion_7_leftover_hash_grid():
    t0 = time.perf_counter()
    cells = [(0.4, (p,) * num_agents, n, (r,) * num_agents)
             for n in (2, 4) for num_agents in (1, 2) for r in (0, 1, 2) if r <= n
             for p in (0.1, 0.3)]
    assert len(cells) == 24
    for result in (leftover_hash_bound_holds(cells), toeplitz_two_universal(4, 2)):
        assert result.passed, (result.name, result.witness)
    _report(7, f"exact variational distance within the bound in {len(cells)} cells; "
               "Toeplitz family two-universal by brute force", t0, 300.0)


def test_criterion_8_clearance_levels(example2_source):
    t0 = time.perf_counter()
    games = clearance_level_games(example2_source, [(1,), (2, 3)])
    top = games[0]
    assert top.num_agents == 1
    assert top.value(1) == pytest.approx(EXAMPLE2_VALUES[0b001], abs=1e-5)
    _report(8, "top clearance level's one-agent game equals the published "
               "singleton value", t0, 1.0)

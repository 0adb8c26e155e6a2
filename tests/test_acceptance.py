"""Acceptance criteria, one test per criterion.

Each test prints a single [criterion N] PASS line (visible with -s) and
enforces its runtime budget.  Run as:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from keyshare import (binary_entropy, brute_force_nucleolus,
                      build_degraded_source, build_index_sets,
                      clearance_level_games, core_bounds, core_contains,
                      empirical_secrecy_check, entropy_profile_exact,
                      entropy_profile_mc, is_superadditive, is_supermodular,
                      nucleolus, polar_transform, run_protocol,
                      shapley_closed_form, shapley_from_game,
                      toeplitz_collision_rate, value_function)
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
    table_route = shapley_from_game(example2_game)
    closed_route = shapley_closed_form(example2_source)
    for rate, (lo, hi) in zip(table_route, SHAPLEY_INTERVALS):
        assert lo <= rate <= hi
    assert np.max(np.abs(table_route - closed_route)) < 1e-9
    _report(2, "Shapley value in published intervals, dual routes agree", t0, 1.0)


def test_criterion_3_nucleolus(example2_game):
    t0 = time.perf_counter()
    rates, trace = nucleolus(example2_game)
    for rate, (lo, hi) in zip(rates, NUCLEOLUS_INTERVALS):
        assert lo <= rate <= hi
    oracle = brute_force_nucleolus(example2_game, grid_step=1e-3)
    assert np.max(np.abs(rates - oracle)) <= 2e-3
    _report(3, "nucleolus in published intervals, matches grid oracle", t0, 30.0)


def test_criterion_4_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    for trial in range(100):
        num_agents = int(rng.integers(2, 5))
        spec = random_degraded_spec(rng, num_agents)
        src = build_degraded_source(spec)
        game = value_function(src)
        assert is_superadditive(game, tol=1e-10)[0], spec
        assert is_supermodular(game, tol=1e-10)[0], spec

        shap = shapley_from_game(game)
        nuc, _ = nucleolus(game)
        assert core_contains(game, shap, tol=1e-8)[0], spec
        assert core_contains(game, nuc, tol=1e-8)[0], spec

        full = game.full_mask
        lowers = np.array([0.0] + [core_bounds(src, m).lower for m in range(1, full + 1)])
        uppers = np.array([0.0] + [core_bounds(src, m).upper for m in range(1, full + 1)])
        masks = np.stack([[1.0 if m >> l & 1 else 0.0 for l in range(num_agents)]
                          for m in range(full + 1)])
        base = np.asarray(shap)
        cand = np.abs(base[None, :] + rng.normal(0, 0.08, size=(1000, num_agents)))
        rescale = rng.random(1000) < 0.7
        cand[rescale] *= (game.grand_value() / cand[rescale].sum(axis=1))[:, None]
        sums = cand @ masks.T
        tol = 1e-9
        via_bounds = np.all((sums >= lowers - tol) & (sums <= uppers + tol), axis=1)
        efficiency = np.abs(sums[:, full] - game.grand_value()) <= tol
        rationality = np.all(sums[:, 1:full] >= game.values[1:full] - tol, axis=1)
        via_definition = efficiency & rationality
        assert np.array_equal(via_bounds, via_definition), spec
    _report(4, "100 random degraded games: convexity, core membership, "
               "bound equivalence on 1000 allocations each", t0, 120.0)


def test_criterion_5_polar_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        assert np.array_equal(polar_transform(polar_transform(x)), x)
        assert np.array_equal(polar_transform(x ^ y),
                              polar_transform(x) ^ polar_transform(y))

    for n in (8, 16):
        for p in (0.11, 0.3):
            exact = entropy_profile_exact(p, n)
            mc = entropy_profile_mc(p, n, 100_000, seed=17)
            assert np.max(np.abs(exact.h - mc.h)) <= 0.02

    p = 0.11
    target = binary_entropy(p)
    h_frac, v_frac = [], []
    for n in (64, 128, 256, 512, 1024):
        prof = entropy_profile_mc(p, n, 40_000, seed=23)
        sets = build_index_sets(prof, beta=0.3)
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
    cells = 0
    for n in (2, 4):
        for num_agents in (1, 2):
            for r in (0, 1, 2):
                if r > n:
                    continue
                for p in (0.1, 0.3):
                    res = empirical_secrecy_check(
                        0.4, (p,) * num_agents, n, (r,) * num_agents)
                    assert res.distance <= res.bound + 1e-9, (n, num_agents, r, p)
                    cells += 1
    assert cells == 24
    assert toeplitz_collision_rate(4, 2) <= 0.25 + 1e-12
    _report(7, f"exact variational distance within the bound in {cells} cells; "
               "Toeplitz family two-universal by brute force", t0, 300.0)


def test_criterion_8_clearance_levels(example2_source):
    t0 = time.perf_counter()
    games = clearance_level_games(example2_source, [(1,), (2, 3)])
    top = games[0]
    assert top.num_agents == 1
    assert top.value(1) == pytest.approx(EXAMPLE2_VALUES[0b001], abs=1e-5)
    _report(8, "top clearance level's one-agent game equals the published "
               "singleton value", t0, 1.0)

"""Invariant suites behind the `verify` CLI command.

Each suite runs a battery of structural properties at a size that keeps
the command interactive, returning one (name, passed, witness) triple per
property.  Failures carry a printable witness; the CLI turns any failure
into a nonzero exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import allocate, game as game_mod, polar, protocol, secrecy
from .source import (DegradedSourceSpec, build_degraded_source,
                     conditional_mi, verify_markov)

SUITE_NAMES = ("game", "allocation", "polar", "secrecy", "all")


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


def _random_spec(rng, num_agents: int) -> DegradedSourceSpec:
    q = rng.uniform(0.15, 0.85)
    p = tuple(rng.uniform(0.05, 0.45) for _ in range(num_agents))
    return DegradedSourceSpec(q=q, p=p)


def game_suite(seed: int = 0, specs: int = 20) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    sup_ok, mod_ok, markov_ok, mono_ok, identity_ok = True, True, True, True, True
    witness = {"sup": "", "mod": "", "markov": "", "mono": "", "identity": ""}
    bounds_ok, bounds_wit = True, ""
    for t in range(specs):
        spec = _random_spec(rng, int(rng.integers(2, 5)))
        src = build_degraded_source(spec)
        if not verify_markov(src, tol=1e-10):
            markov_ok, witness["markov"] = False, f"spec {spec}"
        g = game_mod.value_function(src)
        ok, wit = game_mod.is_superadditive(g, tol=1e-10)
        if not ok:
            sup_ok, witness["sup"] = False, f"spec {spec}, pair {wit}"
        ok, wit = game_mod.is_supermodular(g, tol=1e-10)
        if not ok:
            mod_ok, witness["mod"] = False, f"spec {spec}, pair {wit}"
        full = g.full_mask
        for mask in range(1, full + 1):
            sub = (mask - 1) & mask
            if g.values[sub] > g.values[mask] + 1e-12:
                mono_ok, witness["mono"] = False, f"spec {spec}, {sub} in {mask}"
            ident = g.grand_value() - g.value(full & ~mask)
            direct = conditional_mi(src, mask)
            if abs(ident - direct) > 1e-10:
                identity_ok, witness["identity"] = False, f"spec {spec}, S={mask}"
        # core bound equivalence on random allocations
        alloc = allocate.shapley_from_game(g)
        lower, upper = game_mod.core_bounds(g)
        for _ in range(20):
            cand = np.abs(alloc + rng.normal(0, 0.05, size=len(alloc)))
            cand *= g.grand_value() / cand.sum()
            in_core, _ = game_mod.core_contains(g, cand, tol=1e-9)
            sums = game_mod.coalition_sums(cand)
            via_bounds = bool(np.all((lower - 1e-9 <= sums) & (sums <= upper + 1e-9)))
            if in_core != via_bounds:
                bounds_ok = False
                bounds_wit = f"spec {spec}, allocation {cand}"
    results.append(CheckResult("markov_chain_verified", markov_ok, witness["markov"]))
    results.append(CheckResult("value_function_superadditive", sup_ok, witness["sup"]))
    results.append(CheckResult("value_function_supermodular", mod_ok, witness["mod"]))
    results.append(CheckResult("value_function_monotone", mono_ok, witness["mono"]))
    results.append(CheckResult("grand_minus_complement_identity", identity_ok, witness["identity"]))
    results.append(CheckResult("core_bounds_equivalence", bounds_ok, bounds_wit))
    return results


def allocation_suite(seed: int = 0, specs: int = 15) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    dual_ok, eff_ok, core_ok, oracle_ok = True, True, True, True
    wit = {"dual": "", "eff": "", "core": "", "oracle": ""}
    for t in range(specs):
        spec = _random_spec(rng, int(rng.integers(2, 4)))
        src = build_degraded_source(spec)
        g = game_mod.value_function(src)
        s1 = allocate.shapley_from_game(g)
        s2 = allocate.shapley_closed_form(src)
        if np.max(np.abs(s1 - s2)) > 1e-9:
            dual_ok, wit["dual"] = False, f"spec {spec}: {s1} vs {s2}"
        nuc, _ = allocate.nucleolus(g)
        for name, alloc in (("shapley", s1), ("nucleolus", nuc)):
            if abs(alloc.sum() - g.grand_value()) > 1e-9:
                eff_ok, wit["eff"] = False, f"{name} on {spec}"
            ok, w = game_mod.core_contains(g, alloc, tol=1e-8)
            if not ok:
                core_ok, wit["core"] = False, f"{name} on {spec}, coalition {w}"
        if g.num_agents <= 3 and t < 5:
            ref = allocate.brute_force_nucleolus(g, grid_step=2e-3)
            if np.max(np.abs(ref - nuc)) > 4e-3:
                oracle_ok, wit["oracle"] = False, f"spec {spec}: {nuc} vs grid {ref}"
    # LP-free nucleolus oracle at sizes the grid sweep cannot reach: the
    # source games are convex, where a core point with a zero prekernel gap
    # is the nucleolus
    cert_ok, cert_wit = True, ""
    for num_agents in (8, 9, 10):
        spec = _random_spec(rng, num_agents)
        g = game_mod.value_function(build_degraded_source(spec))
        nuc, _ = allocate.nucleolus(g)
        gap = allocate.prekernel_gap(g, nuc)
        in_core, w = game_mod.core_contains(g, nuc, tol=1e-9)
        if gap > 1e-9 or not in_core:
            cert_ok, cert_wit = False, f"spec {spec}: gap {gap:.3g}, core violation {w}"
    results.append(CheckResult("shapley_dual_route_agreement", dual_ok, wit["dual"]))
    results.append(CheckResult("allocations_efficient", eff_ok, wit["eff"]))
    results.append(CheckResult("allocations_in_core", core_ok, wit["core"]))
    results.append(CheckResult("nucleolus_matches_grid_oracle", oracle_ok, wit["oracle"]))
    results.append(CheckResult("nucleolus_prekernel_certificate", cert_ok, cert_wit))
    return results


def polar_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    ok, wit = True, ""
    for n in (2, 4, 8, 64, 256, 1024):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        if not np.array_equal(polar.polar_transform(polar.polar_transform(x)), x):
            ok, wit = False, f"N={n}"
    results.append(CheckResult("transform_involution", ok, wit))
    ok, wit = True, ""
    for n in (4, 32, 128):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        lhs = polar.polar_transform(x ^ y)
        rhs = polar.polar_transform(x) ^ polar.polar_transform(y)
        if not np.array_equal(lhs, rhs):
            ok, wit = False, f"N={n}"
    results.append(CheckResult("transform_linear", ok, wit))
    ok, wit = True, ""
    for n, p in ((8, 0.2), (16, 0.35)):
        exact = polar.entropy_profile_exact(p, n)
        mc = polar.entropy_profile_mc(p, n, 20000, seed=7)
        gap = float(np.max(np.abs(exact.h - mc.h)))
        if gap > 0.02:
            ok, wit = False, f"N={n} p={p} gap={gap:.4f}"
    results.append(CheckResult("mc_profile_matches_exact", ok, wit))
    ok, wit = True, ""
    for n in (8, 16):
        for p in (0.11, 0.2, 0.3):
            exact = polar.entropy_profile_exact(p, n)
            prof = polar.construct_profile(p, n)
            for field in ("h", "genie_error"):
                slack = float(np.min(getattr(prof, field) - getattr(exact, field)))
                if slack < -1e-12:
                    ok, wit = False, f"N={n} p={p} {field} below exact by {-slack:.3g}"
    results.append(CheckResult("deterministic_profile_brackets_exact", ok, wit))
    ok, wit = True, ""
    exact_sums = [polar.entropy_profile_exact(p, 16).h.sum() for p in (0.1, 0.2, 0.3)]
    if not all(a <= b + 1e-12 for a, b in zip(exact_sums, exact_sums[1:])):
        ok, wit = False, f"sums {exact_sums}"
    results.append(CheckResult("profile_monotone_in_crossover", ok, wit))
    return results


def toeplitz_matches_matrix(seed: int = 0) -> CheckResult:
    """ToeplitzHash.apply against an explicit GF(2) matrix product at
    production size: n = 4096, r in {1, 682, 4096} on seeded random rows,
    plus the all-ones n = r = 4096 case where every sum reaches n."""
    rng = np.random.default_rng(seed)
    n = 4096
    cases = [(protocol.sample_hash(int(rng.integers(2 ** 62)), n, r),
              rng.integers(0, 2, (3, n), dtype=np.uint8)) for r in (1, 682, n)]
    cases.append((protocol.ToeplitzHash(np.ones(2 * n - 1, dtype=np.uint8), n, n),
                  np.ones((1, n), dtype=np.uint8)))
    for h, x in cases:
        # row i is bits[i:i+n] reversed, so T[i, j] = bits[i - j + n - 1]
        t = np.lib.stride_tricks.sliding_window_view(h.bits, n)[:, ::-1]
        expected = ((t.astype(np.int32) @ x.T) & 1).T
        if not np.array_equal(h.apply(x), expected):
            return CheckResult("toeplitz_matches_matrix", False, f"n={n} r={h.r_out}")
    return CheckResult("toeplitz_matches_matrix", True)


def secrecy_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    ok, wit = True, ""
    for n in (2, 4):
        for p in (0.1, 0.3):
            for r in (0, 1):
                res = secrecy.empirical_secrecy_check(0.4, (p,), n, (r,))
                if not res.holds:
                    ok, wit = False, f"N={n} p={p} r={r}: {res.distance} > {res.bound}"
    res2 = secrecy.empirical_secrecy_check(0.4, (0.1, 0.3), 2, (1, 1))
    if not res2.holds:
        ok, wit = False, f"two-agent cell: {res2.distance} > {res2.bound}"
    results.append(CheckResult("leftover_hash_bound_holds", ok, wit))
    worst = secrecy.toeplitz_collision_rate(4, 2)
    results.append(CheckResult(
        "toeplitz_two_universal", worst <= 0.25 + 1e-12, f"worst collision {worst}"
    ))
    results.append(toeplitz_matches_matrix(seed))
    return results


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if name == "game":
        return game_suite(seed)
    if name == "allocation":
        return allocation_suite(seed)
    if name == "polar":
        return polar_suite(seed)
    if name == "secrecy":
        return secrecy_suite(seed)
    out = []
    for sub in ("game", "allocation", "polar", "secrecy"):
        out.extend(run_suite(sub, seed))
    return out

"""Invariant checks, shared by the `verify` CLI command and the tests.

Each check is named after its `verify` line, fixes its own tolerance and
takes the instances it runs on: games, games with their allocations from
`solve`, sources, specs, sizes, cells, a seed or a sample count.  The
suites build instances at a size that keeps `verify` interactive; the
tests pass their own.  A failure's witness names the first failing
instance, and the CLI turns any failure into exit code 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import allocate, polar, protocol, secrecy
from .game import (coalition_sums, core_bounds, core_contains,
                   is_superadditive, is_supermodular, value_function)
from .source import DegradedSourceSpec, JointSource, mutual_information, verify_markov


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


def check(witnesses):
    """Turn a generator of failure witnesses into a check named after it:
    the first witness fails the check, and no witness passes it."""
    @functools.wraps(witnesses)
    def run(*args, **kwargs) -> CheckResult:
        witness = next(witnesses(*args, **kwargs), None)
        return CheckResult(witnesses.__name__, witness is None, witness or "")
    return run


@check
def markov_chain_verified(sources):
    """Agents conditionally independent given X0 within 1e-10 (verify_markov)."""
    for i, src in enumerate(sources):
        if not verify_markov(src, tol=1e-10):
            yield f"source {i}"


@check
def value_function_superadditive(games):
    """v(S) + v(T) <= v(S|T) + 1e-10 for all disjoint S, T."""
    for i, g in enumerate(games):
        ok, pair = is_superadditive(g, tol=1e-10)
        if not ok:
            yield f"game {i}, pair {pair}"


@check
def value_function_supermodular(games):
    """v(U) + v(V) <= v(U|V) + v(U&V) + 1e-10 for all U, V."""
    for i, g in enumerate(games):
        ok, pair = is_supermodular(g, tol=1e-10)
        if not ok:
            yield f"game {i}, pair {pair}"


@check
def value_function_monotone(games):
    """v(S minus l) <= v(S) + 1e-12 for every coalition S and member l."""
    for i, g in enumerate(games):
        masks = np.arange(g.full_mask + 1)
        for l in range(g.num_agents):
            s = masks[masks & 1 << l > 0]
            bad = s[g.values[s ^ 1 << l] > g.values[s] + 1e-12]
            if bad.size:
                yield f"game {i}, {bad[0] ^ 1 << l} in {bad[0]}"


@check
def grand_minus_complement_identity(sources):
    """v(N) - v(S^c) = I(X_S ; X0) within 1e-10 for every coalition S."""
    for i, src in enumerate(sources):
        g = value_function(src)
        s = np.arange(1, g.full_mask + 1)
        gap = g.grand_value() - g.values[g.full_mask & ~s] - mutual_information(src, s << 1, 1)
        bad = np.flatnonzero(np.abs(gap) > 1e-10)
        if bad.size:
            yield f"source {i}, S={s[bad[0]]}"


@check
def core_bounds_equivalence(cases):
    """Core bounds and core_contains agree at 1e-11 on (game, allocation rows) cases."""
    for i, (g, allocations) in enumerate(cases):
        lower, upper = core_bounds(g)
        sums = coalition_sums(allocations)
        via_bounds = np.all((lower - 1e-11 <= sums) & (sums <= upper + 1e-11), axis=1)
        for x, inside in zip(allocations, via_bounds):
            if inside != core_contains(g, x, tol=1e-11)[0]:
                yield f"game {i}, allocation {x.tolist()}"


@check
def shapley_dual_route_agreement(sources):
    """Shapley value from the value table and in closed form within 1e-9."""
    for i, src in enumerate(sources):
        a = allocate.shapley_from_game(value_function(src))
        b = allocate.shapley_closed_form(src)
        if not np.max(np.abs(a - b)) < 1e-9:
            yield f"source {i}: {a} vs {b}"


def solve(games):
    """Each game with its Shapley value and nucleolus, each solved once.
    Looks allocate.nucleolus up per call, so a test can replace it."""
    return [(g, {"shapley": allocate.shapley_from_game(g), "nucleolus": allocate.nucleolus(g)[0]})
            for g in games]


@check
def allocations_efficient(solved):
    """The Shapley value and the nucleolus sum to v(N) within 1e-9."""
    for i, (g, solutions) in enumerate(solved):
        for name, x in solutions.items():
            if abs(x.sum() - g.grand_value()) > 1e-9:
                yield f"{name} on game {i}"


@check
def allocations_in_core(solved):
    """The Shapley value and the nucleolus lie in the core within 1e-8."""
    for i, (g, solutions) in enumerate(solved):
        for name, x in solutions.items():
            ok, coalition = core_contains(g, x, tol=1e-8)
            if not ok:
                yield f"{name} on game {i}, coalition {coalition}"


@check
def nucleolus_matches_grid_oracle(solved, grid_step):
    """Nucleolus within two grid steps of the grid-sweep oracle (L <= 3)."""
    for i, (g, solutions) in enumerate(solved):
        nuc = solutions["nucleolus"]
        ref = allocate.brute_force_nucleolus(g, grid_step=grid_step)
        if np.max(np.abs(ref - nuc)) > 2 * grid_step:
            yield f"game {i}: {nuc} vs grid {ref}"


@check
def nucleolus_prekernel_certificate(games):
    """LP-free nucleolus oracle at sizes the grid sweep cannot reach: on a
    convex game (adjacent-pair check at 1e-9) a core point with a zero
    prekernel gap (both 1e-9) is it."""
    for i, g in enumerate(games):
        nuc, _ = allocate.nucleolus(g)
        gap = allocate.prekernel_gap(g, nuc)
        in_core, coalition = core_contains(g, nuc, tol=1e-9)
        convex, pair = is_supermodular(g, tol=1e-9)
        if gap > 1e-9 or not in_core or not convex:
            yield (f"game {i} (L={g.num_agents}): gap {gap:.3g}, core violation {coalition}, "
                   f"supermodularity violation {pair}")


@check
def nucleolus_routes_agree(games):
    """On convex games nucleolus takes the prekernel route and matches
    nucleolus_lp: rates and stage optima within 1e-12 v(N), the same fixed
    sets and ranks stage by stage."""
    for i, g in enumerate(games):
        rates, trace = allocate.nucleolus(g)
        lp_rates, lp_trace = allocate.nucleolus_lp(g)
        tol = 1e-12 * g.grand_value()
        gaps = [abs(a.optimum - b.optimum) for a, b in zip(trace.stages, lp_trace.stages)]
        if trace.route != "prekernel":
            yield f"game {i} (L={g.num_agents}): {trace.route} route"
        elif (len(trace.stages) != len(lp_trace.stages)
              or not all(np.array_equal(s.fixed_coalitions, t.fixed_coalitions)
                         and s.system_rank == t.system_rank
                         for s, t in zip(trace.stages, lp_trace.stages))):
            yield f"game {i} (L={g.num_agents}): {trace.to_json()} vs {lp_trace.to_json()}"
        elif np.max(np.abs(rates - lp_rates)) > tol or max(gaps, default=0.0) > tol:
            yield (f"game {i} (L={g.num_agents}): rates {rates} vs {lp_rates}, "
                   f"stage optima apart by {max(gaps, default=0.0):.3g}")


@check
def degraded_table_matches_dense(specs):
    """Product-form entropy table within 1e-12 of the dense marginalisation."""
    for i, spec in enumerate(specs):
        gap = float(np.max(np.abs(spec.entropies - JointSource.from_spec(spec).entropies)))
        if not gap <= 1e-12:
            yield f"spec {i} (L={spec.num_agents}): gap {gap:.3g}"


def transform_involution_and_linear(sizes, seed) -> list[CheckResult]:
    """Polar transform involution and GF(2) linearity on seeded words; the
    linearity line also compares the transform with x F^(x)n, the explicit
    Kronecker power of F = [[1,0],[1,1]], at N = 1, 2, ..., 256 on 3-D,
    non-contiguous and 1-D input."""
    rng = np.random.default_rng(seed)
    involution, linear = "", ""
    for n in sizes:
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        tx = polar.polar_transform(x)
        if not np.array_equal(polar.polar_transform(tx), x):
            involution = involution or f"N={n}"
        if not np.array_equal(polar.polar_transform(x ^ y), tx ^ polar.polar_transform(y)):
            linear = linear or f"N={n}"
    g = np.ones((1, 1), dtype=np.int64)
    for _ in range(9):
        n = g.shape[0]
        x = rng.integers(0, 2, (2, 3, 2 * n), dtype=np.uint8)[..., ::2]
        expected = (x.astype(np.int64) @ g) & 1
        for got, want in ((polar.polar_transform(x), expected),
                          (polar.polar_transform(np.ascontiguousarray(x)), expected),
                          (polar.polar_transform(x[1, 2]), expected[1, 2])):
            if not np.array_equal(got, want):
                linear = linear or f"N={n}: not x F^(x)n on shape {want.shape}"
        g = np.kron(g, [[1, 0], [1, 1]])
    return [CheckResult("transform_involution", not involution, involution),
            CheckResult("transform_linear", not linear, linear)]


@check
def mc_profile_matches_exact(cells, num_samples, seed):
    """Monte Carlo entropy profile within 0.02 of the exact one per (N, p) cell."""
    for n, p in cells:
        exact = polar.entropy_profile_exact(p, n)
        mc = polar.entropy_profile_mc(p, n, num_samples, seed=seed)
        gap = float(np.max(np.abs(exact.h - mc.h)))
        if gap > 0.02:
            yield f"N={n} p={p} gap={gap:.4f}"


@check
def deterministic_profile_brackets_exact(cells):
    """Constructed profile at or above the exact one per index and (N, p) cell."""
    for n, p in cells:
        exact = polar.entropy_profile_exact(p, n)
        prof = polar.construct_profile(p, n)
        for field in ("h", "genie_error"):
            slack = float(np.min(getattr(prof, field) - getattr(exact, field)))
            if slack < -1e-12:
                yield f"N={n} p={p} {field} below exact by {-slack:.3g}"


@check
def profile_monotone_in_crossover(n, crossovers):
    """Exact profile's total entropy nondecreasing along ascending crossovers."""
    sums = [polar.entropy_profile_exact(p, n).h.sum() for p in crossovers]
    if not all(a <= b + 1e-12 for a, b in zip(sums, sums[1:])):
        yield f"sums {sums}"


@check
def leftover_hash_bound_holds(cells):
    """Exact distance within the leftover-hash bound per (q, p, N, r) cell."""
    for q, p, n, r in cells:
        res = secrecy.empirical_secrecy_check(q, p, n, r)
        if not res.holds:
            yield f"q={q} p={p} N={n} r={r}: {res.distance} > {res.bound}"


@check
def toeplitz_two_universal(n, r):
    """Brute-force worst collision rate of the n-to-r Toeplitz family <= 2^-r."""
    worst = secrecy.toeplitz_collision_rate(n, r)
    if worst > 2.0 ** -r + 1e-12:
        yield f"worst collision {worst}"


@check
def toeplitz_matches_matrix(seed=0):
    """ToeplitzHash.apply against an explicit GF(2) matrix product at
    production size: n = 4096, r in {1, 682, 4096} on seeded random rows,
    the all-ones n = r = 4096 case where every sum reaches n, and a stack
    of three r = 682 matrices hashing one row each."""
    rng = np.random.default_rng(seed)
    n = 4096

    def dense(bits):
        # row i is bits[i:i+n] reversed, so T[i, j] = bits[i - j + n - 1]
        return np.lib.stride_tricks.sliding_window_view(bits, n)[:, ::-1].astype(np.int32)

    cases = [(protocol.sample_hash(int(rng.integers(2 ** 62)), n, r),
              rng.integers(0, 2, (3, n), dtype=np.uint8)) for r in (1, 682, n)]
    cases.append((protocol.ToeplitzHash(np.ones(2 * n - 1, dtype=np.uint8), n, n),
                  np.ones((1, n), dtype=np.uint8)))
    for h, x in cases:
        if not np.array_equal(h.apply(x), ((dense(h.bits) @ x.T) & 1).T):
            yield f"n={n} r={h.r_out}"
    singles = [protocol.sample_hash(int(rng.integers(2 ** 62)), n, 682) for _ in range(3)]
    x = rng.integers(0, 2, (3, n), dtype=np.uint8)
    stack = protocol.ToeplitzHash(np.stack([h.bits for h in singles]), n, 682)
    expected = np.stack([(dense(h.bits) @ row) & 1 for h, row in zip(singles, x)])
    if not np.array_equal(stack.apply(x), expected):
        yield f"n={n} r=682, stack of 3"


def _random_spec(rng, num_agents: int) -> DegradedSourceSpec:
    q = rng.uniform(0.15, 0.85)
    p = tuple(rng.uniform(0.05, 0.45) for _ in range(num_agents))
    return DegradedSourceSpec(q=q, p=p)


def game_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    sources, games, cases = [], [], []
    for _ in range(20):
        src = _random_spec(rng, int(rng.integers(2, 5)))
        g = value_function(src)
        # twenty efficient allocations scattered around the Shapley value
        x = np.abs(allocate.shapley_from_game(g) + rng.normal(0, 0.05, size=(20, g.num_agents)))
        cases.append((g, x * (g.grand_value() / x.sum(axis=1))[:, None]))
        sources.append(src)
        games.append(g)
    # extreme crossovers and priors next to seeded draws up to L = 10
    edge = [DegradedSourceSpec(q=q, p=(1e-9, 0.5, 1 - 1e-9) * 2)
            for q in (1e-9, 0.5, 1 - 1e-9)]
    tables = [_random_spec(rng, num_agents) for num_agents in (5, 8, 10)] + edge
    return [markov_chain_verified([JointSource.from_spec(src) for src in sources]),
            degraded_table_matches_dense(tables),
            value_function_superadditive(games), value_function_supermodular(games),
            value_function_monotone(games), grand_minus_complement_identity(sources),
            core_bounds_equivalence(cases)]


def allocation_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    sources = [_random_spec(rng, int(rng.integers(2, 4))) for _ in range(15)]
    solved = solve(value_function(src) for src in sources)
    large = [value_function(_random_spec(rng, num_agents)) for num_agents in (8, 9, 10)]
    return [shapley_dual_route_agreement(sources), allocations_efficient(solved),
            allocations_in_core(solved), nucleolus_matches_grid_oracle(solved[:5], 2e-3),
            nucleolus_prekernel_certificate(large), nucleolus_routes_agree(large)]


def polar_suite(seed: int = 0) -> list[CheckResult]:
    return [*transform_involution_and_linear((2, 4, 8, 32, 64, 128, 256, 1024), seed),
            mc_profile_matches_exact(((8, 0.2), (16, 0.35)), 20_000, seed=7),
            deterministic_profile_brackets_exact(
                [(n, p) for n in (8, 16) for p in (0.11, 0.2, 0.3)]),
            profile_monotone_in_crossover(16, (0.1, 0.2, 0.3))]


def secrecy_suite(seed: int = 0) -> list[CheckResult]:
    cells = [(0.4, (p,), n, (r,)) for n in (2, 4) for p in (0.1, 0.3) for r in (0, 1)]
    cells.append((0.4, (0.1, 0.3), 2, (1, 1)))
    return [leftover_hash_bound_holds(cells), toeplitz_two_universal(4, 2),
            toeplitz_matches_matrix(seed)]


SUITES = {"game": game_suite, "allocation": allocation_suite,
          "polar": polar_suite, "secrecy": secrecy_suite}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = SUITES if name == "all" else (name,)
    return [result for n in names for result in SUITES[n](seed)]

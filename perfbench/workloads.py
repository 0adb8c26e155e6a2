"""Workload inputs and output checks.

Inputs are made by run.py from the workload seed, without importing
keyshare; workers receive them as spec files.  The checks recompute what they
compare against with plain numpy, so a wrong program cannot vouch for itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SIMULATE = "simulate-ex2"
RANDOM = "game-random-L10"
TIERED = "game-tiered-L12"
WORKLOADS = (SIMULATE, RANDOM, TIERED)

# Example 2 at desk scale, acceptance criterion 6.
EXAMPLE2 = {"q": 0.40, "p": [0.20, 0.27, 0.25]}
SIM_N, SIM_B, SIM_EPS, SIM_RUNS = 1024, 4, 0.05, 100
SIM_R1 = 682  # floor(4096 * (R1 - eps)) at the exact Shapley rate

# Passes over the timed calls per untraced worker.  A simulate-ex2 worker pays
# a ~30 s cold build before its single ~8 s warm call, so a second warm call
# is the cheapest extra sample of e2e_s.
PASSES = {SIMULATE: 2}

# game-random-L10 draws specs from the distribution of keyshare's verify suite
# (q in [0.15, 0.85], p_l in [0.05, 0.45]).  Nucleolus cost is heavy-tailed in
# the spec: the first 12 draws of stream 0 need 79..1748 LP solves (2..41 s).
# A per-seed draw would make the measured time a property of the draw, so the
# pool is fixed to the two draws at the median of those 12 (#4: 383 LPs,
# #10: 346 LPs) and the workload seed permutes agents and spec order, which
# leaves the LP count unchanged.
RANDOM_L = 10
RANDOM_POOL_STREAM = 0
RANDOM_POOL_DRAWS = (4, 10)

# game-tiered-L12: three crossover tiers, best observers in the highest
# clearance level.
TIERS = ((5, 0.08), (5, 0.24), (2, 0.40))
TIERED_Q = 0.40

TOL_GAP = 1e-9
EXCESS_DIGITS = 9


def _random_pool() -> list[dict]:
    rng = np.random.default_rng(RANDOM_POOL_STREAM)
    draws = []
    for _ in range(max(RANDOM_POOL_DRAWS) + 1):
        q = float(rng.uniform(0.15, 0.85))
        p = [float(rng.uniform(0.05, 0.45)) for _ in range(RANDOM_L)]
        draws.append({"q": q, "p": p})
    return [draws[i] for i in RANDOM_POOL_DRAWS]


def _permuted(spec: dict, perm) -> dict:
    """Relabel agents: new agent i+1 is old agent perm[i]+1."""
    out = {"q": spec["q"], "p": [spec["p"][j] for j in perm]}
    if "levels" in spec:
        new_id = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
        out["levels"] = [sorted(new_id[a] for a in lev) for lev in spec["levels"]]
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a worker needs for one repetition; identical for equal seeds."""
    rng = np.random.default_rng(seed)
    if workload == SIMULATE:
        return {"spec": EXAMPLE2, "n": SIM_N, "b": SIM_B, "epsilon": SIM_EPS,
                "runs": SIM_RUNS, "protocol_seed": seed, "replay_run": seed % SIM_RUNS}
    if workload == RANDOM:
        pool = _random_pool()
        specs = [_permuted(s, rng.permutation(RANDOM_L)) for s in pool]
        return {"specs": [specs[i] for i in rng.permutation(len(specs))]}
    if workload == TIERED:
        p, levels, nxt = [], [], 1
        for count, crossover in TIERS:
            p += [crossover] * count
            levels.append(list(range(nxt, nxt + count)))
            nxt += count
        spec = {"q": TIERED_Q, "p": p, "levels": levels}
        return {"specs": [_permuted(spec, rng.permutation(len(p)))]}
    raise ValueError(f"unknown workload {workload!r}")


# -- oracles -----------------------------------------------------------------

def _h2(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def grand_value(spec: dict) -> float:
    """v(N) = I(X_1..X_L ; X0) for the degraded family, by enumeration."""
    q, p = spec["q"], np.asarray(spec["p"])
    bits = (np.arange(1 << len(p))[:, None] >> np.arange(len(p))) & 1
    given1 = np.prod(np.where(bits == 1, 1 - p, p), axis=1)
    given0 = np.prod(np.where(bits == 1, p, 1 - p), axis=1)
    joint = q * given1 + (1 - q) * given0
    return float(-(joint * np.log2(joint)).sum() - sum(_h2(x) for x in p))


def coalition_sums(rates) -> np.ndarray:
    r = np.asarray(rates, dtype=float)
    sums = np.zeros(1 << len(r))
    for l, x in enumerate(r):
        sums[1 << l:2 << l] = sums[:1 << l] + x
    return sums


def sorted_excesses(values, rates) -> np.ndarray:
    exc = np.asarray(values, dtype=float) - coalition_sums(rates)
    return np.round(np.sort(exc)[::-1], EXCESS_DIGITS)


def lex_leq(a, b) -> bool:
    diff = np.nonzero(a != b)[0]
    return diff.size == 0 or bool(a[diff[0]] < b[diff[0]])


def _fields(label: str):
    """A report or payload missing a field fails the check named label."""
    def deco(fn):
        @functools.wraps(fn)
        def checked(*args):
            try:
                return fn(*args)
            except (KeyError, IndexError, TypeError, ValueError):
                return {label: False}
        return checked
    return deco


@_fields("report_fields")
def check_simulate(inputs: dict, report: dict) -> dict[str, bool]:
    """Criterion-6 gates on one run_protocol report, unchanged."""
    floor = 0.9 * (grand_value(inputs["spec"]) - 3 * inputs["epsilon"])
    return {
        "failure_rate<=0.10": report["failure_rate"] <= 0.10,
        "sum_rate>=floor": report["sum_rate"] >= floor,
        "chi2_p>=0.01": report["chi2_p"] >= 0.01,
        "r1==682": report["per_agent"][1]["r"] == SIM_R1,
        "leakage_bound<=1": report["leakage_bound"] <= 1.0,
    }


@_fields("analyze_fields")
def check_analyze(payload) -> dict[str, bool]:
    return {
        "superadditive": payload["superadditive"] is True,
        "supermodular": payload["supermodular"] is True,
        "game_table": len(payload["game"]["v"]) == 1 << payload["game"]["L"],
    }


@_fields("allocate_fields")
def check_allocate(payload, values) -> dict[str, bool]:
    shap, nuc = payload["shapley"], payload["nucleolus"]
    return {
        "shapley_in_core": shap["in_core"] is True,
        "nucleolus_in_core": nuc["in_core"] is True,
        "closed_form_gap<=1e-9": shap["closed_form_gap"] <= TOL_GAP,
        "nucleolus_lex<=shapley": lex_leq(sorted_excesses(values, nuc["rates"]),
                                          sorted_excesses(values, shap["rates"])),
    }

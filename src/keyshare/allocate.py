"""Fair rate allocations: Shapley value and nucleolus.

The Shapley value comes in two independent routes (marginal-contribution
weights over the value table, and the mutual-information closed form
straight from the source) that must agree; the nucleolus runs the
successive linear-program scheme, fixing at each stage the coalitions
whose excess is pinned at the stage optimum across the entire optimal
face.  Every LP is sliced from one coalition-incidence matrix and handed
to linprog in matrix form.  A grid-sweep oracle validates small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import CapacityError, SolverError, ValidationError
from .game import CoalitionGame, coalition_sums
from .source import JointSource, _information, _member_masks

TIGHT_TOL = 1e-8
PIVOT_TOL = 1e-9


def lp_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Minimize c . x subject to a_ub x <= b_ub and a_eq x = b_eq.

    A thin call into linprog's matrix form (HiGHS); bounds lists one
    (low, high) pair per variable, None meaning unbounded on that side, and
    defaults to free variables.  Returns (status, optimum, solution): status
    is "optimal", "infeasible" or "unbounded"; optimum and solution are None
    unless optimal.
    """
    for name, part in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub),
                       ("a_eq", a_eq), ("b_eq", b_eq)):
        if part is not None and not np.all(np.isfinite(part)):
            raise ValidationError(f"linear program {name} has non-finite entries")
    if bounds is None:
        bounds = [(None, None)] * len(c)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return "optimal", float(res.fun), np.asarray(res.x, dtype=float)
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    raise SolverError(f"linear program solver failed: {res.message}")


def _incidence(masks, L: int) -> np.ndarray:
    """0/1 float matrix whose row k marks the members of coalition masks[k]."""
    return ((np.asarray(masks)[:, None] >> np.arange(L)) & 1).astype(float)


def shapley_from_game(game: CoalitionGame) -> np.ndarray:
    """Shapley value from the value table via subset weights.

    R_l = sum over coalitions S not containing l of
    |S|! (L-|S|-1)! / L! * (v(S+l) - v(S)).
    """
    L = game.num_agents
    fact = [math.factorial(k) for k in range(L + 1)]
    weights = np.array([fact[s] * fact[L - s - 1] / fact[L] for s in range(L)])
    weights = weights[coalition_sums(np.ones(L - 1)).astype(int)]
    v = game.values
    rates = np.zeros(L)
    for l in range(L):
        s = _member_masks([k for k in range(L) if k != l])
        rates[l] = np.sum(weights * (v[s | 1 << l] - v[s]))
    return rates


def shapley_closed_form(src: JointSource) -> np.ndarray:
    """Shapley value straight from the source statistics.

    R_l = I(X_l ; X0) - (1/L) sum_{S not cont. l} C(L-1, |S|)^-1 I(X_l ; X_S).
    Works only for degraded sources (the derivation uses the Markov chain),
    and must agree with shapley_from_game(value_function(src)).
    """
    from .game import _require_markov

    _require_markov(src)
    L = src.num_agents
    # S runs over the coalitions of the other agents (I(X_l ; nothing) = 0)
    sizes = coalition_sums(np.ones(L - 1)).astype(int)
    combs = np.array([math.comb(L - 1, k) for k in range(L)], dtype=float)[sizes]
    rates = np.zeros(L)
    for l in range(L):
        a = 1 << (l + 1)  # axis bitmask of agent l
        others = _member_masks([k for k in range(L) if k != l])
        penalty = np.sum(_information(src, a, others << 1) / combs)
        rates[l] = _information(src, a, 1) - penalty / L
    return rates


@dataclass
class NucleolusStage:
    optimum: float
    fixed_coalitions: list[int]
    system_rank: int


@dataclass
class NucleolusTrace:
    stages: list[NucleolusStage] = field(default_factory=list)

    def to_json(self) -> list[dict]:
        return [
            {"z": s.optimum, "fixed": s.fixed_coalitions, "rank": s.system_rank}
            for s in self.stages
        ]


def nucleolus(game: CoalitionGame):
    """Lexicographically optimal allocation plus the stage trace.

    Successive LPs over the nonempty proper coalitions, all sliced from one
    coalition-incidence matrix: stage k minimizes the worst free excess z
    (free rows as >= constraints on payoffs plus z, negated into a_ub;
    a_eq holds efficiency, then the fixed rows in the order they were
    fixed).  A tight coalition whose payoff cannot rise above v(S) - z* on
    the optimal face (one LP per tight coalition, same constraints with z
    pinned, only the objective changing) becomes an equality for later
    stages.  Stops once the fixed system pins all L payoffs.

    The stage tolerances are absolute, so a game with values of 1 or more
    (source-induced values stay below H(X0) <= 1 bit) is solved scaled into
    [0, 1) by an exact power of two; the nucleolus scales with the game.
    """
    exponent = math.frexp(float(np.max(game.values)))[1]
    if exponent > 0:
        rates, trace = nucleolus(CoalitionGame(game.num_agents, np.ldexp(game.values, -exponent)))
        for stage in trace.stages:
            stage.optimum = math.ldexp(stage.optimum, exponent)
        return np.ldexp(rates, exponent), trace
    L = game.num_agents
    v = game.values
    masks = np.arange(game.full_mask + 1)
    rows = _incidence(masks, L)
    stage_rows = np.hstack([rows, np.ones((len(masks), 1))])  # payoffs, then z
    free = (masks > 0) & (masks < game.full_mask)
    a_eq, b_eq = np.ones((1, L)), np.array([game.grand_value()])
    payoffs = [(0.0, None)] * L
    stage_c = np.zeros(L + 1)
    stage_c[L] = 1.0
    trace = NucleolusTrace()
    rank = np.linalg.matrix_rank(a_eq, tol=PIVOT_TOL)
    while rank < L:
        if len(trace.stages) >= 1 << L:
            raise SolverError("nucleolus stage count exceeded 2^L without full rank")
        status, z_star, sol = lp_solve(
            stage_c, -stage_rows[free], -v[free],
            np.hstack([a_eq, np.zeros((len(a_eq), 1))]), b_eq, payoffs + [(None, None)])
        if status != "optimal":
            raise ValidationError(
                f"nucleolus stage LP came back {status}; the game admits no "
                "feasible excess level (empty-core style degeneracy)"
            )
        sums = coalition_sums(sol[:L])
        tight = masks[free][np.abs(z_star + sums[free] - v[free]) <= TIGHT_TOL]
        a_ub, b_ub = -rows[free], -(v[free] - z_star)
        binding = []
        for mask in tight:
            status2, best, _ = lp_solve(-rows[mask], a_ub, b_ub, a_eq, b_eq, payoffs)
            if status2 != "optimal":
                raise SolverError(f"binding test LP came back {status2}")
            # -best = max payoff of the coalition over the optimal face;
            # if it can exceed v(S) - z*, the excess is not pinned yet
            if -best <= v[mask] - z_star + TIGHT_TOL:
                binding.append(int(mask))
        if not binding:
            raise SolverError("nucleolus stage found no binding coalition; cannot progress")
        free[binding] = False
        a_eq = np.vstack([a_eq, rows[binding]])
        b_eq = np.concatenate([b_eq, v[binding] - z_star])
        rank = np.linalg.matrix_rank(a_eq, tol=PIVOT_TOL)
        trace.stages.append(NucleolusStage(optimum=z_star, fixed_coalitions=binding,
                                           system_rank=int(rank)))

    solution, _, rank, _ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    if rank < L:
        raise SolverError("final nucleolus system is rank deficient")
    residual = a_eq @ solution - b_eq
    if np.max(np.abs(residual)) > 1e-7:
        raise SolverError(f"final nucleolus system inconsistent, residual {residual}")
    return solution, trace


def lexicographic_less(theta1: Sequence[float], theta2: Sequence[float]) -> bool:
    """Strict lexicographic order on equal-length excess vectors."""
    a = np.asarray(theta1, dtype=float)
    b = np.asarray(theta2, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    for x, y in zip(a, b):
        if x < y:
            return True
        if x > y:
            return False
    return False


def brute_force_nucleolus(game: CoalitionGame, grid_step: float) -> np.ndarray:
    """Grid-sweep oracle: lexicographic minimum over the efficiency simplex.

    Enumerates nonnegative allocations summing to v(grand) on a grid of
    the given step and returns the one whose nonincreasing excess vector
    is lexicographically least (ties break to the first point visited).
    The empty and grand coalitions are omitted from the comparison: their
    excesses are the same constants for every efficient candidate, so they
    cannot affect the order, while their floating-point residue would.
    Excess levels are compared after rounding to 1e-9: candidates whose
    leading excesses are genuinely equal (same coalition sums up to the
    grid) must tie there, and the deeper levels decide, instead of letting
    last-ulp noise mask them.  Only for L <= 3; meant as a test oracle.
    """
    L = game.num_agents
    if L > 3:
        raise CapacityError("grid-sweep nucleolus oracle limited to L <= 3")
    if grid_step <= 0:
        raise ValidationError("grid_step must be positive")
    total = game.grand_value()
    axis = np.arange(0.0, total + grid_step / 2, grid_step)
    if L == 1:
        pts = np.array([[total]])
    elif L == 2:
        pts = np.stack([axis, total - axis], axis=1)
        pts = pts[pts[:, 1] >= -1e-12]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        y3 = total - g1 - g2
        keep = y3 >= -1e-12
        pts = np.stack([g1[keep], g2[keep], y3[keep]], axis=1)
    pts = np.clip(pts, 0.0, None)
    proper = [m for m in range(1, (1 << L) - 1)]
    if not proper:
        return pts[0]
    exc = game.values[proper][None, :] - pts @ _incidence(proper, L).T
    exc_sorted = np.round(-np.sort(-exc, axis=1), 9)
    keys = tuple(exc_sorted[:, k] for k in range(exc_sorted.shape[1] - 1, -1, -1))
    best = np.lexsort(keys)[0]
    return pts[best]


def core_polytope_vertices(game: CoalitionGame) -> np.ndarray:
    """Vertices of the core polytope for a 3-agent game.

    Inside the efficiency plane the core is cut out by the six proper
    coalition constraints; vertices arise where two of them intersect.
    Returned in counterclockwise order around the centroid (plot-ready).
    """
    if game.num_agents != 3:
        raise CapacityError("core polytope vertex enumeration implemented for L = 3")
    v = game.values
    total = game.grand_value()
    rows, rhs = _incidence(np.arange(1, 7), 3), v[1:7]
    cand = []
    for i in range(6):
        for j in range(i + 1, 6):
            a = np.vstack([rows[i], rows[j], np.ones(3)])
            b = np.array([rhs[i], rhs[j], total])
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            pt = np.linalg.solve(a, b)
            if np.any(rows @ pt < rhs - 1e-9) or np.any(pt < -1e-9):
                continue
            cand.append(pt)
    if not cand:
        return np.zeros((0, 3))
    pts = np.unique(np.round(np.array(cand), 12), axis=0)
    centroid = pts.mean(axis=0)
    # order within the plane for polygon plotting
    e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
    ang = np.arctan2((pts - centroid) @ e2, (pts - centroid) @ e1)
    return pts[np.argsort(ang)]

"""Fair rate allocations: Shapley value and nucleolus.

The Shapley value comes in two independent routes (marginal-contribution
weights over the value table, and the mutual-information closed form
straight from the source) that must agree.  The nucleolus has two routes.
A convex game, which every spec game is, takes the prekernel route: its
prekernel is a single point and that point is the nucleolus (Maschler,
Peleg & Shapley, IJGT 1, 1972), reached from the Shapley value by a few
least-squares solves that balance the pairwise surpluses (Meinhardt, The
Pre-Kernel as a Tractable Solution for Cooperative Games, 2014); the stage
trace is then read off the excess levels at that point (Kohlberg, SIAM J.
Appl. Math. 20, 1971).  Every other game, and a convex one whose iteration
stalls, takes the successive linear-program scheme, which fixes at each
stage the coalitions whose excess is pinned at the stage optimum across
the entire optimal face, found from the LP multipliers and one max-slack
LP rather than one LP per tight coalition.  On both routes a coalition
whose row falls in the span of the fixed system leaves the free set, so
every stage raises the rank of the fixed system and L agents take at most
L - 1 stages.  Three oracles validate them: the two routes against each
other, a grid sweep on small instances and the prekernel gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapacityError, SolverError, ValidationError, real, reals, sequence
from .game import (SCAN_ENTRIES, CoalitionGame, _require_markov, _without, coalition_sums,
                   is_supermodular)
from .source import DegradedSourceSpec, JointSource, mutual_information

TIGHT_TOL = 1e-8
DUAL_TOL = 1e-9
PIVOT_TOL = 1e-9
# the prekernel iteration stops at a pairwise surplus gap of PREKERNEL_GAP
# times v(N) and hands the game to the LP route after this many steps per agent
PREKERNEL_GAP = 1e-13
PREKERNEL_STEPS_PER_AGENT = 2


def lp_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Minimize c . x subject to a_ub x <= b_ub and a_eq x = b_eq.

    A thin call into linprog's matrix form (HiGHS); bounds lists one
    (low, high) pair per variable, each finite or None (unbounded on that
    side), and defaults to free variables; a_ub and b_ub come together,
    as do a_eq and b_eq.  Returns (status, optimum, solution,
    multipliers): status is "optimal", "infeasible" or "unbounded";
    multipliers are the nonnegative dual values of the a_ub rows, one per
    row; optimum, solution and multipliers are None unless optimal.
    scipy.optimize is imported here, on the first LP, and not with the
    package: only games that are not convex reach it.
    """
    from scipy.optimize import linprog

    parts = {"c": c, "a_ub": a_ub, "b_ub": b_ub, "a_eq": a_eq, "b_eq": b_eq, "bounds": bounds}
    for name, part in parts.items():
        if part is not None or name == "c":
            sequence(part, f"linear program {name}")
    for a, b in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        if (parts[a] is None) != (parts[b] is None):
            raise ValidationError(f"linear program {a} and {b} must be given together")
    if bounds is None:
        bounds = [(None, None)] * len(c)
    if not all(len(sequence(pair, "linear program bounds entry")) == 2 for pair in bounds):
        raise ValidationError("linear program bounds must hold (low, high) pairs")
    parts["bounds"] = [b for pair in bounds for b in pair if b is not None]
    for name, part in parts.items():
        if part is not None and not np.all(np.isfinite(reals(part, f"linear program {name}"))):
            raise ValidationError(f"linear program {name} has non-finite entries")
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return ("optimal", float(res.fun), np.asarray(res.x, dtype=float),
                -np.asarray(res.ineqlin.marginals, dtype=float))
    if res.status == 2:
        return "infeasible", None, None, None
    if res.status == 3:
        return "unbounded", None, None, None
    raise SolverError(f"linear program solver failed: {res.message}")


def _incidence(masks, L: int) -> np.ndarray:
    """0/1 float matrix whose row k marks the members of coalition masks[k]."""
    return ((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(L)) & 1).astype(float)


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
    for agents, s in _complements(L):
        rates[agents] = np.sum(weights * (v[s | 1 << agents[:, None]] - v[s]), axis=1)
    return rates


def shapley_closed_form(src: JointSource | DegradedSourceSpec) -> np.ndarray:
    """Shapley value straight from the source statistics.

    R_l = I(X_l ; X0) - (1/L) sum_{S not cont. l} C(L-1, |S|)^-1 I(X_l ; X_S).
    Works only for degraded sources (the derivation uses the Markov chain),
    and must agree with shapley_from_game(value_function(src)).
    """
    _require_markov(src)
    L = src.num_agents
    # S runs over the coalitions of the other agents (I(X_l ; nothing) = 0)
    sizes = coalition_sums(np.ones(L - 1)).astype(int)
    combs = np.array([math.comb(L - 1, k) for k in range(L)], dtype=float)[sizes]
    rates = np.zeros(L)
    for agents, others in _complements(L):
        a = 2 << agents  # axis bitmask of each agent
        penalty = np.sum(mutual_information(src, a[:, None], others << 1) / combs, axis=1)
        rates[agents] = mutual_information(src, a, 1) - penalty / L
    return rates


def _complements(L: int):
    """(agents, masks) in batches over the agents, row r of masks holding
    the ascending coalitions without agents[r]: arange(2^(L-1)) with a zero
    bit put in at that agent's bit.  A batch takes as many agents as fit in
    SCAN_ENTRIES entries, and at least one."""
    step = max(1, SCAN_ENTRIES >> (L - 1))
    for start in range(0, L, step):
        agents = np.arange(start, min(start + step, L))
        yield agents, _without(np.arange(1 << (L - 1)), agents[:, None])


@dataclass
class NucleolusStage:
    optimum: float
    fixed_coalitions: np.ndarray  # int64 masks, ascending
    system_rank: int


@dataclass
class NucleolusTrace:
    """The stages, plus the route that found them: "prekernel" or "lp".
    iterations counts the prekernel steps taken, the ones before a fallback
    to the LP route included; it is None when the game failed the
    convexity check and the iteration never ran."""

    stages: list[NucleolusStage] = field(default_factory=list)
    route: str = "lp"
    iterations: int | None = None

    @property
    def convex(self) -> bool:
        """nucleolus found the game convex (a bare nucleolus_lp trace reads False)."""
        return self.iterations is not None

    def to_json(self) -> list[dict]:
        return [
            {"z": s.optimum, "fixed": s.fixed_coalitions.tolist(), "rank": s.system_rank}
            for s in self.stages
        ]


def _drop_spanned(free: np.ndarray, null: np.ndarray) -> int:
    """Unfree every free coalition S in the row space of the fixed system
    whose orthonormal null directions are the rows of null; returns its rank.

    Such a coalition has a constant excess on the set the system fixes, so
    it can no longer order the points left.  S stays free iff sum_d (sum_{i
    in S} d_i)^2 > PIVOT_TOL^2 over the rows d: its squared residual off the
    row space (_squared_sums).
    """
    free &= _squared_sums(null, len(free)) > PIVOT_TOL ** 2
    return null.shape[1] - len(null)


def _squared_sums(directions: np.ndarray, size: int) -> np.ndarray:
    """sum over the rows d of coalition_sums(d)^2, over all size masks.

    The rows go in batches of at most max(SCAN_ENTRIES, size) entries,
    each batch summed along its rows onto the running total, so the rows
    are added one at a time, in order, as a loop over them would.
    """
    total = np.zeros(size)
    step = max(1, SCAN_ENTRIES // size)
    for start in range(0, len(directions), step):
        squares = coalition_sums(directions[start:start + step])
        np.square(squares, out=squares)
        squares[0] += total
        np.sum(squares, axis=0, out=total)
        del squares  # or the next batch's sums would join it at the peak
    return total


def _extend_basis(a_eq: np.ndarray, b_eq: np.ndarray, null: np.ndarray, masks, rhs):
    """(a_eq, b_eq, null) plus each row of masks (right side in rhs) whose sum_d (row . d)^2
    over the rows d of null, the orthonormal null directions of a_eq, tops PIVOT_TOL^2 (as in
    _drop_spanned); masks go in SCAN_ENTRIES-entry blocks, a Householder step per added row."""
    L, rows, rights = a_eq.shape[1], [a_eq], [b_eq]
    for start in range(0, len(masks) if len(null) else 0, SCAN_ENTRIES // L):
        block = _incidence(masks[start:start + SCAN_ENTRIES // L], L)
        coefficients = block @ null.T
        # residuals only shrink as rows join, so no other row can raise the rank
        for k in (np.square(coefficients).sum(axis=1) > PIVOT_TOL ** 2).nonzero()[0]:
            u = coefficients[k].copy()
            if u @ u > PIVOT_TOL ** 2:
                u[0] += math.copysign(math.sqrt(u @ u), u[0])
                u *= math.sqrt(2 / (u @ u))  # I - u u^T reflects row k onto the first direction
                null = null[1:] - u[1:, None] * (u @ null)
                coefficients = coefficients[:, 1:] - (coefficients @ u)[:, None] * u[1:]
                rows.append(block[k:k + 1])
                rights.append(rhs[start + k:start + k + 1])
    return np.concatenate(rows), np.concatenate(rights), null


def _fix_stages(game: CoalitionGame, route: str, stage):
    """The stage loop both nucleolus routes share; returns (trace, a_eq, b_eq).

    The fixed system a_eq x = b_eq starts as efficiency.  Each stage,
    stage(free, a_eq, b_eq, null) returns the stage optimum z and the
    coalitions it fixes (ascending masks), free marking the masks not yet
    fixed; _extend_basis appends their rows that raise the rank (right sides
    v(S) - z), so a_eq is a basis of at most L rows with null directions null.

    Before the first stage and after every stage, every free coalition
    whose incidence row lies in the row space of a_eq leaves the free set,
    the ones just fixed included (_drop_spanned, on coalition sums of the
    null directions of a_eq): its excess is constant on the rest of the
    feasible set, so it cannot affect the lexicographic order (Maschler,
    Peleg & Shapley, Math. Oper. Res. 4, 1979).  Every coalition a stage
    fixes is then outside the span, the rank rises at every stage and
    there are at most L - 1 stages; a stage that does not raise it is a
    SolverError.  The loop stops once a_eq pins all L payoffs.
    """
    L = game.num_agents
    free = np.ones(game.full_mask + 1, dtype=bool)
    free[[0, -1]] = False
    a_eq, b_eq = np.ones((1, L)), np.array([game.grand_value()])
    null = np.linalg.svd(a_eq)[2][1:]
    trace = NucleolusTrace(route=route)
    rank = _drop_spanned(free, null)
    while rank < L:
        z, binding = stage(free, a_eq, b_eq, null)
        a_eq, b_eq, null = _extend_basis(a_eq, b_eq, null, binding, game.values[binding] - z)
        prior, rank = rank, _drop_spanned(free, null)
        if rank <= prior:
            raise SolverError(f"nucleolus stage {len(trace.stages) + 1} fixed {binding} "
                              f"without raising the system rank {prior}")
        trace.stages.append(NucleolusStage(optimum=z, fixed_coalitions=binding,
                                           system_rank=rank))
    return trace, a_eq, b_eq


def _solve_scaled(solve, game: CoalitionGame):
    """(rates, trace) of solve on the game scaled by the exact power of two
    that puts its largest value in [0.5, 1), scaled back: the rates and the
    stage optima."""
    exponent = math.frexp(float(np.max(game.values)))[1]
    rates, trace = solve(CoalitionGame(game.num_agents, np.ldexp(game.values, -exponent)))
    for stage in trace.stages:
        stage.optimum = math.ldexp(stage.optimum, exponent)
    return np.ldexp(rates, exponent), trace


def nucleolus(game: CoalitionGame):
    """Lexicographically optimal allocation plus the stage trace.

    The game is solved scaled as in nucleolus_lp, by the power of two
    that puts its largest value in [0.5, 1).  A game that passes
    is_supermodular there takes the prekernel route: from the Shapley value,
    each step picks for every ordered agent pair (i, j) the coalition S_ij
    of largest excess among those holding i but not j (the lowest mask on
    a tie) and solves efficiency plus x(S_ji) - x(S_ij) = v(S_ji) - v(S_ij)
    for all i < j by least squares.  It stops once the prekernel gap is at
    most PREKERNEL_GAP * v(N), and the stage trace is read off the excess
    levels at that point (_excess_levels).  Every other game, and a convex
    one still above the gap after PREKERNEL_STEPS_PER_AGENT * L steps,
    takes nucleolus_lp.

    Both routes define the same point.  Game values are clipped to >= 0 and
    a convex game's prenucleolus lies in its core, so it pays every agent
    x_i >= v({i}) >= 0: the LP route's bounds x >= 0 never bind, and its
    nucleolus is that prenucleolus, the game's one prekernel point.
    """
    return _solve_scaled(_nucleolus_scaled, game)


def _nucleolus_scaled(game: CoalitionGame):
    rates, steps = _prekernel_point(game) if is_supermodular(game)[0] else (None, None)
    if rates is None:
        rates, trace = _nucleolus_lp_scaled(game)
    else:
        trace = _excess_levels(game, rates)
    trace.iterations = steps
    return rates, trace


def _prekernel_point(game: CoalitionGame):
    """(rates, steps) at the prekernel point of a convex game, or (None,
    steps) when the gap is still above PREKERNEL_GAP * v(N) after the step cap."""
    L = game.num_agents
    upper = np.triu_indices(L, 1)
    tol = PREKERNEL_GAP * game.grand_value()
    x, steps = shapley_from_game(game), 0
    while True:
        gap, argmax = _surpluses(game, x)
        if gap <= tol:
            return x, steps
        if steps == PREKERNEL_STEPS_PER_AGENT * L:
            return None, steps
        s_ij, s_ji = argmax[upper], argmax.T[upper]
        a = np.vstack([np.ones(L), _incidence(s_ji, L) - _incidence(s_ij, L)])
        b = np.concatenate([[game.grand_value()], game.values[s_ji] - game.values[s_ij]])
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        steps += 1


def _excess_levels(game: CoalitionGame, x: np.ndarray) -> NucleolusTrace:
    """The stage trace at the nucleolus x, without LPs.

    The distinct excess levels of the free coalitions, walked downwards and
    grouped at TIGHT_TOL, are the stage optima, and the coalitions on each
    level the stage's fixed set (Kohlberg, SIAM J. Appl. Math. 20, 1971),
    run through _fix_stages like the LP route's stages.
    """
    excess = game.values - coalition_sums(x)

    def stage(free, a_eq, b_eq, null):
        z = float(np.max(excess[free]))
        return z, np.flatnonzero(free & (excess >= z - TIGHT_TOL))

    return _fix_stages(game, "prekernel", stage)[0]


def nucleolus_lp(game: CoalitionGame):
    """Lexicographically optimal allocation plus the stage trace, by LPs.

    Successive LPs over the nonempty proper coalitions, each building the
    incidence rows of the masks it uses: stage k minimizes the worst free
    excess z (free rows as >= constraints on payoffs plus z, negated into a_ub;
    a_eq holds efficiency, then the fixed rows stage by stage, each stage's
    in ascending mask order).  The coalitions whose excess stays at z* on
    the whole optimal face become equalities for later stages.  A tight
    coalition with a positive stage multiplier is such a coalition; the
    rest are settled by max-slack LPs (the known binding rows as
    equalities, the other tight rows lifted by a common slack t <= 1): t* > 0
    shows that none of the lifted rows is binding, and at t* = 0 the lifted
    rows with a positive multiplier are binding and join the equalities
    before the next max-slack LP.  _fix_stages runs the stages, prunes the
    free set and stops once the fixed system pins all L payoffs.

    The stage tolerances are absolute, so every game with a positive value
    is solved scaled by an exact power of two that puts its largest value
    in [0.5, 1); the nucleolus scales with the game.
    """
    return _solve_scaled(_nucleolus_lp_scaled, game)


def _nucleolus_lp_scaled(game: CoalitionGame):
    L = game.num_agents
    v = game.values
    payoffs = [(0.0, None)] * L
    stage_c = np.zeros(L + 1)
    stage_c[L] = 1.0
    slack_c = -stage_c

    def stage(free, a_eq, b_eq, null):
        # stage LP over (payoffs, z): every free row as x(S) + z >= v(S),
        # z the coefficient of bit L; the equalities get a zero z column
        status, z_star, sol, duals = lp_solve(
            stage_c, -_incidence(np.flatnonzero(free) | 1 << L, L + 1), -v[free],
            np.pad(a_eq, ((0, 0), (0, 1))), b_eq, payoffs + [(None, None)])
        if status != "optimal":
            raise ValidationError(
                f"nucleolus stage LP came back {status}; the game admits no "
                "feasible excess level (empty-core style degeneracy)"
            )
        sums = coalition_sums(sol[:L])
        tight, fixing = np.zeros_like(free), np.zeros_like(free)
        tight[free] = np.abs(z_star + sums[free] - v[free]) <= TIGHT_TOL
        # by complementary slackness a positive multiplier pins its
        # coalition's excess at z* on the whole optimal face
        fixing[free] = duals > DUAL_TOL
        fixing &= tight
        while np.any(tight & ~fixing):
            # max-slack LP over (payoffs, t): a basis of the pinned rows as
            # equalities, every other tight row lifted by t; t* > 0 frees all
            rest, fixed = np.flatnonzero(free & ~fixing), np.flatnonzero(fixing)
            lift = tight[rest]
            eq_a, eq_b, _ = _extend_basis(a_eq, b_eq, null, fixed, v[fixed] - z_star)
            status, neg_t, _, duals = lp_solve(
                slack_c, np.hstack([-_incidence(rest, L), lift[:, None]]), -(v[rest] - z_star),
                np.pad(eq_a, ((0, 0), (0, 1))), eq_b, payoffs + [(None, 1.0)])
            if status != "optimal":
                raise SolverError(f"max-slack LP came back {status}")
            if -neg_t > TIGHT_TOL:
                break
            # t* = 0: a lifted row with a positive multiplier is pinned too
            pinned = lift & (duals > DUAL_TOL)
            if not np.any(pinned):
                raise SolverError("max-slack LP pinned no tight coalition; cannot progress")
            fixing[rest[pinned]] = True
        return z_star, np.flatnonzero(fixing)

    trace, a_eq, b_eq = _fix_stages(game, "lp", stage)
    # a square regular basis (rank L); check efficiency and every fixed coalition
    solution = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
    surplus = coalition_sums(solution) - v
    residual = max([abs(surplus[-1])] + [np.max(np.abs(surplus[s.fixed_coalitions] + s.optimum))
                                         for s in trace.stages])
    if residual > 1e-7:
        raise SolverError(f"final nucleolus system inconsistent, residual {residual:g}")
    return solution, trace


def _surpluses(game: CoalitionGame, x: np.ndarray):
    """(gap, argmax): the surplus s_ij is the largest excess v(S) - x(S)
    over the coalitions S that hold i but not j, argmax[i, j] the lowest
    mask that attains it, and gap the largest |s_ij - s_ji| over agent
    pairs (0 for L = 1).

    In the order of descending excess, ties to the lower mask (a stable
    sort of -excess), argmax[i, j] is the first mask that holds i but not
    j.  The order is built a prefix at a time (_descending_prefix), each
    twice as long as the last, until every ordered pair has its mask; a
    batch tests at most max(SCAN_ENTRIES, L^2) (mask, pair) cells.  Near
    the prekernel point a prefix of a few hundred masks settles all pairs,
    so the whole order is sorted only when ties hold the pairs back.
    """
    L = game.num_agents
    excess = game.values - coalition_sums(x)
    first, second = np.nonzero(~np.eye(L, dtype=bool))  # ordered pairs, C order
    argmax = np.zeros((L, L), dtype=np.int64)
    todo, done, k = np.arange(len(first)), 0, L * L
    while todo.size:
        prefix = _descending_prefix(excess, k)
        while todo.size and done < len(prefix):
            block = prefix[done:done + max(1, SCAN_ENTRIES // todo.size), None]
            hit = (block >> first[todo] & ~(block >> second[todo])) & 1
            found = hit.any(axis=0)
            argmax[first[todo[found]], second[todo[found]]] = block[hit.argmax(axis=0)[found], 0]
            todo, done = todo[~found], done + len(block)
        k = 2 * max(k, done)  # grows every round, so the whole order is reached
    surplus = excess[argmax]
    return float(np.max(np.abs(surplus - surplus.T), initial=0.0)), argmax


def _descending_prefix(excess: np.ndarray, k: int) -> np.ndarray:
    """A prefix, at least k long, of the masks in the stable descending
    order of excess: every mask whose excess is at least the k-th largest,
    sorted; the whole order once k reaches the table's length."""
    if k >= len(excess):
        return np.argsort(-excess, kind="stable")
    kth = np.partition(excess, len(excess) - k)[len(excess) - k]
    top = np.flatnonzero(excess >= kth)
    return top[np.argsort(-excess[top], kind="stable")]


def prekernel_gap(game: CoalitionGame, rates: Sequence[float]) -> float:
    """Largest |s_ij - s_ji| over agent pairs i != j, an LP-free oracle.

    The surplus s_ij is the largest excess v(S) - x(S) over the coalitions
    S that hold i but not j (_surpluses).  For a convex game the prekernel
    is a single point and that point is the nucleolus (Maschler, Peleg &
    Shapley, IJGT 1, 1972), so a core allocation with a zero gap is the
    nucleolus.
    """
    L = game.num_agents
    x = reals(rates, "rates")
    if x.shape != (L,) or not np.all(np.isfinite(x)):
        raise ValidationError(f"allocation needs {L} finite rates, got {x.tolist()}")
    return _surpluses(game, x)[0]


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
    grid_step = real(grid_step, "grid_step", open=True)
    total = game.grand_value()
    if L == 1:
        return np.array([total])
    axis = np.arange(0.0, total + grid_step / 2, grid_step)
    if L == 2:
        pts = np.stack([axis, total - axis], axis=1)
        pts = pts[pts[:, 1] >= -1e-12]
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        y3 = total - g1 - g2
        keep = y3 >= -1e-12
        pts = np.stack([g1[keep], g2[keep], y3[keep]], axis=1)
    pts = np.clip(pts, 0.0, None)
    exc = game.values[1:-1] - coalition_sums(pts)[:, 1:-1]
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
    # distinct points in lexicographic order, as np.unique(..., axis=0) gives
    # them; np.unique would import numpy.ma, 10 ms on first use
    pts = np.round(np.array(cand), 12)
    pts = pts[np.lexsort(pts.T[::-1])]
    pts = pts[np.r_[True, (pts[1:] != pts[:-1]).any(axis=1)]]
    centroid = pts.mean(axis=0)
    # order within the plane for polygon plotting
    e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
    ang = np.arctan2((pts - centroid) @ e2, (pts - centroid) @ e1)
    return pts[np.argsort(ang)]

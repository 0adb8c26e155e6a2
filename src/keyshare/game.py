"""Coalitional game induced by a many-to-one source.

The value of coalition S is the conditional mutual information between the
coalition's observations and the base station's, given everything the
outsiders hold: v(S) = I(X_S ; X0 | X_{S^c}).  With an eavesdropper
component the conditioning additionally includes Z.  Everything downstream
(core tests, excesses, solution concepts) works on the resulting dense
value table indexed by coalition bitmask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .source import (EntropyQuery, JointSource, conditional_mi,
                     mutual_information, verify_markov)

DEFAULT_TOL = 1e-9
MAX_EXHAUSTIVE_AGENTS = 12


@dataclass
class CoalitionGame:
    """Value table over all 2^L coalitions; index = coalition bitmask."""

    num_agents: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (1 << self.num_agents,):
            raise ValidationError(
                f"value table needs {1 << self.num_agents} entries, got {self.values.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValidationError(
                f"game field 'v' must be finite, got {self.values[bad[0]]} "
                f"for coalition {int(bad[0])}"
            )
        if abs(self.values[0]) > 1e-12:
            raise ValidationError(f"v(empty) must be 0, got {self.values[0]}")
        if np.any(self.values < -1e-12):
            raise ValidationError("coalition values must be nonnegative")
        self.values[0] = 0.0
        np.clip(self.values, 0.0, None, out=self.values)

    @property
    def full_mask(self) -> int:
        return (1 << self.num_agents) - 1

    def value(self, mask: int) -> float:
        return float(self.values[mask])

    def grand_value(self) -> float:
        return float(self.values[-1])

    def to_json(self) -> dict:
        return {"L": self.num_agents, "v": [float(x) for x in self.values]}

    @classmethod
    def from_json(cls, raw: dict) -> "CoalitionGame":
        if "L" not in raw or "v" not in raw:
            raise ValidationError("game file must hold fields 'L' and 'v'")
        L = raw["L"]
        v = raw["v"]
        if not isinstance(L, int) or L < 1:
            raise ValidationError("game field 'L' must be a positive integer")
        if not isinstance(v, list) or len(v) != (1 << L):
            raise ValidationError(f"game field 'v' must list {1 << L} values for L={L}")
        return cls(num_agents=L, values=np.array(v, dtype=float))

    @classmethod
    def load(cls, path: str) -> "CoalitionGame":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"game file {path} is not valid JSON: {exc}") from exc
        return cls.from_json(raw)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class CoreBounds:
    coalition: int
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValidationError(
                f"core bounds inverted for coalition {self.coalition}: "
                f"[{self.lower}, {self.upper}]"
            )


def _require_markov(src: JointSource) -> None:
    if not (src.markov_degraded or verify_markov(src)):
        raise ValidationError(
            "source fails the degradedness check; the closed-form value "
            "function only holds for conditionally independent observations"
        )


def value_function(src: JointSource) -> CoalitionGame:
    """v(S) = I(X_S ; X0 | X_{S^c}) for every coalition bitmask S."""
    _require_markov(src)
    L = src.num_agents
    full = (1 << L) - 1
    values = np.zeros(1 << L)
    for mask in range(1, 1 << L):
        values[mask] = conditional_mi(src, mask, full & ~mask)
    return CoalitionGame(num_agents=L, values=values)


def value_function_conditional(src: JointSource) -> CoalitionGame:
    """Eavesdropper variant: v(S) = I(X_S ; X0 | X_{S^c}, Z)."""
    if not src.has_z:
        raise ValidationError("conditional value function needs a source with a Z component")
    _require_markov(src)
    L = src.num_agents
    full = (1 << L) - 1
    values = np.zeros(1 << L)
    for mask in range(1, 1 << L):
        values[mask] = conditional_mi(src, mask, full & ~mask, cond_z=True)
    return CoalitionGame(num_agents=L, values=values)


def clearance_level_games(src: JointSource,
                          levels: Sequence[Sequence[int]]) -> list[CoalitionGame]:
    """One conditional game per clearance level.

    Level q (highest clearance first) plays on its own agents, with every
    strictly lower level's observations handed to the eavesdropper: the
    value of S inside level q is I(X_S ; X0 | X_{level q minus S}, X_{lower}).
    Agents of higher-clearance levels are marginalized away entirely.
    """
    L = src.num_agents
    flat = [a for lev in levels for a in lev]
    if sorted(flat) != list(range(1, L + 1)):
        raise ValidationError(f"levels must partition agents 1..{L}, got {levels}")
    _require_markov(src)
    games = []
    for qi, level in enumerate(levels):
        members = sorted(level)
        lower_mask = 0
        for lev in levels[qi + 1:]:
            for a in lev:
                lower_mask |= 1 << (a - 1)
        n = len(members)
        values = np.zeros(1 << n)
        for sub in range(1, 1 << n):
            s_mask = 0
            for j in range(n):
                if sub >> j & 1:
                    s_mask |= 1 << (members[j] - 1)
            peers = 0
            for a in members:
                if not s_mask >> (a - 1) & 1:
                    peers |= 1 << (a - 1)
            values[sub] = conditional_mi(src, s_mask, peers | lower_mask)
        games.append(CoalitionGame(num_agents=n, values=values))
    return games


def is_superadditive(game: CoalitionGame, tol: float = DEFAULT_TOL):
    """(ok, witness): v(S) + v(T) <= v(S|T) + tol for all disjoint S, T."""
    L = game.num_agents
    if L > MAX_EXHAUSTIVE_AGENTS:
        raise CapacityError(f"exhaustive superadditivity scan guarded at L <= {MAX_EXHAUSTIVE_AGENTS}")
    v = game.values
    for s in range(1, 1 << L):
        # t runs over submasks of the complement; t > s visits each
        # unordered disjoint pair exactly once
        comp = game.full_mask & ~s
        t = comp
        while t:
            if t > s and v[s] + v[t] > v[s | t] + tol:
                return False, (s, t)
            t = (t - 1) & comp
    return True, None


def is_supermodular(game: CoalitionGame, tol: float = DEFAULT_TOL):
    """(ok, witness): v(U) + v(V) <= v(U|V) + v(U&V) + tol for all U, V."""
    L = game.num_agents
    if L > MAX_EXHAUSTIVE_AGENTS:
        raise CapacityError(f"exhaustive supermodularity scan guarded at L <= {MAX_EXHAUSTIVE_AGENTS}")
    v = game.values
    for u in range(1 << L):
        for w in range(u + 1, 1 << L):
            if v[u] + v[w] > v[u | w] + v[u & w] + tol:
                return False, (u, w)
    return True, None


def core_bounds(src: JointSource, coalition: int) -> CoreBounds:
    """Feasible range of a coalition's payoff inside the core.

    upper = I(X_S ; X0); lower = upper - I(X_S ; X_{S^c}), clamped at 0.
    """
    _require_markov(src)
    if coalition == 0:
        return CoreBounds(coalition=0, lower=0.0, upper=0.0)
    upper = conditional_mi(src, coalition)
    comp = src.full_mask & ~coalition
    leak = mutual_information(
        src, EntropyQuery(subset_a=coalition, subset_b=comp)
    ) if comp else 0.0
    lower = max(upper - leak, 0.0)
    return CoreBounds(coalition=coalition, lower=lower, upper=upper)


def core_contains(game: CoalitionGame, rates: Sequence[float],
                  tol: float = DEFAULT_TOL):
    """(ok, violated_coalition): efficiency plus group rationality.

    The allocation must sum to v(grand) within tol and give every proper
    coalition at least its standalone value minus tol.  The grand
    coalition bitmask doubles as the efficiency witness, also for
    non-finite rates, which are never in the core.
    """
    r = np.asarray(rates, dtype=float)
    if r.shape != (game.num_agents,):
        raise ValidationError(f"allocation needs {game.num_agents} rates, got shape {r.shape}")
    if not np.all(np.isfinite(r)) or abs(r.sum() - game.grand_value()) > tol:
        return False, game.full_mask
    sums = coalition_sums(r)
    for mask in range(1, game.full_mask):
        if sums[mask] < game.values[mask] - tol:
            return False, mask
    return True, None


def coalition_sums(rates: Sequence[float]) -> np.ndarray:
    """sum_{i in S} rates_i for every bitmask S, by subset dynamic programming."""
    r = np.asarray(rates, dtype=float)
    L = len(r)
    sums = np.zeros(1 << L)
    for l in range(L):
        bit = 1 << l
        half = sums[:bit]
        sums[bit:2 * bit] = half + r[l]
    return sums


def excess(game: CoalitionGame, rates: Sequence[float], coalition: int) -> float:
    """e(y, S) = v(S) - sum_{i in S} y_i: coalition S's dissatisfaction at y."""
    r = np.asarray(rates, dtype=float)
    paid = sum(r[l] for l in range(game.num_agents) if coalition >> l & 1)
    return game.value(coalition) - paid


def sorted_excess_vector(game: CoalitionGame, rates: Sequence[float]) -> np.ndarray:
    """Excesses over all 2^L coalitions, sorted nonincreasing."""
    exc = game.values - coalition_sums(rates)
    return np.sort(exc)[::-1]


def w_is_submodular(src: JointSource, s_mask: int, tol: float = DEFAULT_TOL):
    """(ok, witness) for T -> I(X_T ; X0 | X_{S^c}) being submodular on subsets of S."""
    _require_markov(src)
    full = src.full_mask
    if s_mask == full:
        raise ValidationError("w is defined for proper coalitions S only")
    sc = full & ~s_mask
    members = [l for l in range(src.num_agents) if s_mask >> l & 1]
    n = len(members)
    w = np.zeros(1 << n)
    for sub in range(1, 1 << n):
        t_mask = 0
        for j in range(n):
            if sub >> j & 1:
                t_mask |= 1 << members[j]
        w[sub] = conditional_mi(src, t_mask, sc)
    for u in range(1 << n):
        for v2 in range(u + 1, 1 << n):
            if w[u] + w[v2] < w[u | v2] + w[u & v2] - tol:
                return False, (u, v2)
    return True, None

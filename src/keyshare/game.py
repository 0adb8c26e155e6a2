"""Coalitional game induced by a many-to-one source.

The value of coalition S is the conditional mutual information between the
coalition's observations and the base station's, given everything the
outsiders hold: v(S) = I(X_S ; X0 | X_{S^c}).  Every such quantity is one
vectorised source.mutual_information read of the source's cached
entropy table, over all coalitions at once.  Everything downstream (core
tests, core bounds, excesses, solution concepts) works on the resulting
value table indexed by bitmask.  Convexity (supermodularity) is checked on
adjacent pairs only, in O(L^2 2^L); only the superadditivity scan still
enumerates pairs of coalitions (3^L), and it is guarded at L <= 12.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .source import (MAX_TABLE_AGENTS, DegradedSource, JointSource, _check_tol,
                     _json_reals, _member_masks, _positive_count, _read_json_object,
                     coalition_sums, mutual_information, verify_markov)

DEFAULT_TOL = 1e-9
MAX_EXHAUSTIVE_AGENTS = 12


def _agent_count(L) -> int:
    """A game's L as an int: a positive integer, never a boolean, at most
    MAX_TABLE_AGENTS."""
    L = _positive_count(L, "game field 'L'")
    if L > MAX_TABLE_AGENTS:
        raise CapacityError(f"game value table limited to L <= {MAX_TABLE_AGENTS}, got L={L}")
    return L


@dataclass
class CoalitionGame:
    """Value table over all 2^L coalitions; index = coalition bitmask."""

    num_agents: int
    values: np.ndarray

    def __post_init__(self):
        self.num_agents = _agent_count(self.num_agents)
        self.values = np.array(self.values, dtype=float)  # a copy: zeroed and clipped below
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
        L = _agent_count(raw["L"])
        values = _json_reals(raw["v"])
        if values is None or len(values) != 1 << L:
            raise ValidationError(f"game field 'v' must list 2^L numbers for L={L}")
        return cls(num_agents=L, values=np.array(values))

    @classmethod
    def load(cls, path: str) -> "CoalitionGame":
        return cls.from_json(_read_json_object(path, "game"))


def _require_markov(src: JointSource | DegradedSource) -> None:
    if not (isinstance(src, DegradedSource) or verify_markov(src)):
        raise ValidationError(
            "source fails the degradedness check; the closed-form value "
            "function only holds for conditionally independent observations"
        )


def value_function(src: JointSource | DegradedSource) -> CoalitionGame:
    """v(S) = I(X_S ; X0 | X_{S^c}) for every coalition bitmask S."""
    _require_markov(src)
    full = src.full_mask
    s = np.arange(1, full + 1)
    values = np.zeros(full + 1)
    values[1:] = mutual_information(src, s << 1, 1, (full & ~s) << 1)
    return CoalitionGame(num_agents=src.num_agents, values=values)


def clearance_level_games(src: JointSource | DegradedSource,
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
    lower_mask = 0
    for level in reversed(levels):
        masks = _member_masks(sorted(a - 1 for a in level))
        s, level_mask = masks[1:], masks[-1]
        values = np.zeros(len(s) + 1)
        values[1:] = mutual_information(src, s << 1, 1, (level_mask & ~s | lower_mask) << 1)
        games.append(CoalitionGame(num_agents=len(level), values=values))
        lower_mask |= level_mask
    return games[::-1]


def is_superadditive(game: CoalitionGame, tol: float = DEFAULT_TOL):
    """(ok, witness): v(S) + v(T) <= v(S|T) + tol for all disjoint S, T."""
    _check_tol(tol)
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
    """(ok, witness): v(S|i) + v(S|j) <= v(S|i|j) + v(S) + tol for every
    coalition S and agents i < j outside it.

    The adjacent pairs imply v(U) + v(V) <= v(U|V) + v(U&V) for all U, V
    (Shapley, "Cores of convex games", IJGT 1971): the gap of any pair is
    the sum of the adjacent gaps over the |U-V| x |V-U| grid between them.
    Every adjacent comparison is one of the full pair scan's, so a game
    the scan accepts passes; O(L^2 2^L) work replaces 4^L.  The witness is
    the first violating pair (S|i, S|j) in _first_adjacent_violation's
    order.
    """
    _check_tol(tol)
    return _first_adjacent_violation(game.values, tol)


def _first_adjacent_violation(v: np.ndarray, tol: float):
    """(ok, witness): over agent pairs i < j in lexicographic order, then S
    ascending, the first (S|i, S|j) with
    v[S|i] + v[S|j] > v[S|i|j] + v[S] + tol.

    Each comparison is the one the full pair scan makes for u = S|i and
    w = S|j, term for term.  The table is viewed as (2,)*L, bit l of the
    mask on axis L-1-l, and each agent pair compares four strided slices.
    """
    L = len(v).bit_length() - 1
    table = v.reshape((2,) * L)
    masks = np.arange(len(v)).reshape((2,) * L)
    for i, j in itertools.combinations(range(L), 2):
        def at(bit_i: int, bit_j: int) -> tuple:
            view = [slice(None)] * L
            view[L - 1 - i], view[L - 1 - j] = bit_i, bit_j
            return tuple(view)

        bad = np.flatnonzero(table[at(1, 0)] + table[at(0, 1)]
                             > table[at(1, 1)] + table[at(0, 0)] + tol)
        if bad.size:
            s = int(masks[at(0, 0)].ravel()[bad[0]])
            return False, (s | 1 << i, s | 1 << j)
    return True, None


def core_bounds(game: CoalitionGame):
    """(lower, upper): range of every coalition's payoff inside the core,
    indexed by coalition bitmask, entry 0 zero.

    lower[S] = v(S) and upper[S] = v(N) - v(S^c), for any game: a core
    allocation gives S at least v(S) and S^c at least v(S^c).  For a
    degraded source these are I(X_S ; X0) - I(X_S ; X_{S^c}) and
    I(X_S ; X0).
    """
    v = game.values
    return v.copy(), v[-1] - v[::-1]


def core_contains(game: CoalitionGame, rates: Sequence[float],
                  tol: float = DEFAULT_TOL):
    """(ok, violated_coalition): efficiency plus group rationality.

    The allocation must sum to v(grand) within tol and give every proper
    coalition at least its standalone value minus tol.  The grand
    coalition bitmask doubles as the efficiency witness, also for
    non-finite rates, which are never in the core.
    """
    _check_tol(tol)
    r = np.asarray(rates, dtype=float)
    if r.shape != (game.num_agents,):
        raise ValidationError(f"allocation needs {game.num_agents} rates, got shape {r.shape}")
    if not np.all(np.isfinite(r)) or abs(r.sum() - game.grand_value()) > tol:
        return False, game.full_mask
    short = np.flatnonzero(coalition_sums(r)[1:-1] < game.values[1:-1] - tol)
    return (False, int(short[0]) + 1) if short.size else (True, None)


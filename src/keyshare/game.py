"""Coalitional game induced by a many-to-one source.

The value of coalition S is the conditional mutual information between the
coalition's observations and the base station's, given everything the
outsiders hold: v(S) = I(X_S ; X0 | X_{S^c}).  Every such quantity is one
vectorised source.mutual_information read of the source's cached
entropy table, over all coalitions at once.  Everything downstream (core
tests, core bounds, excesses, solution concepts) works on the resulting
value table indexed by bitmask.  Convexity (supermodularity) is checked on
adjacent pairs only, O(L^2 2^L) comparisons made in a few whole-table
passes, none holding more than max(SCAN_ENTRIES, 2^L) entries; only the
superadditivity scan still enumerates pairs of coalitions (3^L), and it is
guarded at L <= 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ValidationError, integer, real, reals, sequence
from .source import (MAX_TABLE_AGENTS, DegradedSourceSpec, JointSource, _level_partition,
                     _member_masks, _read_json_object, coalition_sums, mutual_information,
                     verify_markov)

DEFAULT_TOL = 1e-9
MAX_EXHAUSTIVE_AGENTS = 12
# entries in one batch of a whole-table scan (the adjacent-pair scan here;
# the surplus, span and Shapley scans of allocate): at L = 10 each scan is
# one batch, and from L = 14 up no batch outgrows a value table
SCAN_ENTRIES = 1 << 14


def _table_agents(num_agents) -> int:
    """A game's L as an int, after checking that it is a positive integer of
    at most MAX_TABLE_AGENTS."""
    L = integer(num_agents, "game field 'L'", positive=True)
    if L > MAX_TABLE_AGENTS:
        raise CapacityError(f"game value table limited to L <= {MAX_TABLE_AGENTS}, got L={L}")
    return L


def _check_table_shape(shape: tuple, L: int) -> None:
    """Raise ValidationError unless a value table of this shape lists 2^L values."""
    if shape != (1 << L,):
        raise ValidationError(f"game field 'v' must list 2^L = {1 << L} numbers for L={L}, "
                              f"got shape {shape}")


@dataclass
class CoalitionGame:
    """Value table over all 2^L coalitions; index = coalition bitmask."""

    num_agents: int
    values: np.ndarray

    def __post_init__(self):
        L = self.num_agents = _table_agents(self.num_agents)
        # the length is checked first, so an oversized list is refused unread
        values = sequence(self.values, "game field 'v'")
        _check_table_shape(getattr(values, "shape", (len(values),)), L)
        # a copy: zeroed and clipped below
        self.values = np.array(reals(values, "game field 'v'"))
        _check_table_shape(self.values.shape, L)
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
        return {"L": self.num_agents, "v": self.values.tolist()}

    @classmethod
    def from_json(cls, raw: dict) -> "CoalitionGame":
        """The game of a parsed game file {"L": int, "v": [2^L numbers]};
        the constructor checks both fields, and a missing one reads as
        None and is refused by name."""
        return cls(num_agents=raw.get("L"), values=raw.get("v"))

    @classmethod
    def load(cls, path: str) -> "CoalitionGame":
        return cls.from_json(_read_json_object(path, "game", ("L", "v")))


def _require_markov(src: JointSource | DegradedSourceSpec) -> None:
    if not (isinstance(src, DegradedSourceSpec) or verify_markov(src)):
        raise ValidationError(
            "source fails the degradedness check; the closed-form value "
            "function only holds for conditionally independent observations"
        )


def value_function(src: JointSource | DegradedSourceSpec) -> CoalitionGame:
    """v(S) = I(X_S ; X0 | X_{S^c}) for every coalition bitmask S."""
    _require_markov(src)
    full = src.full_mask
    s = np.arange(1, full + 1)
    values = np.zeros(full + 1)
    values[1:] = mutual_information(src, s << 1, 1, (full & ~s) << 1)
    return CoalitionGame(num_agents=src.num_agents, values=values)


def clearance_level_games(src: JointSource | DegradedSourceSpec,
                          levels: Sequence[Sequence[int]]) -> list[CoalitionGame]:
    """One conditional game per clearance level.

    Level q (highest clearance first) plays on its own agents, with every
    strictly lower level's observations handed to the eavesdropper: the
    value of S inside level q is I(X_S ; X0 | X_{level q minus S}, X_{lower}).
    Agents of higher-clearance levels are marginalized away entirely.
    """
    levels = _level_partition(levels, src.num_agents)
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
    real(tol, "tol")
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
    the scan accepts passes; O(L^2 2^L) comparisons replace 4^L, made in
    one gather pass at L <= 10 and one strided pass per agent pair above.
    The witness is the first violating pair (S|i, S|j) in
    _first_adjacent_violation's order.
    """
    real(tol, "tol")
    return _first_adjacent_violation(game.values, tol)


def _first_adjacent_violation(v: np.ndarray, tol: float):
    """(ok, witness): over agent pairs i < j in lexicographic order, then S
    ascending, the first (S|i, S|j) with
    v[S|i] + v[S|j] > v[S|i|j] + v[S] + tol.

    Each comparison is the one the full pair scan makes for u = S|i and
    w = S|j, term for term.  When every pair's 2^(L-2) coalitions fit in
    SCAN_ENTRIES (L <= 10), the four terms of all pairs are gathered at
    once through a (pairs, 2^(L-2)) table of the masks S; otherwise each
    pair reads them as strided views of the table reshaped around bits i
    and j, so no temporary outgrows a quarter of the table.
    """
    L = len(v).bit_length() - 1
    first, second = np.triu_indices(L, 1)
    count = 1 << max(L - 2, 0)  # the coalitions S outside a pair
    step = max(len(first), 1) if len(first) * count <= SCAN_ENTRIES else 1
    for start in range(0, len(first), step):
        i, j = first[start:start + step, None], second[start:start + step, None]
        if step > 1:
            s = _without(_without(np.arange(count), i), j)
            bad = v[s | 1 << i] + v[s | 1 << j] > v[s | 1 << i | 1 << j] + v[s] + tol
        else:
            # bit j on axis 1, bit i on axis 3, S ascending in C order
            t = v.reshape(-1, 2, 1 << (j[0, 0] - i[0, 0] - 1), 2, 1 << i[0, 0])
            bad = (t[:, 1, :, 0] + t[:, 0, :, 1] > t[:, 1, :, 1] + t[:, 0, :, 0] + tol
                   ).reshape(1, count)
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            r = rows[0]
            s = int(_without(_without(np.argmax(bad[r]), i[r, 0]), j[r, 0]))
            return False, (s | 1 << int(i[r, 0]), s | 1 << int(j[r, 0]))
    return True, None


def _without(k, agent):
    """The k-th coalition, ascending, of those without the agent: k with a
    zero bit put in at the agent's bit."""
    return k + (k >> agent << agent)


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
    real(tol, "tol")
    r = reals(rates, "rates")
    if r.shape != (game.num_agents,):
        raise ValidationError(f"allocation needs {game.num_agents} rates, got shape {r.shape}")
    if not np.all(np.isfinite(r)) or abs(r.sum() - game.grand_value()) > tol:
        return False, game.full_mask
    short = np.flatnonzero(coalition_sums(r)[1:-1] < game.values[1:-1] - tol)
    return (False, int(short[0]) + 1) if short.size else (True, None)


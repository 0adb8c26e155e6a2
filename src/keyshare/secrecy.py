"""Exact secrecy accounting on toy instances.

At desk scale the secrecy of the protocol is only reported through the
analytic leftover-hash bound; here, for instances small enough to
enumerate every source realization and every hash matrix, the variational
distance between (keys, hash choices, transcript) and the ideal
uniform-and-independent product is computed exactly and compared against
the bound evaluated with exact conditional min-entropies.  The transcript
of the toy protocol is the single-block first-stage message of each agent
(index sets from the exact entropy profile).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError, integer, power_of_two, real, sequence
from .polar import _pattern_bits, build_index_sets, entropy_profile_exact, polar_transform
from .protocol import _diagonal_len, leakage_bound, toeplitz_from_index

MAX_TOY_N = 8
MAX_TOY_AGENTS = 2


@dataclass(frozen=True)
class SecrecyCheckResult:
    distance: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.distance <= self.bound + 1e-9


def _bits_to_int(bits: np.ndarray) -> np.ndarray:
    if bits.shape[1] == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    weights = (1 << np.arange(bits.shape[1] - 1, -1, -1)).astype(np.int64)
    return bits.astype(np.int64) @ weights


def _key_table(n: int, r: int) -> np.ndarray:
    """Key label of every block (columns, in _pattern_bits order) under every
    Toeplitz matrix (rows, by diagonal-bit index); one row when r = 0."""
    pat = _pattern_bits(n)
    n_seeds = 1 << _diagonal_len(n, r)
    return np.stack([_bits_to_int(toeplitz_from_index(s, n, r).apply(pat))
                     for s in range(n_seeds)])


def empirical_secrecy_check(q: float, p: tuple[float, ...], n: int,
                            r: tuple[int, ...]) -> SecrecyCheckResult:
    """Exact variational distance vs the concatenated leftover-hash bound.

    q is the base-station bit bias, p the per-agent crossovers, n the
    (single) block length, r the per-agent key lengths.  Enumerates all
    source realizations and all Toeplitz matrices, so n <= 8 and at most
    two agents.
    """
    agents = len(sequence(p, "p"))
    if agents < 1 or agents > MAX_TOY_AGENTS:
        raise CapacityError(f"toy secrecy check supports 1..{MAX_TOY_AGENTS} agents")
    q = real(q, "q", high=1.0, open=True)
    p = [real(pl, f"p[{i}]", high=1.0, open=True) for i, pl in enumerate(p)]
    n = power_of_two(n, "toy block length N", MAX_TOY_N)
    if len(sequence(r, "key lengths r")) != agents:
        raise ValidationError("one key length per agent required")
    r = [integer(rl, "key length r") for rl in r]  # _key_table checks r <= n

    h_masks = []
    for pl in p:
        prof = entropy_profile_exact(pl, n)
        h_masks.append(build_index_sets(prof).h_mask)

    # enumerate the joint source: x0 block times one flip block per agent
    pat = _pattern_bits(n)
    w = pat.sum(axis=1)
    p_x0 = (q ** w) * ((1 - q) ** (n - w))
    flip_probs = [(pl ** w) * ((1 - pl) ** (n - w)) for pl in p]

    shape = (1 << n,) * (agents + 1)
    prob = p_x0.reshape((-1,) + (1,) * agents)
    for a in range(agents):
        prob = prob * flip_probs[a].reshape((1,) * (a + 1) + (-1,) + (1,) * (agents - a - 1))
    prob = np.broadcast_to(prob, shape).reshape(-1)

    # agent blocks, transcripts and key inputs as flat integer labels
    grids = np.meshgrid(*([np.arange(1 << n)] * (agents + 1)), indexing="ij")
    x0_idx = grids[0].reshape(-1)
    u_all = polar_transform(pat)  # u pattern of every possible block
    x_idx, a_idx_parts, a_bits = [], [], []
    for a in range(agents):
        xi = (x0_idx ^ grids[a + 1].reshape(-1)).astype(np.int64)  # x = x0 xor flips
        x_idx.append(xi)
        msg = u_all[:, h_masks[a]]
        a_bits.append(int(msg.shape[1]))
        a_idx_parts.append(_bits_to_int(msg)[xi])
    a_idx = np.zeros(len(prob), dtype=np.int64)
    for a in range(agents):
        a_idx = (a_idx << a_bits[a]) | a_idx_parts[a]
    a_space = 1 << sum(a_bits)

    # keys for every (matrix choice, block) pair, per agent
    key_tables = [_key_table(n, rl) for rl in r]
    seed_spaces = [len(table) for table in key_tables]

    r_total = sum(r)
    k_space = 1 << r_total
    p_a = np.bincount(a_idx, weights=prob, minlength=a_space)
    ideal = np.repeat(p_a / k_space, k_space)

    distance = 0.0
    n_combos = 1
    for s in seed_spaces:
        n_combos *= s
    for seeds in itertools.product(*(range(s) for s in seed_spaces)):
        k_idx = np.zeros(len(prob), dtype=np.int64)
        for a in range(agents):
            k_idx = (k_idx << r[a]) | key_tables[a][seeds[a]][x_idx[a]]
        cell = a_idx * k_space + k_idx
        joint = np.bincount(cell, weights=prob, minlength=a_space * k_space)
        distance += float(np.abs(joint - ideal).sum())
    distance /= n_combos

    # exact average conditional min-entropies of every coalition given A
    floors = np.zeros(1 << agents)
    for mask in range(1, 1 << agents):
        sel = [a for a in range(agents) if mask >> a & 1]
        comp_idx = np.zeros(len(prob), dtype=np.int64)
        for a in sel:
            comp_idx = (comp_idx << n) | x_idx[a]
        cell = a_idx * (1 << (n * len(sel))) + comp_idx
        joint = np.bincount(cell, weights=prob,
                            minlength=a_space * (1 << (n * len(sel))))
        guess = joint.reshape(a_space, -1).max(axis=1).sum()
        floors[mask] = -math.log2(guess) if guess > 0 else math.inf
    bound = leakage_bound(r, floors)

    return SecrecyCheckResult(distance=distance, bound=bound)


def toeplitz_collision_rate(n: int, r: int) -> float:
    """Worst-case collision probability of the Toeplitz family by brute force.

    Enumerates every matrix and every ordered pair of distinct inputs;
    returns max over pairs of P[T x = T x'].  Two-universality demands the
    result be at most 2^-r.
    """
    n, r = integer(n, "n", positive=True), integer(r, "r")
    if n > 6:
        raise CapacityError("collision brute force enumerates 2^(n+r-1) matrices; n <= 6")
    keys = _key_table(n, r)
    n_seeds = len(keys)
    worst = 0.0
    for i in range(1 << n):
        same = keys == keys[:, i][:, None]
        same[:, i] = False
        collisions = same.sum(axis=0) / n_seeds
        worst = max(worst, float(collisions.max()))
    return worst

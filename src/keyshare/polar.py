"""Polar source-coding primitives.

The transform is the n-fold Kronecker power of [[1,0],[1,1]] applied as
u = x G over GF(2) (self-inverse).  Index sets threshold a per-index
conditional entropy profile at delta_N = 2^(-N^beta).

For the degraded source family, conditioning an agent's block on the base
station's block reduces to a binary symmetric relation with a single
crossover parameter, so every profile here is the profile of an i.i.d.
Bernoulli(theta) block: theta is the crossover when side information is
present and the marginal bit bias when it is not.  Equivalently, index i
carries the i-th synthetic channel of a BSC(theta) with uniform input.

The production profile, construct_profile, evolves that channel through
the polar transforms with degrading merges (Tal & Vardy, "How to Construct
Polar Codes", IEEE T-IT 2013; binned form of Pedarsani, Hassani, Tal &
Telatar, ISIT 2011): every per-index entropy and decision error it reports
is an upper bound, and it is a pure function of (theta, N).  Exact
enumeration (N <= 16) and a genie-aided Monte Carlo estimate that runs the
successive-cancellation recursion on true prefixes are kept as test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import CapacityError, ValidationError

LN2 = float(np.log(2.0))
LLR_CLAMP = 40.0
MAX_EXACT_N = 16
MC_CHUNK = 512  # frozen: results must not depend on scheduling
MERGE_BINS = 64  # mu: BSC components kept per synthetic channel after each merge


def _check_block_length(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValidationError(f"block length must be a power of two, got {n}")


def polar_transform(x: np.ndarray) -> np.ndarray:
    """u = x G_n over GF(2) on the last axis, in-place butterfly on a copy.

    Applying the transform twice returns the input (G_n is an involution).
    """
    u = np.ascontiguousarray(x, dtype=np.uint8).copy()
    n = u.shape[-1]
    _check_block_length(n)
    step = n
    while step > 1:
        view = u.reshape(u.shape[:-1] + (n // step, step))
        view[..., :, : step // 2] ^= view[..., :, step // 2:]
        step //= 2
    return u


def delta_threshold(n: int, beta: float) -> float:
    if not 0.0 < beta < 0.5:
        raise ValidationError(f"beta must lie in (0, 1/2), got {beta}")
    return float(2.0 ** (-(n ** beta)))


@dataclass
class EntropyProfile:
    """Per-index conditional entropies of a transformed Bernoulli block."""

    n: int
    h: np.ndarray
    method: str  # "degrading_merge" | "exact" | "monte_carlo"
    theta: float
    side_info: bool
    genie_error: Optional[np.ndarray] = None  # per-index single-bit decision error


@dataclass
class PolarIndexSets:
    """High / very-high entropy index masks at threshold delta_N."""

    h_mask: np.ndarray
    v_mask: np.ndarray
    delta: float
    beta: float


def build_index_sets(profile: EntropyProfile, beta: float) -> PolarIndexSets:
    """Threshold the profile: H = {h_i >= delta}, V = {h_i >= 1 - delta}."""
    delta = delta_threshold(profile.n, beta)
    h_mask = profile.h >= delta
    v_mask = profile.h >= 1.0 - delta
    return PolarIndexSets(h_mask=h_mask, v_mask=v_mask, delta=delta, beta=beta)


def _bsc_entropy(eps: np.ndarray) -> np.ndarray:
    """h2 of crossovers in [0, 1/2], with 0 log 0 = 0."""
    return -(eps * np.log2(np.maximum(eps, np.finfo(float).tiny))
             + (1.0 - eps) * np.log2(1.0 - eps))


def _degrading_merge(w: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge BSC components whose entropies share one of MERGE_BINS equal-width
    bins into their weight-averaged crossover.

    Merging output symbols is a degradation, so every later entropy and
    decision error can only grow; the averaged crossover keeps the
    channel's own decision error sum(w * eps) unchanged.
    """
    bins = np.minimum((_bsc_entropy(eps) * MERGE_BINS).astype(np.int64), MERGE_BINS - 1)
    wm = np.bincount(bins, weights=w, minlength=MERGE_BINS)
    em = np.bincount(bins, weights=w * eps, minlength=MERGE_BINS)
    keep = wm > 0
    return wm[keep], em[keep] / wm[keep]


def _polar_children(w: np.ndarray, eps: np.ndarray):
    """Check-node (minus) and variable-node (plus) transforms of a BSC mixture
    combined with an independent copy of itself, each merged back down."""
    ww = np.outer(w, w).ravel()
    e1, e2 = eps[:, None], eps[None, :]
    a, b = (e1 * (1.0 - e2)).ravel(), (e2 * (1.0 - e1)).ravel()
    flip = a + b  # minus: crossover of the XOR; plus: P(the two outputs disagree)
    agree_eps = (e1 * e2).ravel() / (1.0 - flip)
    disagree_eps = np.divide(np.minimum(a, b), flip, out=np.zeros_like(flip), where=flip > 0)
    minus = _degrading_merge(ww, flip)
    plus = _degrading_merge(np.concatenate([ww * (1.0 - flip), ww * flip]),
                            np.concatenate([agree_eps, disagree_eps]))
    return minus, plus


@lru_cache(maxsize=128)
def construct_profile(theta: float, n: int) -> EntropyProfile:
    """Deterministic profile of the synthetic channels of a BSC(theta).

    Tracks each synthetic channel as a mixture of BSCs, applying the 2N-2
    check/variable-node transforms of the polar tree depth first and
    merging down to at most MERGE_BINS components after each one.  Every merge degrades, so both h and
    genie_error are per-index upper bounds on the exact values.  Memoised
    on (theta, N): repeated calls return the same read-only profile.
    """
    _check_block_length(n)
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0,1], got {theta}")
    h, err = np.zeros(n), np.zeros(n)
    index = 0

    def walk(w: np.ndarray, eps: np.ndarray, size: int) -> None:
        nonlocal index
        if size == 1:
            h[index], err[index] = w @ _bsc_entropy(eps), w @ eps
            index += 1
            return
        for child in _polar_children(w, eps):  # index bit 0 -> minus, 1 -> plus
            walk(*child, size // 2)

    walk(np.ones(1), np.array([min(theta, 1.0 - theta)]), n)
    h = np.clip(h, 0.0, 1.0)
    h.flags.writeable = False
    err.flags.writeable = False
    return EntropyProfile(n=n, h=h, method="degrading_merge", theta=theta,
                          side_info=True, genie_error=err)


def entropy_profile_exact(theta: float, n: int, side_info: bool = True) -> EntropyProfile:
    """Exact profile by enumerating all 2^N block realizations.

    Also records, per index, the exact probability that a maximum-posterior
    decision on that bit is wrong given a correct prefix.
    """
    _check_block_length(n)
    if n > MAX_EXACT_N:
        raise CapacityError(f"exact profile enumerates 2^N blocks; N <= {MAX_EXACT_N}")
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0,1], got {theta}")
    idx = np.arange(1 << n, dtype=np.uint32)
    # row r encodes u with u_0 as most significant bit
    u_bits = ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
    x_bits = polar_transform(u_bits)  # involution: x = u G
    weight = x_bits.sum(axis=1)
    prob = (theta ** weight) * ((1.0 - theta) ** (n - weight))
    h = np.zeros(n)
    err = np.zeros(n)
    for i in range(n):
        joint = prob.reshape(1 << i, 2, 1 << (n - 1 - i)).sum(axis=2)
        tot = joint.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(joint > 0, joint * np.log2(np.where(joint > 0, joint, 1.0)), 0.0)
            tlogt = np.where(tot > 0, tot * np.log2(np.where(tot > 0, tot, 1.0)), 0.0)
        h[i] = float(tlogt.sum() - plogp.sum())
        err[i] = float(np.minimum(joint[:, 0], joint[:, 1]).sum())
    h = np.clip(h, 0.0, 1.0)
    return EntropyProfile(n=n, h=h, method="exact", theta=theta, side_info=side_info,
                          genie_error=err)


def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact LLR check-node combination, numerically stable."""
    return (
        np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        + np.log1p(np.exp(-np.abs(a + b)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )


def _posterior_stats(llr_col: np.ndarray):
    """(entropy, p_min) of the bit posterior for a final-leaf LLR column.

    p_min is the posterior of the less likely symbol, i.e. the probability
    that a maximum-posterior decision on this bit is wrong.
    """
    a = np.abs(llr_col)
    ez = np.exp(-a)
    p_min = ez / (1.0 + ez)  # posterior of the less likely symbol
    ent = (np.log1p(ez) + a * p_min) / LN2
    return ent, p_min


def _llr_constant(theta: float) -> float:
    if theta <= 0.0:
        return LLR_CLAMP
    if theta >= 1.0:
        return -LLR_CLAMP
    return float(np.clip(np.log((1.0 - theta) / theta), -LLR_CLAMP, LLR_CLAMP))


def _sc_sweep(llr: np.ndarray, leaf: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Generic successive-cancellation recursion over a batch.

    llr has shape (batch, N).  leaf(i, llr_column) must return the settled
    bits for transform-domain index i; the sweep returns the source-domain
    bits implied by those decisions.
    """
    counter = [0]

    def rec(cur: np.ndarray) -> np.ndarray:
        m = cur.shape[1]
        if m == 1:
            i = counter[0]
            counter[0] += 1
            bits = leaf(i, cur[:, 0])
            return bits[:, None]
        half = m // 2
        left = rec(_boxplus(cur[:, :half], cur[:, half:]))
        follow = cur[:, half:] + (1 - 2 * left.astype(np.int8)) * cur[:, :half]
        right = rec(follow)
        return np.concatenate([left ^ right, right], axis=1)

    return rec(llr)


def entropy_profile_mc(theta: float, n: int, num_samples: int, seed: int,
                       side_info: bool = True) -> EntropyProfile:
    """Genie-aided Monte Carlo profile.

    Each sample draws a Bernoulli(theta) block, runs the SC recursion with
    the true transform-domain prefix, and averages the per-bit posterior
    entropies and maximum-posterior decision errors.  Deterministic given (seed, num_samples): sampling uses
    counter-based streams keyed by (seed, chunk) at a frozen chunk size,
    so the result does not depend on how work is scheduled.
    """
    _check_block_length(n)
    if num_samples < 1000:
        raise ValidationError(f"num_samples must be at least 1000, got {num_samples}")
    c = _llr_constant(theta)
    h_sum = np.zeros(n)
    err_sum = np.zeros(n)
    done = 0
    chunk_index = 0
    while done < num_samples:
        size = min(MC_CHUNK, num_samples - done)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))
        x = (rng.random((size, n)) < theta).astype(np.uint8)
        u_true = polar_transform(x)
        row = {"h": np.zeros(n), "e": np.zeros(n)}

        def leaf(i: int, col: np.ndarray) -> np.ndarray:
            ent, p_min = _posterior_stats(col)
            row["h"][i] = ent.sum()
            row["e"][i] = p_min.sum()
            return u_true[:, i].copy()

        _sc_sweep(np.full((size, n), c), leaf)
        h_sum += row["h"]
        err_sum += row["e"]
        done += size
        chunk_index += 1
    h = np.clip(h_sum / num_samples, 0.0, 1.0)
    return EntropyProfile(n=n, h=h, method="monte_carlo", theta=theta,
                          side_info=side_info, genie_error=err_sum / num_samples)


def side_info_llrs(y: np.ndarray, crossover: float) -> np.ndarray:
    """Per-position LLRs for observing x through a BSC(crossover) as y."""
    c = _llr_constant(crossover)
    return (1 - 2 * np.asarray(y, dtype=np.int8)) * c


def sc_decode(known_mask: np.ndarray, known_values: np.ndarray,
              llr: np.ndarray) -> np.ndarray:
    """Successive-cancellation decode of source blocks from LLR evidence.

    known_mask marks transform-domain indices whose bits are given
    (known_values, same layout as the blocks); the rest are settled by the
    sign of the per-bit posterior, ties to 0.  Accepts a single block
    (1-D) or a batch (2-D, one row per block); returns the decoded source
    blocks in the same shape.
    """
    single = llr.ndim == 1
    llr2 = llr[None, :] if single else llr
    kv = np.asarray(known_values, dtype=np.uint8)
    kv2 = kv[None, :] if kv.ndim == 1 else kv
    mask = np.asarray(known_mask, dtype=bool)
    if mask.shape != (llr2.shape[1],):
        raise ValidationError("known_mask length must match the block length")
    if kv2.shape != llr2.shape:
        raise ValidationError("known_values must match the block batch shape")
    _check_block_length(llr2.shape[1])

    def leaf(i: int, col: np.ndarray) -> np.ndarray:
        if mask[i]:
            return kv2[:, i].copy()
        return (col < 0).astype(np.uint8)

    out = _sc_sweep(llr2, leaf)
    return out[0] if single else out

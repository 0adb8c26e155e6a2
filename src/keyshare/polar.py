"""Polar source-coding primitives.

The transform is the n-fold Kronecker power of [[1,0],[1,1]] applied as
u = x G over GF(2) (self-inverse).  Index sets threshold a per-index
conditional entropy profile at delta_N = 2^(-N^INDEX_BETA).

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

Decoding and the Monte Carlo oracle share one successive-cancellation
sweep, started from an observation of the block through a BSC(theta).  A
subtree whose transform-domain indices are all known is transformed, not
decoded: its source bits are the polar transform of its known bits, so no
LLR below it is computed, and none at all when every index is known (the
simplified SC decoder of Alamdar-Yazdi & Kschischang, IEEE Comm. Letters
2011, without its rate-1 shortcut: with equal-magnitude LLRs ties occur,
and ties-to-0 SC need not equal a hard decision).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError, binary, integer, power_of_two, real, reals, sequence

LN2 = float(np.log(2.0))
LLR_CLAMP = 40.0
MAX_EXACT_N = 16
MC_CHUNK = 512  # frozen: results must not depend on scheduling
MERGE_BINS = 64  # mu: BSC components kept per synthetic channel after each merge
INDEX_BETA = 0.3  # exponent of the index-set threshold delta_N = 2^(-N^INDEX_BETA)
# construct_profile takes 0.8-1.8 s per distinct crossover in [0.05, 0.4] at
# this N (2-vCPU Xeon)
MAX_BLOCK_N = 2 ** 14
_TINY = float(np.finfo(float).tiny)
# Unordered component pairs (i, j), i <= j, ordered by j then i, so the pairs
# of a k-component mixture are the first k(k+1)/2 entries (a merge keeps
# k <= MERGE_BINS); a pair off the diagonal stands for both orders.
_PAIR_J, _PAIR_I = np.tril_indices(MERGE_BINS)
_PAIR_COUNT = np.where(_PAIR_I == _PAIR_J, 1.0, 2.0)


def polar_transform(x: np.ndarray) -> np.ndarray:
    """u = x G_n over GF(2) on the last axis, in-place butterflies on a copy.

    Each butterfly stage XORs byte i + h into byte i within every aligned
    run of 2h bytes; the stages commute.  Stages h = 1, 2, 4 stay inside
    one little-endian word of 2h bytes, where they are w ^= w >> 8h; the
    stages h >= 8 XOR whole 8-byte words.  Byte for byte this is the
    textbook butterfly, for any uint8 input.  Applying the transform
    twice returns the input (G_n is an involution).
    """
    u = np.array(sequence(x, "transform input x"), dtype=np.uint8, order="C")
    n = power_of_two(u.shape[-1], "block length N")
    rows = u.reshape(-1, n)
    for width in (2, 4, 8):
        if width > n:
            break
        w = rows.view(f"<u{width}")
        w ^= w >> (4 * width)
    step = n // 8  # in 8-byte words
    while step > 1:
        view = rows.view("<u8").reshape(-1, n // 8 // step, step)
        view[:, :, : step // 2] ^= view[:, :, step // 2:]
        step //= 2
    return u


def delta_threshold(n: int) -> float:
    """delta_N = 2^(-N^INDEX_BETA)."""
    return float(2.0 ** (-(n ** INDEX_BETA)))


@dataclass
class EntropyProfile:
    """Per-index conditional entropies of a transformed Bernoulli block."""

    n: int
    h: np.ndarray
    method: str  # "degrading_merge" | "exact" | "monte_carlo"
    genie_error: np.ndarray  # per-index single-bit decision error


@dataclass
class PolarIndexSets:
    """High / very-high entropy index masks at threshold delta_N."""

    h_mask: np.ndarray
    v_mask: np.ndarray


def build_index_sets(profile: EntropyProfile) -> PolarIndexSets:
    """Threshold the profile: H = {h_i >= delta}, V = {h_i >= 1 - delta},
    with delta = delta_N = 2^(-N^INDEX_BETA).  A NaN entropy is a
    ValidationError: it would sit in neither set."""
    h = reals(profile.h, "profile entropies")
    bad = np.flatnonzero(np.isnan(h))
    if bad.size:
        raise ValidationError(f"profile entropies must not be NaN, got NaN at index {bad[0]}")
    delta = delta_threshold(profile.n)
    h_mask = h >= delta
    v_mask = h >= 1.0 - delta
    return PolarIndexSets(h_mask=h_mask, v_mask=v_mask)


def _bsc_entropy(eps: np.ndarray) -> np.ndarray:
    """h2 of crossovers in [0, 1/2], with 0 log 0 = 0."""
    out = np.maximum(eps, _TINY)
    np.log2(out, out=out)
    out *= eps
    rest = 1.0 - eps
    tail = np.log2(rest)
    out += np.multiply(tail, rest, out=tail)
    return np.negative(out, out=out)


def _degrading_merge(w: np.ndarray, eps: np.ndarray, split: int):
    """Merge two BSC mixtures, candidates [0, split) and [split, end): in
    each, components whose entropies share one of MERGE_BINS equal-width
    bins become one at their weight-averaged crossover.

    Merging output symbols is a degradation, so every later entropy and
    decision error can only grow; the averaged crossover keeps the
    channel's own decision error sum(w * eps) unchanged.  With the second
    mixture's bins offset by MERGE_BINS, each bin sums the candidates of
    a lone merge in its order: bit-identical while numpy's float64 log2
    gives an element the same bits wherever it sits in an array.
    """
    ent = _bsc_entropy(eps)
    ent *= MERGE_BINS
    bins = np.minimum(ent, MERGE_BINS - 1, out=ent).astype(np.int64)
    bins[split:] += MERGE_BINS
    wm = np.bincount(bins, weights=w, minlength=2 * MERGE_BINS)
    em = np.bincount(bins, weights=w * eps, minlength=2 * MERGE_BINS)
    keep = wm > 0
    wm, em = wm[keep], em[keep] / wm[keep]
    first = np.count_nonzero(keep[:MERGE_BINS])
    return (wm[:first], em[:first]), (wm[first:], em[first:])


def _polar_children(w: np.ndarray, eps: np.ndarray):
    """Check-node (minus) and variable-node (plus) transforms of a BSC mixture
    combined with an independent copy of itself, both merged in one pass.

    The component pairs (i, j) and (j, i) give the same candidate BSCs, so
    each unordered pair is formed once, with weight 2 w_i w_j off the
    diagonal and w_i^2 on it.
    """
    m = w.size * (w.size + 1) // 2
    i, j = _PAIR_I[:m], _PAIR_J[:m]
    e1, e2 = eps[i], eps[j]
    a, b = e1 * (1.0 - e2), e2 * (1.0 - e1)
    cand = np.empty((2, 3, m))  # weights, crossovers: minus, then plus as agree, disagree
    (ww, ww_agree, ww_disagree), (flip, agree_eps, disagree_eps) = cand
    np.multiply(_PAIR_COUNT[:m] * w[i], w[j], out=ww)
    np.add(a, b, out=flip)  # minus: crossover of the XOR; plus: P(the two outputs disagree)
    stay = 1.0 - flip
    np.multiply(ww, stay, out=ww_agree)
    np.multiply(ww, flip, out=ww_disagree)
    e1 *= e2
    np.divide(e1, stay, out=agree_eps)
    np.minimum(a, b, out=a)
    disagree_eps[:] = 0.0
    np.divide(a, flip, out=disagree_eps, where=flip > 0)
    return _degrading_merge(*cand.reshape(2, -1), m)


@lru_cache(maxsize=128, typed=True)
def construct_profile(theta: float, n: int) -> EntropyProfile:
    """Deterministic profile of the synthetic channels of a BSC(theta).

    Tracks each synthetic channel as a mixture of BSCs, applying the 2N-2
    check/variable-node transforms of the polar tree depth first over the
    unordered pairs of its components, and merging down to at most
    MERGE_BINS components after each one.  Every merge degrades, so both h
    and genie_error are per-index upper bounds on the exact values.
    Memoised on (theta, N) and their types, so a warm entry never admits
    an argument the cold call refuses: repeated calls return the same
    read-only profile.  Raises CapacityError when N > MAX_BLOCK_N.
    """
    n = power_of_two(n, "block length N", MAX_BLOCK_N)
    theta = real(theta, "theta", high=1.0)
    h, err = np.zeros(n), np.zeros(n)
    index = 0

    def walk(w: np.ndarray, eps: np.ndarray, size: int) -> None:
        nonlocal index
        if size == 1:
            h[index], err[index] = w @ _bsc_entropy(eps), w @ eps
            index += 1
            return
        children = _polar_children(w, eps)  # index bit 0 -> minus, 1 -> plus
        if size == 2:  # both leaves from one entropy pass
            (w0, e0), (w1, e1) = children
            ent = _bsc_entropy(np.concatenate([e0, e1]))
            h[index:index + 2] = w0 @ ent[:e0.size], w1 @ ent[e0.size:]
            err[index:index + 2] = w0 @ e0, w1 @ e1
            index += 2
            return
        for child in children:
            walk(*child, size // 2)

    walk(np.ones(1), np.array([min(theta, 1.0 - theta)]), n)
    h = np.clip(h, 0.0, 1.0)
    h.flags.writeable = False
    err.flags.writeable = False
    return EntropyProfile(n=n, h=h, method="degrading_merge", genie_error=err)


def _pattern_bits(n: int) -> np.ndarray:
    """Every n-bit pattern as a (2^n, n) uint8 table: row r holds r's bits,
    most significant first."""
    idx = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.uint8)


def entropy_profile_exact(theta: float, n: int) -> EntropyProfile:
    """Exact profile by enumerating all 2^N block realizations.

    Also records, per index, the exact probability that a maximum-posterior
    decision on that bit is wrong given a correct prefix.
    """
    n = power_of_two(n, "exact profile block length N", MAX_EXACT_N)
    theta = real(theta, "theta", high=1.0)
    x_bits = polar_transform(_pattern_bits(n))  # involution: x = u G
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
    return EntropyProfile(n=n, h=h, method="exact", genie_error=err)


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


def _sc_sweep(y: np.ndarray, theta: float, leaf: Callable[[int, np.ndarray], np.ndarray],
              settled: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Generic successive-cancellation recursion over a batch.

    y, shape (batch, N), holds the 0/1 observations of the source blocks
    through a BSC(theta).  leaf(i, llr_column) must return the bits
    decided at transform-domain index i; the sweep returns the
    source-domain bits implied by those decisions.

    settled is (mask, values): transform-domain indices whose bits are
    fixed in advance, with values shaped like y; an all-False mask runs
    the full sweep.  A subtree whose leaves are all settled is not
    decoded: its output is the polar transform of its settled bits, and
    neither its LLRs nor leaf calls are computed.  Every LLR that is
    still computed is the same float as in the full sweep, so the result
    is bit-identical to one whose leaf returns the settled bits at those
    indices; with every index settled, not even the root LLRs are built.
    """
    mask, values = settled
    open_before = np.concatenate([[0], np.cumsum(~mask)])  # unsettled indices below i

    def transformed(i0: int, m: int) -> Optional[np.ndarray]:
        """Source-domain bits of a fully settled subtree [i0, i0+m), else None."""
        if open_before[i0 + m] != open_before[i0]:
            return None
        return polar_transform(values[:, i0:i0 + m])

    def rec(cur: np.ndarray, i0: int) -> np.ndarray:
        m = cur.shape[1]
        if m == 1:
            return leaf(i0, cur[:, 0])[:, None]
        half = m // 2
        left = transformed(i0, half)
        if left is None:
            left = rec(_boxplus(cur[:, :half], cur[:, half:]), i0)
        right = transformed(i0 + half, half)
        if right is None:
            follow = cur[:, half:] + (1 - 2 * left.astype(np.int8)) * cur[:, :half]
            right = rec(follow, i0 + half)
        return np.concatenate([left ^ right, right], axis=1)

    whole = transformed(0, y.shape[1])
    if whole is not None:
        return whole
    return rec((1 - 2 * y.astype(np.int8)) * _llr_constant(theta), 0)


def entropy_profile_mc(theta: float, n: int, num_samples: int, seed: int) -> EntropyProfile:
    """Genie-aided Monte Carlo profile.

    Each sample draws a Bernoulli(theta) block, runs the SC recursion with
    the true transform-domain prefix, and averages the per-bit posterior
    entropies and maximum-posterior decision errors.  Deterministic given (seed, num_samples): sampling uses
    counter-based streams keyed by (seed, chunk) at a frozen chunk size,
    so the result does not depend on how work is scheduled.  Raises
    CapacityError when N > MAX_BLOCK_N.
    """
    n = power_of_two(n, "block length N", MAX_BLOCK_N)
    theta = real(theta, "theta", high=1.0)
    seed = integer(seed, "seed")
    if integer(num_samples, "num_samples") < 1000:
        raise ValidationError(f"num_samples must be at least 1000, got {num_samples}")
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

        y = np.zeros((size, n), np.uint8)
        _sc_sweep(y, theta, leaf, (np.zeros(n, dtype=bool), y))
        h_sum += row["h"]
        err_sum += row["e"]
        done += size
        chunk_index += 1
    h = np.clip(h_sum / num_samples, 0.0, 1.0)
    return EntropyProfile(n=n, h=h, method="monte_carlo", genie_error=err_sum / num_samples)


def sc_decode(known_mask: np.ndarray, known_values: np.ndarray,
              y: np.ndarray, crossover: float) -> np.ndarray:
    """Successive-cancellation decode of source blocks from side information.

    y holds 0/1 observations of the blocks through a BSC(crossover).
    known_mask marks transform-domain indices whose bits are given
    (known_values, 0 or 1, laid out like y); the rest are settled by the
    sign of the per-bit posterior, ties to 0.  Subtrees whose indices are
    all known are transformed, not decoded (see _sc_sweep).  y is one block
    (1-D) or a batch (2-D, one row per block); the output has its shape.
    """
    y2 = np.atleast_2d(binary(y, "y"))
    kv2 = np.atleast_2d(binary(known_values, "known_values"))
    mask = np.asarray(known_mask, dtype=bool)
    if mask.shape != (y2.shape[1],):
        raise ValidationError("known_mask length must match the block length")
    if kv2.shape != y2.shape:
        raise ValidationError("known_values must match the block batch shape")
    power_of_two(y2.shape[1], "block length N")
    crossover = real(crossover, "crossover", high=1.0)

    def leaf(i: int, col: np.ndarray) -> np.ndarray:
        return (col < 0).astype(np.uint8)

    out = _sc_sweep(y2, crossover, leaf, (mask, kv2))
    return out[0] if np.ndim(y) == 1 else out

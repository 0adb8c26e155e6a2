"""End-to-end key-generation protocol simulation.

One run: sample N*B source symbols, reconcile every participating agent's
blocks to the base station (per-block polar source coding against the base
observation, then a cross-block clean-up round), hash each agent's full
sequence down to its target key length with a fresh Toeplitz matrix, and
compare agent keys with the base station's reconstructions.

Reliability at finite length comes from the clean-up round.  Its message
is the transform of the whole N*B sequence restricted to the cross-block
images of the per-block "risky" index suffix: per-block decode errors can
only disturb transform positions that are outside the published
high-entropy set and at or after the first wrong decision, so XOR-ing the
received values against the base station's own transform recovers the
error pattern exactly whenever every wrong decision falls inside the
suffix.  The suffix is cut from the per-index decision-error upper bounds
of the deterministic polar profile at a configurable residual-risk budget
and widened if a calibration pre-run observes an earlier onset.  At
desk-scale block lengths polarization is immature and the suffix typically spans most of the
complement; the report states all published sizes so the trade is visible.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.stats import chisquare

from .errors import ValidationError
from .game import core_contains, value_function
from .polar import (build_index_sets, construct_profile, polar_transform,
                    sc_decode, side_info_llrs)
from .source import (DegradedSourceSpec, JointSource, build_degraded_source,
                     conditional_mi)

DEFAULT_SEED = 0xC0A117
FINAL_ROUND_BLOCK = 0xFFFE
HASH_BITS_BLOCK = 0xFFFF
_RUN_TAG = 0x52
_CAL_TAG = 0x43
_HASH_TAG = 0x48


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


@dataclass
class ProtocolConfig:
    """Parameters of one simulated deployment."""

    n: int
    b: int
    target: tuple[float, ...]
    epsilon: float
    beta: float = 0.3
    seed: int = DEFAULT_SEED
    coalition: Optional[int] = None  # bitmask; None = grand coalition
    onset_risk: float = 1e-4  # residual per-block risk left uncovered by the clean-up round
    calibration_runs: int = 50

    def __post_init__(self):
        if not _is_pow2(self.n) or not _is_pow2(self.b):
            raise ValidationError("N and B must be powers of two")
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0.0 < self.beta < 0.5:
            raise ValidationError(f"beta must lie in (0,1/2), got {self.beta}")
        self.target = tuple(float(r) for r in self.target)
        if not all(math.isfinite(r) for r in self.target):
            raise ValidationError(f"target rates must be finite, got {self.target}")
        if any(r < 0 for r in self.target):
            raise ValidationError("target rates must be nonnegative")

    def members(self, num_agents: int) -> list[int]:
        full = (1 << num_agents) - 1
        mask = self.coalition if self.coalition is not None else full
        if mask <= 0 or mask > full:
            raise ValidationError(f"coalition mask {mask} out of range for L={num_agents}")
        return [l for l in range(num_agents) if mask >> l & 1]

    def to_json(self) -> dict:
        return {
            "N": self.n, "B": self.b, "target": list(self.target),
            "epsilon": self.epsilon, "beta": self.beta, "seed": self.seed,
            "coalition": self.coalition, "onset_risk": self.onset_risk,
            "calibration_runs": self.calibration_runs,
        }


def key_lengths_from_allocation(target: Sequence[float], n: int, b: int,
                                epsilon: float) -> np.ndarray:
    """Key length per agent: floor(N*B*(R_l - eps)), clamped at zero.

    The single margin eps absorbs every finite-length correction of the
    analysis; agents whose rate does not clear the margin get no key.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0,1), got {epsilon}")
    r = np.asarray(target, dtype=float)
    return np.maximum(np.floor(n * b * (r - epsilon)), 0.0).astype(np.int64)


class ToeplitzHash:
    """Binary Toeplitz matrix hash: {0,1}^n -> {0,1}^r.

    The matrix is determined by n+r-1 diagonal bits (first column stacked
    on the first row); row i, column j holds bits[i - j + n - 1].  Drawing
    the bits uniformly makes the family two-universal.
    """

    def __init__(self, bits: np.ndarray, n_in: int, r_out: int):
        bits = np.asarray(bits, dtype=np.uint8)
        if r_out < 0 or n_in < 1:
            raise ValidationError("need n_in >= 1 and r_out >= 0")
        if r_out > n_in:
            raise ValidationError(f"output length {r_out} exceeds input length {n_in}")
        expected = n_in + r_out - 1 if r_out > 0 else 0
        if bits.shape != (expected,):
            raise ValidationError(f"diagonal bit string needs {expected} bits")
        self.bits = bits
        self.n_in = n_in
        self.r_out = r_out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Hash one block (1-D) or a batch (2-D, row-wise)."""
        x = np.asarray(x, dtype=np.uint8)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.shape[1] != self.n_in:
            raise ValidationError(f"input length {x2.shape[1]}, expected {self.n_in}")
        if self.r_out == 0:
            out = np.zeros((x2.shape[0], 0), dtype=np.uint8)
        else:
            # row i of the matrix is the diagonal bits reversed-sliding: the
            # product is a slice of the full convolution
            bits = self.bits.astype(np.int64)
            out = np.empty((x2.shape[0], self.r_out), dtype=np.uint8)
            lo = self.n_in - 1
            for row in range(x2.shape[0]):
                conv = np.convolve(bits, x2[row].astype(np.int64))
                out[row] = (conv[lo:lo + self.r_out] & 1).astype(np.uint8)
        return out[0] if single else out


def sample_hash(seed: int, n_in: int, r_out: int) -> ToeplitzHash:
    """Draw a Toeplitz member from the seeded public stream."""
    if r_out > n_in:
        raise ValidationError(f"output length {r_out} exceeds input length {n_in}")
    if r_out == 0:
        return ToeplitzHash(np.zeros(0, dtype=np.uint8), n_in, 0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    bits = rng.integers(0, 2, n_in + r_out - 1, dtype=np.uint8)
    return ToeplitzHash(bits, n_in, r_out)


def toeplitz_from_index(index: int, n_in: int, r_out: int) -> ToeplitzHash:
    """Family member by explicit diagonal-bit index (exhaustive enumeration)."""
    nbits = n_in + r_out - 1 if r_out > 0 else 0
    bits = np.array([(index >> k) & 1 for k in range(nbits)], dtype=np.uint8)
    return ToeplitzHash(bits, n_in, r_out)


@dataclass
class Transcript:
    """Everything that crossed the public channel in one run."""

    n: int
    b: int
    block_messages: dict[int, np.ndarray] = field(default_factory=dict)   # agent -> (B, |H|)
    final_messages: dict[int, np.ndarray] = field(default_factory=dict)   # agent -> (bits,)
    hash_seeds: dict[int, int] = field(default_factory=dict)              # agent -> seed
    hash_bits: dict[int, np.ndarray] = field(default_factory=dict)        # agent -> matrix bits
    disclosures: dict[int, np.ndarray] = field(default_factory=dict)      # outsider -> (B, N)

    def to_bytes(self) -> bytes:
        """Length-prefixed frames: u32 bit count, u8 agent, u16 block id,
        payload bits packed little-endian (index 0 of the payload is bit 0
        of the first byte).  Block ids 0xFFFE and 0xFFFF mark the clean-up
        round and the hash-matrix bits; outsider disclosures reuse their
        block index."""
        frames = bytearray()

        def frame(agent: int, block: int, bits: np.ndarray):
            bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
            frames.extend(int(bits.size).to_bytes(4, "little"))
            frames.append(agent & 0xFF)
            frames.extend(int(block).to_bytes(2, "little"))
            frames.extend(np.packbits(bits, bitorder="little").tobytes())

        for agent, msgs in sorted(self.block_messages.items()):
            for blk in range(msgs.shape[0]):
                frame(agent, blk, msgs[blk])
        for agent, msg in sorted(self.final_messages.items()):
            frame(agent, FINAL_ROUND_BLOCK, msg)
        for agent, bits in sorted(self.hash_bits.items()):
            frame(agent, HASH_BITS_BLOCK, bits)
        for agent, blocks in sorted(self.disclosures.items()):
            for blk in range(blocks.shape[0]):
                frame(agent, blk, blocks[blk])
        return bytes(frames)

    def total_bits(self) -> dict[str, int]:
        return {
            "first_stage": sum(int(m.size) for m in self.block_messages.values()),
            "final_round": sum(int(m.size) for m in self.final_messages.values()),
            "disclosed": sum(int(d.size) for d in self.disclosures.values()),
        }


@dataclass
class KeyMaterial:
    """Agent keys and the base station's reconstructions."""

    keys: dict[int, np.ndarray]
    base_keys: dict[int, np.ndarray]

    def agree(self, agent: int) -> bool:
        return bool(np.array_equal(self.keys[agent], self.base_keys[agent]))


def min_entropy_floor(n: int, b: int, epsilon: float, src: JointSource,
                      coalition: int, cond_mask: int = 0) -> float:
    """Leading term of the coalition min-entropy budget.

    (1-eps) * N * B * I(X_S ; X0 | X_cond); the vanishing corrections of
    the underlying concentration argument are absorbed into eps rather
    than computed.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0,1], got {epsilon}")
    if coalition == 0:
        raise ValidationError("min-entropy floor needs a nonempty coalition")
    return (1.0 - epsilon) * n * b * conditional_mi(src, coalition, cond_mask)


def leakage_bound(lengths: Sequence[int], floors: dict[int, float]) -> float:
    """Concatenated leftover-hash bound.

    sqrt of the sum over nonempty coalitions S of 2^(r_S - H_S), with
    r_S the summed key lengths and H_S the supplied min-entropy lower
    bound.  Values above 1 are vacuous; inf when the exponent overflows
    double range.
    """
    r = np.asarray(lengths, dtype=float)
    num = len(r)
    exps = []
    for mask in range(1, 1 << num):
        if mask not in floors:
            raise ValidationError(f"missing min-entropy floor for coalition {mask}")
        r_s = sum(r[l] for l in range(num) if mask >> l & 1)
        exps.append(r_s - floors[mask])
    m = max(exps)
    if m / 2 > 1000:
        return float("inf")
    return float(2.0 ** (m / 2) * math.sqrt(sum(2.0 ** (e - m) for e in exps)))


def _risk_suffix(profile, h_mask: np.ndarray, onset_risk: float) -> np.ndarray:
    """Free-index suffix whose uncovered prefix carries at most onset_risk
    cumulative first-error probability."""
    free = np.where(~h_mask)[0]
    if free.size == 0:
        return free
    cum = np.cumsum(profile.genie_error[free])
    start = int(np.searchsorted(cum, onset_risk, side="right"))
    return free[start:]


@dataclass
class _AgentPlan:
    index: int              # 0-based agent position
    crossover: float
    h_mask: np.ndarray      # (N,) first-stage published set
    suffix: np.ndarray      # free-index suffix covered by the clean-up round
    key_len: int


class ProtocolEngine:
    """Deterministic simulator bound to one (spec, config) pair.

    Construction happens once: each member's published set and clean-up
    suffix come from the deterministic degrading-merge profile of its
    crossover (construct_profile, memoised per process on (crossover, N)),
    then a calibration pre-run may widen the suffixes.  Each run k is then
    a pure function of (seed, k), so batches of runs and a single replayed
    run produce bit-identical transcripts and keys.
    """

    def __init__(self, spec: DegradedSourceSpec, cfg: ProtocolConfig):
        self.spec = spec
        self.cfg = cfg
        self.num_agents = spec.num_agents
        self.members = cfg.members(self.num_agents)
        if len(cfg.target) != self.num_agents:
            raise ValidationError(
                f"target lists {len(cfg.target)} rates for {self.num_agents} agents"
            )
        self.outsiders = [l for l in range(self.num_agents) if l not in self.members]
        self.src = build_degraded_source(spec)
        self._warn_if_target_outside_region()
        lengths = key_lengths_from_allocation(cfg.target, cfg.n, cfg.b, cfg.epsilon)
        self.plans: list[_AgentPlan] = []
        for l in self.members:
            prof = construct_profile(spec.p[l], cfg.n)
            sets = build_index_sets(prof, cfg.beta)
            suffix = _risk_suffix(prof, sets.h_mask, cfg.onset_risk)
            self.plans.append(_AgentPlan(index=l, crossover=spec.p[l],
                                         h_mask=sets.h_mask, suffix=suffix,
                                         key_len=int(lengths[l])))
        self.calibration = self._calibrate()

    # -- construction --------------------------------------------------

    def _warn_if_target_outside_region(self):
        if not self.outsiders:
            game = value_function(self.src)
            ok, witness = core_contains(game, list(self.cfg.target), tol=1e-9)
            if not ok:
                warnings.warn(
                    f"target allocation is outside the core (witness coalition "
                    f"{witness:#x}); the protocol still runs, the achievable "
                    "region is larger than the core", stacklevel=3)
            return
        outsider_mask = 0
        for l in self.outsiders:
            outsider_mask |= 1 << l
        for sub in range(1, 1 << len(self.members)):
            mask, total = 0, 0.0
            for j, l in enumerate(self.members):
                if sub >> j & 1:
                    mask |= 1 << l
                    total += self.cfg.target[l]
            cap = conditional_mi(self.src, mask, outsider_mask)
            if total > cap + 1e-9:
                warnings.warn(
                    f"coalition target exceeds the achievable sum-rate for "
                    f"member subset {mask:#x}: {total:.6f} > {cap:.6f}",
                    stacklevel=3)
                return

    def _calibrate(self) -> dict:
        """Measure first-stage behaviour; widen suffixes on early onsets."""
        cfg = self.cfg
        runs = cfg.calibration_runs
        stats = {"runs": runs, "per_agent": {}}
        if runs <= 0:
            return stats
        x0, xs = self._sample_batch(_CAL_TAG, range(runs))
        for plan in self.plans:
            x = xs[plan.index]
            u = polar_transform(x)
            xb = self._first_stage_decode(plan, x0, u)
            ub = polar_transform(xb)
            bad_blocks = (x != xb).any(axis=1)
            # wrong transform-domain decisions sit outside the published
            # set; the suffix must cover every position observed wrong
            wrong = (u != ub) & ~plan.h_mask[None, :]
            wrong_idx = np.where(wrong.any(axis=0))[0]
            if wrong_idx.size:
                first = int(wrong_idx.min())
                if plan.suffix.size == 0 or first < int(plan.suffix.min()):
                    free = np.where(~plan.h_mask)[0]
                    plan.suffix = free[free >= first]
            stats["per_agent"][plan.index + 1] = {
                "block_error_rate": float(bad_blocks.mean()),
                "bit_flip_rate": float((x != xb).mean()),
                "suffix_bits": int(plan.suffix.size),
            }
        return stats

    # -- per-run mechanics ----------------------------------------------

    def _run_rng(self, tag: int, k: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.cfg.seed, tag, k)))
        )

    def _sample_batch(self, tag: int, ks) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Source realizations for the given run indices, stacked blockwise.

        Returns x0 of shape (runs*B, N) plus one same-shape array per
        agent.  Each run's bits derive only from (seed, tag, k).
        """
        cfg = self.cfg
        x0_parts, agent_parts = [], {l: [] for l in range(self.num_agents)}
        for k in ks:
            rng = self._run_rng(tag, k)
            x0 = (rng.random((cfg.b, cfg.n)) < self.spec.q).astype(np.uint8)
            x0_parts.append(x0)
            for l in range(self.num_agents):
                flips = (rng.random((cfg.b, cfg.n)) < self.spec.p[l]).astype(np.uint8)
                agent_parts[l].append(x0 ^ flips)
        x0_all = np.concatenate(x0_parts, axis=0)
        return x0_all, {l: np.concatenate(p, axis=0) for l, p in agent_parts.items()}

    def _hash_seed(self, k: int, agent: int) -> int:
        rng = self._run_rng(_HASH_TAG, (k << 8) | agent)
        return int(rng.integers(0, 2 ** 62))

    def _first_stage_decode(self, plan: _AgentPlan, x0: np.ndarray,
                            u_true: np.ndarray) -> np.ndarray:
        llr = side_info_llrs(x0, plan.crossover)
        return sc_decode(plan.h_mask, u_true, llr)

    def _final_mask(self, plan: _AgentPlan) -> np.ndarray:
        mask = np.zeros(self.cfg.n * self.cfg.b, dtype=bool)
        for c in range(self.cfg.b):
            mask[c * self.cfg.n + plan.suffix] = True
        return mask

    def reconcile_batch(self, x0: np.ndarray, xs: dict[int, np.ndarray],
                        runs: int) -> dict:
        """Both reconciliation stages over stacked realizations.

        x0 and each xs[agent] have shape (runs*B, N).  Returns per-agent
        truth, per-block estimates, cleaned-up estimates and the public
        messages, all batched by run.
        """
        cfg = self.cfg
        nb = cfg.n * cfg.b
        out = {"truth": {}, "block_estimates": {}, "estimates": {},
               "block_messages": {}, "final_messages": {}, "final_masks": {}}
        for plan in self.plans:
            agent = plan.index
            x = xs[agent]
            u = polar_transform(x)
            xb = self._first_stage_decode(plan, x0, u)
            x_nb = x.reshape(runs, nb)
            v = polar_transform(x_nb)
            vb = polar_transform(xb.reshape(runs, nb))
            fmask = self._final_mask(plan)
            delta = np.zeros((runs, nb), dtype=np.uint8)
            delta[:, fmask] = v[:, fmask] ^ vb[:, fmask]
            xhat = polar_transform(vb ^ delta)
            out["truth"][agent] = x_nb
            out["block_estimates"][agent] = xb
            out["estimates"][agent] = xhat
            out["block_messages"][agent] = u[:, plan.h_mask].reshape(runs, cfg.b, -1)
            out["final_messages"][agent] = v[:, fmask]
            out["final_masks"][agent] = fmask
        return out

    def simulate_runs(self, run_indices) -> dict:
        """Sample, reconcile and hash the listed runs."""
        cfg = self.cfg
        ks = list(run_indices)
        runs = len(ks)
        nb = cfg.n * cfg.b
        x0, xs = self._sample_batch(_RUN_TAG, ks)
        rec = self.reconcile_batch(x0, xs, runs)
        transcripts = [Transcript(n=cfg.n, b=cfg.b) for _ in ks]
        keymats = [KeyMaterial(keys={}, base_keys={}) for _ in ks]
        for k_pos in range(runs):
            for l in self.outsiders:
                transcripts[k_pos].disclosures[l + 1] = (
                    xs[l][k_pos * cfg.b:(k_pos + 1) * cfg.b]
                )
        for plan in self.plans:
            agent = plan.index
            x_nb = rec["truth"][agent]
            xhat = rec["estimates"][agent]
            for k_pos, k in enumerate(ks):
                tr = transcripts[k_pos]
                tr.block_messages[agent + 1] = rec["block_messages"][agent][k_pos]
                tr.final_messages[agent + 1] = rec["final_messages"][agent][k_pos]
                seed = self._hash_seed(k, agent)
                hasher = sample_hash(seed, nb, plan.key_len)
                tr.hash_seeds[agent + 1] = seed
                tr.hash_bits[agent + 1] = hasher.bits
                keymats[k_pos].keys[agent + 1] = hasher.apply(x_nb[k_pos])
                keymats[k_pos].base_keys[agent + 1] = hasher.apply(xhat[k_pos])
        return {"transcripts": transcripts, "keys": keymats,
                "truth": rec["truth"], "estimates": rec["estimates"]}


def reconcile(spec: DegradedSourceSpec, cfg: ProtocolConfig,
              x0_blocks: np.ndarray, agent_blocks: dict[int, np.ndarray]):
    """Run both reconciliation stages on explicit realizations.

    x0_blocks has shape (B, N); agent_blocks maps 1-based agent ids to
    same-shape arrays.  Returns (transcript, per_block_estimates,
    full_estimates) with 1-based agent keys; decoding failures show up in
    the estimates, they are not raised.
    """
    engine = ProtocolEngine(spec, cfg)
    xs = {l: np.asarray(agent_blocks[l + 1], dtype=np.uint8) for l in engine.members}
    for l in engine.outsiders:
        xs[l] = np.asarray(agent_blocks[l + 1], dtype=np.uint8)
    rec = engine.reconcile_batch(np.asarray(x0_blocks, dtype=np.uint8), xs, runs=1)
    tr = Transcript(n=cfg.n, b=cfg.b)
    per_block, full = {}, {}
    for plan in engine.plans:
        agent = plan.index
        tr.block_messages[agent + 1] = rec["block_messages"][agent][0]
        tr.final_messages[agent + 1] = rec["final_messages"][agent][0]
        per_block[agent + 1] = rec["block_estimates"][agent][:cfg.b]
        full[agent + 1] = rec["estimates"][agent][0]
    for l in engine.outsiders:
        tr.disclosures[l + 1] = xs[l]
    return tr, per_block, full


def privacy_amplify(sequences: dict[int, np.ndarray], lengths: dict[int, int],
                    seeds: dict[int, int],
                    base_sequences: Optional[dict[int, np.ndarray]] = None) -> KeyMaterial:
    """Hash each agent's sequence (and the base station's reconstruction)."""
    keys, base = {}, {}
    for agent, seq in sequences.items():
        hasher = sample_hash(seeds[agent], len(seq), lengths[agent])
        keys[agent] = hasher.apply(seq)
        ref = base_sequences[agent] if base_sequences is not None else seq
        base[agent] = hasher.apply(ref)
    return KeyMaterial(keys=keys, base_keys=base)


def run_protocol(spec: DegradedSourceSpec, cfg: ProtocolConfig, runs: int) -> dict:
    """Full pipeline over the given number of independent runs.

    The report carries per-agent key lengths and achieved rates, the
    empirical agreement failure rate, the analytic leftover-hash bound at
    the configured margin (None when it overflows double range, which is
    vacuous), and a chi-square uniformity p-value over the pooled key bits.
    Deterministic given (spec, cfg, runs).
    """
    if runs < 1:
        raise ValidationError(f"runs must be positive, got {runs}")
    t0 = time.perf_counter()
    engine = ProtocolEngine(spec, cfg)
    res = engine.simulate_runs(range(runs))
    nb = cfg.n * cfg.b

    outsider_mask = 0
    for l in engine.outsiders:
        outsider_mask |= 1 << l
    member_lengths = [plan.key_len for plan in engine.plans]
    floors = {}
    m = len(engine.plans)
    for sub in range(1, 1 << m):
        mask = 0
        for j, plan in enumerate(engine.plans):
            if sub >> j & 1:
                mask |= 1 << plan.index
        floors[sub] = min_entropy_floor(cfg.n, cfg.b, cfg.epsilon, engine.src,
                                        mask, cond_mask=outsider_mask)
    bound = leakage_bound(member_lengths, floors)

    per_agent = {}
    failures = np.zeros(runs, dtype=bool)
    pooled = []
    for plan in engine.plans:
        agent = plan.index + 1
        disagree = np.array([not res["keys"][k].agree(agent) for k in range(runs)])
        failures |= disagree
        pooled.extend(res["keys"][k].keys[agent] for k in range(runs))
        per_agent[agent] = {
            "r": plan.key_len,
            "achieved_rate": plan.key_len / nb,
            "agreement_failures": int(disagree.sum()),
            "first_stage_bits_per_block": int(plan.h_mask.sum()),
            "final_round_bits": int(plan.suffix.size * cfg.b),
        }
    pool = np.concatenate(pooled) if pooled else np.zeros(0, dtype=np.uint8)
    if pool.size:
        ones = int(pool.sum())
        chi2_p = float(chisquare([pool.size - ones, ones]).pvalue)
    else:
        chi2_p = 1.0

    return {
        "config": cfg.to_json(),
        "runs": runs,
        "per_agent": per_agent,
        "failure_rate": float(failures.mean()),
        "sum_rate": float(sum(member_lengths) / nb),
        "leakage_bound": bound if math.isfinite(bound) else None,
        "leakage_vacuous": not (bound <= 1.0),
        "chi2_p": chi2_p,
        "calibration": engine.calibration,
        "runtime_sec": time.perf_counter() - t0,
    }

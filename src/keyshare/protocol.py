"""End-to-end key-generation protocol simulation.

One run: sample N*B source symbols, reconcile every participating agent's
blocks to the base station (per-block polar source coding against the base
observation, then a cross-block clean-up round), hash each agent's full
sequence down to its target key length with a fresh Toeplitz matrix, and
compare agent keys with the base station's reconstructions.  One pass,
ProtocolEngine._reconcile, runs both stages over a stacked batch and
builds each run's Transcript; simulate_runs adds hash bits and keys (its
hash loop is the only privacy-amplification route), and reconcile() runs
the pass on one explicit realization.  run_protocol streams its runs
through simulate_runs in batches of RUN_BATCH and keeps only counts
between batches.  The Toeplitz product is an exact numpy real-FFT circular
convolution of length at least n+r-1, where n+r-1 is the number of
diagonal bits (see ToeplitzHash for why that length is exact); an agent's
sequence and the base station's reconstruction share one matrix and are
hashed in one call.

Reliability at finite length comes from the clean-up round.  Its message
is the transform of the whole N*B sequence restricted to the cross-block
images of the per-block "risky" index suffix.  Since G_{N*B} = G_B (x) G_N,
that is G_B across the B blocks of the per-block transforms on the suffix,
so inverting it by G_B gives the base station every block's transform on
the suffix.  The base station then decodes each member once, with the
published set and the suffix known: SC decisions before the first suffix
index do not depend on later ones, and the suffix takes the true values,
so the estimate is exact unless a decision on the uncovered free prefix
is wrong.  The suffix is cut from the per-index
decision-error upper bounds of the deterministic polar profile alone: its
uncovered prefix carries at most the configured residual-risk budget
onset_risk of first wrong decisions per block, by the union bound.  At
desk-scale block lengths polarization is immature and the suffix
typically spans most of the complement (all of it for Example 2 at
N=1024, whose decode is then a plain transform); the report states all published sizes
so the trade is visible.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.fft import irfft, rfft

from .errors import CapacityError, ConsistencyError, ValidationError
from .game import coalition_sums, core_contains, value_function
from .polar import (INDEX_BETA, build_index_sets, construct_profile,
                    polar_transform, sc_decode, side_info_llrs)
from .source import (DegradedSourceSpec, _member_masks, build_degraded_source,
                     mutual_information)

DEFAULT_SEED = 0xC0A117
FINAL_ROUND_BLOCK = 0xFFFE
HASH_BITS_BLOCK = 0xFFFF
_RUN_TAG = 0x52
_HASH_TAG = 0x48
# construct_profile takes 2.2-3.5 s per distinct crossover at this N (2-vCPU Xeon)
MAX_BLOCK_N = 2 ** 14
# Decode-work limit, in decoded source bits: members x runs x max(B x N,
# RUN_OVERHEAD_BITS).  Example 2 reaches it at 2730 runs (N=1024, B=4),
# which take 4.3-5.3 s with built profiles at a peak RSS of 52 MB on a
# 2-vCPU Xeon.  Sampling, hashing and report objects cost about as much
# per member-run as decoding RUN_OVERHEAD_BITS bits.
MAX_DECODE_WORK = 2 ** 25
RUN_OVERHEAD_BITS = 2 ** 10
# Runs per simulate_runs call in run_protocol.  At least 100: a caller that
# captures run_protocol's first batch can replay any run below 100 from it.
RUN_BATCH = 100


def _is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


@dataclass
class ProtocolConfig:
    """Parameters of one simulated deployment."""

    n: int
    b: int
    target: tuple[float, ...]
    epsilon: float
    seed: int = DEFAULT_SEED
    coalition: Optional[int] = None  # bitmask; None = grand coalition
    onset_risk: float = 1e-4  # residual per-block risk left uncovered by the clean-up round

    def __post_init__(self):
        if not _is_pow2(self.n) or not _is_pow2(self.b):
            raise ValidationError("N and B must be powers of two")
        if self.n > MAX_BLOCK_N:
            raise CapacityError(f"block length N={self.n} exceeds the limit {MAX_BLOCK_N}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in (0,1), got {self.epsilon}")
        self.target = tuple(float(r) for r in self.target)
        if not all(math.isfinite(r) for r in self.target):
            raise ValidationError(f"target rates must be finite, got {self.target}")
        if any(r < 0 for r in self.target):
            raise ValidationError("target rates must be nonnegative")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.onset_risk) and self.onset_risk >= 0):
            raise ValidationError(f"onset_risk must be finite and >= 0, got {self.onset_risk}")

    def members(self, num_agents: int) -> list[int]:
        full = (1 << num_agents) - 1
        mask = self.coalition if self.coalition is not None else full
        if mask <= 0 or mask > full:
            raise ValidationError(f"coalition mask {mask} out of range for L={num_agents}")
        return [l for l in range(num_agents) if mask >> l & 1]

    def check_decode_work(self, num_members: int, runs: int) -> None:
        """Raise CapacityError when the runs exceed MAX_DECODE_WORK."""
        work = num_members * runs * max(self.b * self.n, RUN_OVERHEAD_BITS)
        if work > MAX_DECODE_WORK:
            raise CapacityError(
                f"decode work members x runs x max(B*N, {RUN_OVERHEAD_BITS}) = "
                f"{work} exceeds the limit {MAX_DECODE_WORK} "
                "(about 5 s at N=1024, B=4 on 2 vCPUs)")

    def to_json(self) -> dict:
        return {
            "N": self.n, "B": self.b, "target": list(self.target),
            "epsilon": self.epsilon, "beta": INDEX_BETA, "seed": self.seed,
            "coalition": self.coalition, "onset_risk": self.onset_risk,
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
    if not np.all(np.isfinite(r)):
        raise ValidationError(f"target rates must be finite, got {r.tolist()}")
    lengths = np.maximum(np.floor(n * b * (r - epsilon)), 0.0)
    if np.any(lengths > n * b):
        raise ValidationError(f"target rates {r.tolist()} ask for keys longer than N*B = {n * b}")
    return lengths.astype(np.int64)


class ToeplitzHash:
    """Binary Toeplitz matrix hash: {0,1}^n -> {0,1}^r.

    The matrix is determined by n+r-1 diagonal bits (first column stacked
    on the first row); row i, column j holds bits[i - j + n - 1].  Drawing
    the bits uniformly makes the family two-universal.

    Row i of the product is entry n-1+i of the integer convolution of the
    diagonal bits with the input, reduced mod 2.  apply computes all rows
    of a batch in one numpy real-FFT circular convolution of length
    M = _fast_len(n+r-1).  Circular length M adds entry k+M (and k-M) of
    the linear convolution, whose entries run over 0 .. 2n+r-3, onto
    entry k; for the kept k in n-1 .. n+r-2 both lie outside that range
    once M >= n+r-1, so the kept entries are exact.  So are the sums:
    each is an integer of at most n << 2^53, so the float result rounds
    to it, and apply raises ConsistencyError if any value lies more than
    0.25 from its rounding (a guard, never a second route).  Diagonal
    bits and inputs must be 0 or 1.
    """

    def __init__(self, bits: np.ndarray, n_in: int, r_out: int):
        bits = _binary(bits, "bits")
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
        x = _binary(x, "hash input")
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.shape[1] != self.n_in:
            raise ValidationError(f"input length {x2.shape[1]}, expected {self.n_in}")
        if self.r_out == 0:
            out = np.zeros((x2.shape[0], 0), dtype=np.uint8)
        else:
            size = _fast_len(self.bits.size)  # >= n_in, since r_out >= 1
            lo = self.n_in - 1
            conv = irfft(rfft(x2, size, axis=1) * rfft(self.bits, size), size,
                         axis=1)[:, lo:lo + self.r_out]
            sums = np.rint(conv)
            residue = float(np.max(np.abs(conv - sums)))
            if residue > 0.25:
                raise ConsistencyError(f"FFT convolution residue {residue:.3g} exceeds 0.25")
            out = (sums.astype(np.int64) & 1).astype(np.uint8)
        return out[0] if single else out


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1), a length numpy's FFT runs fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _binary(a, name: str) -> np.ndarray:
    """a as a uint8 array, after checking that every entry is 0 or 1."""
    a = np.asarray(a)
    if not np.all((a == 0) | (a == 1)):
        raise ValidationError(f"{name} must hold only 0 and 1")
    return a.astype(np.uint8)


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


@dataclass
class KeyMaterial:
    """Agent keys and the base station's reconstructions."""

    keys: dict[int, np.ndarray]
    base_keys: dict[int, np.ndarray]

    def agree(self, agent: int) -> bool:
        return bool(np.array_equal(self.keys[agent], self.base_keys[agent]))


def leakage_bound(lengths: Sequence[int], floors: Sequence[float]) -> float:
    """Concatenated leftover-hash bound.

    sqrt of the sum over nonempty coalitions S of 2^(r_S - H_S), with
    r_S the summed key lengths and H_S = floors[S] the supplied
    min-entropy lower bound; floors has one entry per coalition bitmask
    (2^L entries, entry 0 ignored).  Values above 1 are vacuous; inf when
    the exponent overflows double range.
    """
    r = np.asarray(lengths, dtype=float)
    floors = np.asarray(floors, dtype=float)
    if floors.shape != (1 << len(r),):
        raise ValidationError(f"min-entropy floors need one entry per coalition bitmask "
                              f"({1 << len(r)}), got shape {floors.shape}")
    exps = coalition_sums(r)[1:] - floors[1:]
    m = float(exps.max())
    if m / 2 > 1000:
        return float("inf")
    return float(2.0 ** (m / 2) * math.sqrt(sum((2.0 ** (exps - m)).tolist())))


def _risk_suffix(profile, h_mask: np.ndarray, onset_risk: float) -> np.ndarray:
    """Free-index suffix whose uncovered prefix carries at most onset_risk
    cumulative first-error probability."""
    free = np.where(~h_mask)[0]
    cum = np.cumsum(profile.genie_error[free])
    start = int(np.searchsorted(cum, onset_risk, side="right"))
    return free[start:]


def _across_blocks(a: np.ndarray) -> np.ndarray:
    """G_B over the block axis of a (runs, B, m) array."""
    return polar_transform(a.swapaxes(1, 2)).swapaxes(1, 2)


@dataclass
class _AgentPlan:
    index: int              # 0-based agent position
    crossover: float
    h_mask: np.ndarray      # (N,) first-stage published set
    suffix: np.ndarray      # free-index suffix covered by the clean-up round
    known: np.ndarray       # (N,) h_mask | suffix: indices the base station is given
    key_len: int


class ProtocolEngine:
    """Deterministic simulator bound to one (spec, config) pair.

    Construction happens once and decodes nothing: each member's published
    set and clean-up suffix come from the deterministic degrading-merge
    profile of its crossover (construct_profile, memoised per process on
    (crossover, N)).  Each run k is then a pure function of (seed, k), so
    batches of runs and a single replayed run produce bit-identical
    transcripts and keys.  _reconcile is the one reconciliation pass;
    simulate_runs and reconcile() both call it.  It decodes each member
    once, with plan.known (the published set and the clean-up suffix)
    given, so SC decisions are made only on the uncovered free prefix.
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
        # I(X_S ; X0 | X_outsiders) for every member submask S (entry 0: S empty)
        subsets = _member_masks(self.members)
        outsider_mask = _member_masks(self.outsiders)[-1]
        self._member_info = np.zeros(len(subsets))
        self._member_info[1:] = mutual_information(self.src, subsets[1:] << 1, 1,
                                                   outsider_mask << 1)
        self._warn_if_target_outside_region(subsets)
        lengths = key_lengths_from_allocation(cfg.target, cfg.n, cfg.b, cfg.epsilon)
        self.plans: list[_AgentPlan] = []
        for l in self.members:
            prof = construct_profile(spec.p[l], cfg.n)
            sets = build_index_sets(prof, INDEX_BETA)
            suffix = _risk_suffix(prof, sets.h_mask, cfg.onset_risk)
            known = sets.h_mask.copy()
            known[suffix] = True
            self.plans.append(_AgentPlan(index=l, crossover=spec.p[l],
                                         h_mask=sets.h_mask, suffix=suffix,
                                         known=known, key_len=int(lengths[l])))

    # -- construction --------------------------------------------------

    def _warn_if_target_outside_region(self, subsets: np.ndarray):
        if not self.outsiders:
            game = value_function(self.src)
            ok, witness = core_contains(game, list(self.cfg.target), tol=1e-9)
            if not ok:
                warnings.warn(
                    f"target allocation is outside the core (witness coalition "
                    f"{witness:#x}); the protocol still runs, the achievable "
                    "region is larger than the core", stacklevel=3)
            return
        totals = coalition_sums([self.cfg.target[l] for l in self.members])
        over = np.flatnonzero(totals[1:] > self._member_info[1:] + 1e-9)
        if over.size:
            sub = over[0] + 1
            warnings.warn(
                f"coalition target exceeds the achievable sum-rate for member subset "
                f"{int(subsets[sub]):#x}: {totals[sub]:.6f} > {self._member_info[sub]:.6f}",
                stacklevel=3)

    # -- per-run mechanics ----------------------------------------------

    def _run_rng(self, tag: int, k: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.cfg.seed, tag, k)))
        )

    def _sample_batch(self, ks) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Source realizations for the given run indices, stacked blockwise.

        Returns x0 of shape (runs*B, N) plus one same-shape array per
        agent.  Each run's bits derive only from (seed, _RUN_TAG, k).
        """
        cfg = self.cfg
        x0_parts, agent_parts = [], {l: [] for l in range(self.num_agents)}
        for k in ks:
            rng = self._run_rng(_RUN_TAG, k)
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

    def _reconcile(self, x0: np.ndarray, xs: dict[int, np.ndarray], runs: int):
        """Both reconciliation stages over stacked realizations.

        x0 and xs[l] (0-based agent l, every agent) have shape (runs*B, N).
        Returns (transcripts, estimates): one Transcript per run with the
        first-stage messages, the clean-up messages and the outsider
        disclosures, and each member's estimate of its sequence, shape
        (runs, N*B), keyed by 1-based member.

        The base station decodes each member once, with every index of
        plan.known given: on H the first-stage values, on the suffix the
        clean-up message inverted by G_B.  SC decisions before the first
        suffix index do not depend on later indices, so this is the
        estimate that decoding H alone and then overwriting the suffix from
        the clean-up round would give; when H and the suffix cover every
        index, the decode is a plain transform.
        """
        cfg = self.cfg
        transcripts = [Transcript(n=cfg.n, b=cfg.b,
                                  disclosures={l + 1: xs[l][k * cfg.b:(k + 1) * cfg.b]
                                               for l in self.outsiders})
                       for k in range(runs)]
        estimates = {}
        for plan in self.plans:
            agent = plan.index + 1
            u = polar_transform(xs[plan.index]).reshape(runs, cfg.b, cfg.n)
            block_msgs = u[:, :, plan.h_mask]
            # G_{N*B} = G_B (x) G_N: the N*B transform of a run on every
            # block's suffix is G_B across the blocks of the per-block u
            final_msgs = _across_blocks(u[:, :, plan.suffix])
            received = np.zeros_like(u)
            received[:, :, plan.h_mask] = block_msgs
            received[:, :, plan.suffix] = _across_blocks(final_msgs)  # G_B is an involution
            xb = sc_decode(plan.known, received.reshape(runs * cfg.b, cfg.n),
                           side_info_llrs(x0, plan.crossover))
            estimates[agent] = xb.reshape(runs, cfg.n * cfg.b)
            final_msgs = final_msgs.reshape(runs, -1)
            for k, tr in enumerate(transcripts):
                tr.block_messages[agent] = block_msgs[k]
                tr.final_messages[agent] = final_msgs[k]
        return transcripts, estimates

    def simulate_runs(self, run_indices) -> dict:
        """Sample, reconcile and hash the listed runs.

        Returns {"transcripts": [...], "keys": [...]}, one Transcript and
        one KeyMaterial per listed run, in order.
        """
        ks = list(run_indices)
        nb = self.cfg.n * self.cfg.b
        x0, xs = self._sample_batch(ks)
        transcripts, estimates = self._reconcile(x0, xs, len(ks))
        keymats = [KeyMaterial(keys={}, base_keys={}) for _ in ks]
        for plan in self.plans:
            agent = plan.index + 1
            x_nb = xs[plan.index].reshape(len(ks), nb)
            for pos, k in enumerate(ks):
                hasher = sample_hash(self._hash_seed(k, plan.index), nb, plan.key_len)
                transcripts[pos].hash_bits[agent] = hasher.bits
                # x and x-hat share the matrix: one call hashes both
                keymats[pos].keys[agent], keymats[pos].base_keys[agent] = (
                    hasher.apply(np.stack([x_nb[pos], estimates[agent][pos]])))
        return {"transcripts": transcripts, "keys": keymats}


def reconcile(spec: DegradedSourceSpec, cfg: ProtocolConfig,
              x0_blocks: np.ndarray, agent_blocks: dict[int, np.ndarray]):
    """Run both reconciliation stages on explicit realizations.

    x0_blocks has shape (B, N); agent_blocks maps every 1-based agent id
    to a same-shape array.  Builds a ProtocolEngine, which decodes nothing
    itself, and runs its reconciliation pass on this one realization.
    Returns (transcript, estimates): estimates maps each 1-based member to
    the base station's estimate of its N*B sequence, blocks in order.
    Decoding failures show up in the estimates, they are not raised.
    """
    x0 = _binary(x0_blocks, "x0_blocks")
    xs = {l: _binary(agent_blocks[l + 1], f"agent_blocks[{l + 1}]")
          for l in range(spec.num_agents)}
    engine = ProtocolEngine(spec, cfg)
    (transcript,), estimates = engine._reconcile(x0, xs, 1)
    return transcript, {agent: est[0] for agent, est in estimates.items()}


def _balance_p_value(size: int, ones: int) -> float:
    """Chi-square p-value of `ones` set bits among `size` fair coin flips;
    1 dof, so P(chi2 > s) = erfc(sqrt(s / 2)).  1.0 for no bits."""
    return math.erfc(math.sqrt((size - 2 * ones) ** 2 / size / 2)) if size else 1.0


def run_protocol(spec: DegradedSourceSpec, cfg: ProtocolConfig, runs: int) -> dict:
    """Full pipeline over the given number of independent runs.

    The runs go through engine.simulate_runs in consecutive batches of
    RUN_BATCH; between batches only the per-agent agreement-failure
    counts, the count of runs where any member disagreed and the pooled
    key-bit and ones counts are kept, so memory does not grow with runs.
    The report carries per-agent key lengths and achieved rates, the
    empirical agreement failure rate, the analytic leftover-hash bound at
    the configured margin (None when it overflows double range, which is
    vacuous), and a chi-square uniformity p-value over the pooled key bits.
    Deterministic given (spec, cfg, runs).
    """
    if runs < 1:
        raise ValidationError(f"runs must be positive, got {runs}")
    cfg.check_decode_work(len(cfg.members(spec.num_agents)), runs)
    t0 = time.perf_counter()
    engine = ProtocolEngine(spec, cfg)
    nb = cfg.n * cfg.b

    member_lengths = [plan.key_len for plan in engine.plans]
    # (1 - eps) N B I(X_S ; X0 | X_outsiders) for every member submask S
    floors = (1.0 - cfg.epsilon) * nb * engine._member_info
    bound = leakage_bound(member_lengths, floors)

    failures = {plan.index + 1: 0 for plan in engine.plans}
    failed_runs = pool_size = pool_ones = 0
    for start in range(0, runs, RUN_BATCH):
        batch = engine.simulate_runs(range(start, min(start + RUN_BATCH, runs)))
        for km in batch["keys"]:
            disagree = [agent for agent in failures if not km.agree(agent)]
            for agent in disagree:
                failures[agent] += 1
            failed_runs += bool(disagree)
            for key in km.keys.values():
                pool_size += key.size
                pool_ones += int(key.sum())

    per_agent = {
        plan.index + 1: {
            "r": plan.key_len,
            "achieved_rate": plan.key_len / nb,
            "agreement_failures": failures[plan.index + 1],
            "first_stage_bits_per_block": int(plan.h_mask.sum()),
            "final_round_bits": int(plan.suffix.size * cfg.b),
        } for plan in engine.plans}

    return {
        "config": cfg.to_json(),
        "runs": runs,
        "per_agent": per_agent,
        "failure_rate": failed_runs / runs,
        "sum_rate": float(sum(member_lengths) / nb),
        "leakage_bound": bound if math.isfinite(bound) else None,
        "leakage_vacuous": not (bound <= 1.0),
        "chi2_p": _balance_p_value(pool_size, pool_ones),
        "runtime_sec": time.perf_counter() - t0,
    }

"""End-to-end key-generation protocol simulation.

One run: sample N*B source symbols, reconcile every participating agent's
blocks to the base station (per-block polar source coding against the base
observation, then a cross-block clean-up round), hash each agent's full
sequence down to its target key length with a fresh Toeplitz matrix, and
compare agent keys with the base station's reconstructions.  One pass,
ProtocolEngine._reconcile, runs both stages over a stacked batch and
builds each run's Transcript; simulate_runs, the only route to hash bits
and keys, calls it.  run_protocol streams its runs through simulate_runs
in batches of RUN_BATCH and keeps only counts between batches.  The
Toeplitz product is an exact numpy real-FFT circular convolution of
length at least n+r-1, where n+r-1 is the number of diagonal bits, and
one FFT row hashes two runs, packed as a + K b with K a power of two above
2n, wherever N*B is at most 4096 (see ToeplitzHash for why both are
exact).  Every run draws its own matrix; simulate_runs draws a member's
diagonal bits into one stack.  simulate_runs runs on two lanes, the
calling thread and one helper thread, as two fork-joins (_beside): in
the first each lane samples half of the runs; in the second the helper
draws the matrices and hashes the agent keys in HASH_CHUNK-row blocks
off a shared job queue while the calling thread reconciles, since the
agent keys do not depend on reconciliation, and the calling thread then
takes the jobs that are left.  A lane that fails empties the queue, so
the other stops after its current job and the blocks it queues, and the
calling thread's failure is raised first.  Each run's sample and each row's key are fixed
functions of their own streams, matrix and input, so the split changes
no bit.  An agent's sequence and the base station's reconstruction share
the run's matrix, so the base key is the agent key unless the
reconstruction differs, and only those runs are hashed a second time.

Randomness: run k's source sample and each member's hash matrix come from
Philox streams keyed by SeedSequence((seed, tag, k)), so any run replays
bit-exactly on its own.  Philox is counter-based, so a stream is fixed by
its 128-bit key: simulate_runs derives all keys of a batch in vectorised
passes (_stream_keys, bit-identical to SeedSequence.generate_state),
each lane resets its one bit generator to each key (_Stream), and the
hash bits are read off the raw Philox words.  The streams thus depend
only on SeedSequence and Philox, not on Generator.integers.

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
uncovered prefix carries at most the fixed residual-risk budget
ONSET_RISK of first wrong decisions per block, by the union bound.  At
desk-scale block lengths polarization is immature and the suffix
typically spans most of the complement (all of it for Example 2 at
N=1024, whose decode is then a plain transform); the report states all published sizes
so the trade is visible.
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from numpy.fft import irfft, rfft

from .errors import (CapacityError, ConsistencyError, ValidationError, binary, integer,
                     power_of_two, real, reals, sequence)
from .game import coalition_sums
from .polar import (INDEX_BETA, MAX_BLOCK_N, build_index_sets, construct_profile,
                    polar_transform, sc_decode)
from .source import DegradedSourceSpec, _member_masks, mutual_information

DEFAULT_SEED = 0xC0A117
FINAL_ROUND_BLOCK = 0xFFFE
HASH_BITS_BLOCK = 0xFFFF
_RUN_TAG = 0x52
_HASH_TAG = 0x48
# Transcript.to_bytes writes block ids as u16 and reserves 0xFFFE and 0xFFFF
MAX_BLOCKS = 2 ** 15
# Decode-work limit, in decoded source bits: members x runs x max(B x N,
# RUN_OVERHEAD_BITS).  Example 2 reaches it at 2730 runs (N=1024, B=4),
# which take 1.0-1.1 s with built profiles at a peak RSS of 47 MB on a
# 2-vCPU Xeon (1.3-1.4 s pinned to one CPU); building the three profiles
# cold adds 0.23-0.35 s.
# Sampling, hashing and report objects cost about as much per member-run
# as decoding RUN_OVERHEAD_BITS bits.
MAX_DECODE_WORK = 2 ** 25
RUN_OVERHEAD_BITS = 2 ** 10
# Runs per simulate_runs call in run_protocol.  At least 100: a caller that
# captures run_protocol's first batch can replay any run below 100 from it.
RUN_BATCH = 100
# Input rows per block in ToeplitzHash.apply, which reuses its buffers
# across blocks; paired rows make it 4 FFT rows at Example 2's N*B = 4096.
# simulate_runs hashes on two lanes with one set each.  In the second warm
# 100-run Example 2 run_protocol call, apply takes 160-161 of 1,197-1,205
# minor page faults (per-thread getrusage); with one row per FFT row it
# took 266-279 of 1,383-1,396, and at 16 rows with a set per apply call
# 431 of 1,303.
HASH_CHUNK = 8
# Residual first-error probability per block that the clean-up round
# leaves uncovered (_risk_suffix)
ONSET_RISK = 1e-4


@dataclass
class ProtocolConfig:
    """Parameters of one simulated deployment."""

    n: int
    b: int
    target: tuple[float, ...]
    epsilon: float
    seed: int = DEFAULT_SEED
    coalition: Optional[int] = None  # bitmask; None = grand coalition

    def __post_init__(self):
        self.n = power_of_two(self.n, "block length N", MAX_BLOCK_N)
        self.b = power_of_two(self.b, "block count B", MAX_BLOCKS)
        self.epsilon = real(self.epsilon, "epsilon", high=1.0, open=True)
        # an entry in [-1e-12, 0) is round-off, as in the package's own
        # Shapley and nucleolus rates, and reads as 0, as a game value does
        self.target = tuple(max(real(r, "target rates", low=-1e-12), 0.0)
                            for r in sequence(self.target, "target rates"))
        self.seed = integer(self.seed, "seed")
        if self.coalition is not None:
            self.coalition = integer(self.coalition, "coalition")

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
                "(about 1 s at N=1024, B=4 on 2 vCPUs)")

    def key_lengths(self) -> np.ndarray:
        """Key length per agent: floor(N*B*(R_l - eps)), clamped at zero.

        The single margin eps absorbs every finite-length correction of the
        analysis; agents whose rate does not clear the margin get no key.
        """
        nb, r = self.n * self.b, np.array(self.target)
        lengths = np.maximum(np.floor(nb * (r - self.epsilon)), 0.0)
        if np.any(lengths > nb):
            raise ValidationError(f"target rates {r.tolist()} ask for keys longer than N*B = {nb}")
        return lengths.astype(np.int64)

    def to_json(self) -> dict:
        return {
            "N": self.n, "B": self.b, "target": list(self.target),
            "epsilon": self.epsilon, "beta": INDEX_BETA, "seed": self.seed,
            "coalition": self.coalition, "onset_risk": ONSET_RISK,
        }


class ToeplitzHash:
    """Binary Toeplitz matrix hash: {0,1}^n -> {0,1}^r, or a stack of them.

    A matrix is determined by n+r-1 diagonal bits (first column stacked
    on the first row); row i, column j holds bits[i - j + n - 1].  Drawing
    the bits uniformly makes the family two-universal.  bits is one
    diagonal string, shape (n+r-1,), or a stack of k of them, shape
    (k, n+r-1): one matrix hashes every row of a batch, and a stack
    hashes row i of a (k, n) batch with matrix i.

    Row i of the product is entry n-1+i of the integer convolution of the
    diagonal bits with the input, reduced mod 2.  apply takes a batch's
    rows HASH_CHUNK at a time, each block one numpy real-FFT circular
    convolution of length M = _fast_len(n+r-1): an rfft of the rows, one
    of the block's stack (one matrix is hashed as a stack of copies of
    it), and an irfft.  Circular length M adds entry k+M (and k-M) of the
    linear convolution, whose entries run over 0 .. 2n+r-3, onto entry k;
    for the kept k in n-1 .. n+r-2 both lie outside that range once
    M >= n+r-1, so the kept entries are exact.

    One FFT row hashes two input rows a and b when n is small enough
    (_pairing).  With K = 2^s the smallest power of two above 2n, the
    row holds x_a + K x_b and the matrix side d_a + K d_b; the
    convolution is bilinear, so it is c_aa + K (c_ab + c_ba) + K^2 c_bb,
    where c_uv is the circular convolution of d_u with x_v.  Each of its
    entries sums n products of bits, so every entry of c_aa and c_bb is
    at most n < K and every entry of c_ab + c_ba at most 2n < K: c_aa is
    the integer's bits [0, s), the cross terms its bits [s, 2s) and c_bb
    the rest, so a's key bit is bit 0 and b's is bit 2s.  The sums are
    integers below K^2 (n+1) <= 2^41 when paired and at most n << 2^53
    when not, so the float result rounds to them, and apply raises
    ConsistencyError if any block holds a value more than 0.25 from its
    rounding (a guard, never a second route).  Diagonal bits and inputs
    must be 0 or 1.

    Each call allocates one float and one complex block buffer
    (_hash_buffers), unless the caller passes its own set: simulate_runs
    gives each of its two lanes one set for the whole call, so its
    per-block apply calls allocate no FFT buffer.  numpy's FFTs release the
    GIL, so two calls with separate sets run in parallel.
    """

    def __init__(self, bits: np.ndarray, n_in: int, r_out: int):
        bits = binary(bits, "bits")
        expected = _diagonal_len(n_in, r_out)
        if bits.ndim not in (1, 2) or bits.shape[-1] != expected:
            raise ValidationError(f"diagonal bit string needs {expected} bits")
        self.bits = bits
        self.n_in = int(n_in)
        self.r_out = int(r_out)

    def apply(self, x: np.ndarray, buffers: Optional[tuple] = None) -> np.ndarray:
        """Hash one block (1-D) or a batch (2-D, row-wise); a stack of k
        matrices takes exactly k rows.  buffers, from _hash_buffers for this
        n_in and an r_out of at least this one, are used instead of a set
        allocated for this call; two calls running at once need two sets."""
        x = binary(x, "hash input")
        if x.ndim not in (1, 2):
            raise ValidationError(f"hash input must be 1-D or 2-D, got shape {x.shape}")
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.shape[1] != self.n_in:
            raise ValidationError(f"input length {x2.shape[1]}, expected {self.n_in}")
        if self.bits.ndim == 2 and (single or x2.shape[0] != self.bits.shape[0]):
            raise ValidationError(f"a stack of {self.bits.shape[0]} matrices hashes "
                                  f"{self.bits.shape[0]} rows, got {x.shape}")
        out = np.empty((x2.shape[0], self.r_out), np.uint8)
        if self.r_out == 0:
            return out[0] if single else out
        size = _fast_len(self.bits.shape[-1])  # >= n_in, since r_out >= 1
        lo = self.n_in - 1
        pair, shift = _pairing(self.n_in)
        block = min(HASH_CHUNK, len(x2))
        real, cplx = buffers if buffers is not None else _hash_buffers(self.n_in, self.r_out, block)
        rows, half = -(-block // pair), size // 2 + 1
        # a block's packed zero-padded rows, then its irfft; the rows' and matrices' rffts
        padded = real[:rows * size].reshape(rows, size)
        spectrum, kernel = cplx[:2 * rows * half].reshape(2, rows, half)

        def transform(rows, into):
            # FFT row j packs rows[pair j] + K rows[pair j + 1]
            packed, width = padded[:-(-len(rows) // pair)], rows.shape[1]
            packed[:, :width] = rows[::pair]
            packed[:, width:] = 0
            if pair == 2:
                packed[:len(rows) // 2, :width] += float(1 << shift) * rows[1::2]
            return rfft(packed, size, axis=1, out=into[:len(packed)])

        # one matrix hashes every row as a stack of copies of it
        bits = np.broadcast_to(self.bits, (len(x2), self.bits.shape[-1]))
        for start in range(0, len(x2), HASH_CHUNK):
            part = slice(start, start + HASH_CHUNK)
            matrices = transform(bits[part], kernel)
            product = transform(x2[part], spectrum)
            product *= matrices
            conv = irfft(product, size, axis=1, out=padded[:len(product)])[:, lo:lo + self.r_out]
            sums = np.rint(conv)
            residue = float(np.max(np.abs(conv - sums), initial=0.0))
            if residue > 0.25:
                raise ConsistencyError(f"FFT convolution residue {residue:.3g} exceeds 0.25")
            sums = sums.astype(np.int64)
            for j in range(pair):  # block row pair i + j is bit 2 s j of FFT row i
                keys = out[part][j::pair]
                keys[:] = sums[:len(keys)] >> (2 * shift * j) & 1
        return out[0] if single else out


def _pairing(n_in: int) -> tuple[int, int]:
    """(input rows per FFT row, s) of apply at input length n_in, where
    K = 2^s is the smallest power of two above 2 n_in.  Two rows share one
    FFT row while the packed sums stay below K^2 (n_in + 1) <= 2^41, where
    the float64 convolution error stays far below apply's 0.25 guard
    (residues of about 1e-4 at n_in = 4096); larger inputs keep one row
    each, since pairing at n_in >= 8192 pushes the sums to 2^43."""
    shift = (2 * n_in).bit_length()
    return (2 if (n_in + 1) << 2 * shift <= 2 ** 41 else 1), shift


def _hash_buffers(n_in: int, r_out: int, rows: int = HASH_CHUNK
                  ) -> tuple[np.ndarray, np.ndarray]:
    """FFT buffers for ToeplitzHash.apply blocks of up to rows input rows
    of an n_in -> r_out hash, or of one with a shorter output: a float one
    that takes a block's packed zero-padded rows and then its irfft, and a
    complex one for the rows' and the matrices' rffts."""
    size = _fast_len(n_in + r_out - 1) if r_out else 1
    rows = -(-rows // _pairing(n_in)[0])
    return np.empty(rows * size), np.empty(2 * rows * (size // 2 + 1), complex)


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


def _diagonal_len(n_in: int, r_out: int) -> int:
    """Number of diagonal bits of an n_in -> r_out Toeplitz matrix, after
    checking that the input length is a positive integer and the output
    length an integer in 0..n_in."""
    n_in = integer(n_in, "input length n_in", positive=True)
    if integer(r_out, "output length r_out") > n_in:
        raise ValidationError(f"output length {r_out} exceeds the input length {n_in}")
    return n_in + r_out - 1 if r_out > 0 else 0


# SeedSequence's hash constants (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4  # entropy pool size in uint32 words


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of SeedSequence's first count hashmix steps, as
    two (count, 1) uint32 columns: step i xors h_i and multiplies by
    h_{i+1}, where h_0 = init and h_{i+1} = h_i * mult mod 2^32."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, np.uint32)[:, None]
    return h[:-1], h[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ out >> np.uint32(16)


def _stream_keys(entropies: Sequence[tuple]) -> np.ndarray:
    """Philox keys of the given SeedSequence entropies, shape (len, 2).

    Row i equals np.random.SeedSequence(entropies[i]).generate_state(2,
    np.uint64), the key that seeds a Philox with that SeedSequence.  Each
    entry contributes its little-endian uint32 words (0 gives one word),
    and the rows with the same word count are mixed together: the hash
    constants do not depend on the data, so only the mixing runs on uint32
    arrays.  The entries are nonnegative integers, which the callers
    check (seeds and run indices) or fix (tags and agent ids), and are
    split into words as one array.
    """
    flat = list(chain.from_iterable(entropies))
    # width words hold the largest entry
    width = max(1, -(-int(max(flat, default=0)).bit_length() // 32))
    if width <= 2:
        values = np.array(flat, np.uint64)
    else:  # entries past 2^64 stay Python ints
        values = np.array([int(v) for v in flat], object)
    words = np.stack([values >> (32 * j) & _MASK32 for j in range(width)], axis=1).astype(np.uint32)
    # an entry's word count runs to its highest nonzero word, and is at least 1
    counts = np.where(words != 0, np.arange(1, width + 1), 1).max(axis=1, initial=1)
    words = words[np.arange(width) < counts[:, None]]  # every row's words, in order
    lengths = np.fromiter(map(len, entropies), np.int64, len(entropies))
    row_words = np.bincount(np.repeat(np.arange(len(lengths)), lengths), counts,
                            len(lengths)).astype(np.int64)
    row_start = np.cumsum(row_words) - row_words
    keys = np.empty((len(lengths), 2), np.uint64)
    for count in set(row_words.tolist()):  # np.unique would import numpy.ma, 10 ms
        members = np.flatnonzero(row_words == count)
        data = words[row_start[members, None] + np.arange(count)].T
        # the pool words mixed into the other three, then every later word
        # into all four: each pass is one hashmix with 3 or 4 step columns
        xor, mult = _hash_steps(_INIT_A, _MULT_A, _POOL_WORDS ** 2
                                + _POOL_WORDS * max(count - _POOL_WORDS, 0))
        pool = np.zeros((_POOL_WORDS, len(members)), np.uint32)
        pool[:count] = data[:_POOL_WORDS]
        pool = _hashmix(pool, xor[:_POOL_WORDS], mult[:_POOL_WORDS])
        at = _POOL_WORDS
        for src in range(_POOL_WORDS):
            dst = [d for d in range(_POOL_WORDS) if d != src]
            step = slice(at, at + len(dst))
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step], mult[step]))
            at += len(dst)
        for src in range(_POOL_WORDS, count):
            step = slice(at, at + _POOL_WORDS)
            pool = _mix(pool, _hashmix(data[src], xor[step], mult[step]))
            at += _POOL_WORDS
        state = _hashmix(pool, *_hash_steps(_INIT_B, _MULT_B, _POOL_WORDS))
        keys[members] = state.T.astype("<u4", order="C").view("<u8")
    return keys


class _Stream:
    """One Philox bit generator, reset to one stream key after another.

    reset(key) puts it in the state of a fresh Philox with that key
    (counter 0, nothing buffered), so each stream depends on its key alone.
    Every reset goes through one state template whose key slot it
    overwrites, so it builds no dict or array per stream; a Python-int key
    (a row of keys.tolist()) is read fastest.  Each lane of simulate_runs
    has its own, since a reset and the draws after it must not interleave
    with another thread's.
    """

    def __init__(self):
        # the seed is never used: every draw first resets to its stream's key
        self.bitgen = np.random.Philox(0)
        self._slot = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        self._state = {"bit_generator": "Philox", "state": self._slot,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def reset(self, key) -> np.random.Philox:
        self._slot["key"] = key
        self.bitgen.state = self._state
        return self.bitgen


def _raw_threshold(p: np.ndarray) -> np.ndarray:
    """uint64 t with raw < t exactly when random()'s draw (raw >> 11)·2^-53 < p,
    that is raw >> 11 < ceil(p·2^53); for p in (0, 1) t stays below 2^64."""
    return np.ceil(p * 2.0 ** 53).astype(np.uint64) << np.uint64(11)


def _diagonal_stack(stream: _Stream, keys: np.ndarray, m: int) -> np.ndarray:
    """(len(keys), m) diagonal bits; row i comes from the stream of keys[i].

    Bit j is the top bit of byte j of the stream's raw little-endian
    words: what Generator.integers(0, 2, m, dtype=np.uint8) returns on
    the fresh stream, since it reads the bytes of next_uint32 (low half of
    each word first) and Lemire's bounded draw over a power-of-two range
    never rejects.
    """
    bits = np.empty((len(keys), m), np.uint8)
    words = -(-m // 8)
    for row, key in zip(bits, keys.tolist()):
        raw = stream.reset(key).random_raw(words).astype("<u8", copy=False)
        np.right_shift(raw.view(np.uint8)[:m], 7, out=row)
    return bits


def sample_hash(seed: int, n_in: int, r_out: int) -> ToeplitzHash:
    """Draw a Toeplitz member from the seeded public stream."""
    seed = integer(seed, "seed")
    bits = _diagonal_stack(_Stream(), _stream_keys([(seed,)]), _diagonal_len(n_in, r_out))
    return ToeplitzHash(bits[0], n_in, r_out)


def toeplitz_from_index(index: int, n_in: int, r_out: int) -> ToeplitzHash:
    """Family member by explicit diagonal-bit index (exhaustive enumeration)."""
    bits = np.array([(index >> k) & 1 for k in range(_diagonal_len(n_in, r_out))],
                    dtype=np.uint8)
    return ToeplitzHash(bits, n_in, r_out)


def _beside(side, main):
    """main()'s result, with side() run on one helper thread meanwhile.

    The helper is joined before this returns or raises; main's failure is
    raised first, else side's.  This is the only place a thread starts.
    """
    failed: list[BaseException] = []

    def run():
        try:
            side()
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=run, name="keyshare-lane")
    thread.start()
    try:
        out = main()
    finally:
        thread.join()
    if failed:
        raise failed[0]
    return out


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


def leakage_bound(lengths: Sequence[int], floors: Sequence[float]) -> float:
    """Concatenated leftover-hash bound.

    sqrt of the sum over the coalitions S with key bits (r_S > 0) of
    2^(r_S - H_S), with r_S the summed key lengths and H_S = floors[S] the
    supplied min-entropy lower bound; floors has one entry per coalition
    bitmask (2^L entries, entry 0 ignored).  A coalition without key bits
    leaks nothing, so the bound is 0 when no coalition has any.  Values
    above 1 are vacuous; inf when the exponent overflows double range.  A
    floor may be +inf (a coalition that cannot guess at all); lengths must
    be finite and nonnegative, and no floor NaN.
    """
    r, floors = reals(sequence(lengths, "lengths"), "lengths"), reals(floors, "floors")
    if floors.shape != (1 << len(r),):
        raise ValidationError(f"min-entropy floors need one entry per coalition bitmask "
                              f"({1 << len(r)}), got shape {floors.shape}")
    bad = np.flatnonzero(~(np.isfinite(r) & (r >= 0)))
    if bad.size:
        raise ValidationError(f"lengths must be finite and nonnegative, got {r[bad[0]]} "
                              f"for agent {bad[0] + 1}")
    bad = np.flatnonzero(np.isnan(floors))
    if bad.size:
        raise ValidationError(f"floors must not be NaN, got NaN for coalition {bad[0]:#x}")
    sums = coalition_sums(r)
    exps = (sums - floors)[sums > 0]
    m = float(exps.max(initial=-math.inf))
    if m == -math.inf:  # no key bits, or every floor of a keyed coalition is +inf
        return 0.0
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
    transcripts and keys.  _reconcile is the one reconciliation pass, and
    simulate_runs calls it.  It decodes each member once, with plan.known
    (the published set and the clean-up suffix) given, so SC decisions are
    made only on the uncovered free prefix.
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
        # I(X_S ; X0 | X_outsiders) for every member submask S (entry 0: S empty)
        subsets = _member_masks(self.members)
        outsider_mask = _member_masks(self.outsiders)[-1]
        self._member_info = np.zeros(len(subsets))
        self._member_info[1:] = mutual_information(spec, subsets[1:] << 1, 1,
                                                   outsider_mask << 1)
        self._warn_if_target_outside_region(subsets)
        lengths = cfg.key_lengths()
        self.plans: list[_AgentPlan] = []
        for l in self.members:
            prof = construct_profile(spec.p[l], cfg.n)
            sets = build_index_sets(prof)
            suffix = _risk_suffix(prof, sets.h_mask, ONSET_RISK)
            known = sets.h_mask.copy()
            known[suffix] = True
            self.plans.append(_AgentPlan(index=l, crossover=spec.p[l],
                                         h_mask=sets.h_mask, suffix=suffix,
                                         known=known, key_len=int(lengths[l])))

    # -- construction --------------------------------------------------

    def _warn_if_target_outside_region(self, subsets: np.ndarray):
        """Warn when some member subset S is given more than
        _member_info[S] = I(X_S ; X0 | X_outsiders).  For the grand
        coalition that is v(N) - v(S^c), the core's upper bound, so the
        target is in the core exactly when no subset is over-allocated and
        it sums to v(N) = _member_info[-1]; both within 1e-9."""
        info = self._member_info
        totals = coalition_sums([self.cfg.target[l] for l in self.members])
        over = np.flatnonzero(totals[1:] > info[1:] + 1e-9)
        if over.size:
            sub = over[0] + 1
            warnings.warn(
                f"coalition target exceeds the achievable sum-rate for member subset "
                f"{int(subsets[sub]):#x}: {totals[sub]:.6f} > {info[sub]:.6f}",
                stacklevel=3)
        if not self.outsiders and abs(totals[-1] - info[-1]) > 1e-9:
            warnings.warn(
                f"target allocation is outside the core: it sums to {totals[-1]:.6f}, "
                f"not v(N) = {info[-1]:.6f}; the protocol still runs, the achievable "
                "region is larger than the core", stacklevel=3)

    # -- per-run mechanics ----------------------------------------------

    def _sample_batch(self, bits: np.ndarray, ks: list[int], stream: _Stream, lane: slice
                      ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Draw the source realizations of runs ks[lane] into bits[:, lane].

        bits has shape (1+L, len(ks), B, N): x0, then each agent's bits,
        source-major so that each is one contiguous (runs*B, N) view; those
        views of the whole of bits are returned, x0 and one per agent.  Run
        k's bits come from the Philox stream keyed by (seed, _RUN_TAG, k)
        alone: stream is reset to that key, and 1+L blocks of B x N raw
        words are compared against _raw_threshold of q (x0) and p_1..p_L
        (each agent's flips), as random() < q, p would.
        """
        cfg = self.cfg
        limits = _raw_threshold(np.array([self.spec.q, *self.spec.p]))[:, None, None]
        drawn = bits[:, lane]
        keys = _stream_keys([(cfg.seed, _RUN_TAG, k) for k in ks[lane]]).tolist()
        for i, key in enumerate(keys):
            np.less(stream.reset(key).random_raw(drawn[:, i].shape), limits, out=drawn[:, i])
        drawn[1:] ^= drawn[0]
        return (bits[0].reshape(-1, cfg.n),
                {l: bits[1 + l].reshape(-1, cfg.n) for l in range(self.num_agents)})

    def _hash_keys(self, stream: _Stream, ks: list[int], agent: int) -> np.ndarray:
        """Keys of the streams that draw the listed runs' Toeplitz members
        for one 0-based agent, shape (runs, 2).

        Run k's member seed is the first raw word >> 2 of the stream keyed
        by (seed, _HASH_TAG, k << 8 | agent), which is what
        Generator.integers(0, 2**62) draws from it (Lemire's bounded draw
        over a power-of-two range never rejects); the seed keys the stream
        of the member's diagonal bits.
        """
        keys = _stream_keys([(self.cfg.seed, _HASH_TAG, (k << 8) | agent) for k in ks]).tolist()
        return _stream_keys([(int(stream.reset(key).random_raw()) >> 2,) for key in keys])

    def _reconcile(self, x0: np.ndarray, xs: dict[int, np.ndarray], runs: int):
        """Both reconciliation stages over stacked realizations.

        x0 and xs[l] (0-based agent l, every agent) have shape (runs*B, N).
        Returns (transcripts, estimates): one Transcript per run with the
        first-stage messages, the clean-up messages and the outsider
        disclosures, and each member's estimate of its sequence, shape
        (runs, N*B), keyed by 1-based member.

        The base station decodes each member once, from its observation x0
        through the member's BSC(plan.crossover) and with every index of
        plan.known given.  Those values are u on plan.known: on H the
        first-stage messages, on the suffix the clean-up message inverted
        by G_B (an involution).  So the decode is passed u with every other
        index zeroed; sc_decode reads given values only where they are
        given.  SC decisions before the first suffix index do not depend on
        later indices, so this is the estimate that decoding H alone and
        then overwriting the suffix from the clean-up round would give;
        when H and the suffix cover every index, the decode is a plain
        transform and builds no LLRs.
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
            final_msgs = polar_transform(u[:, :, plan.suffix].swapaxes(1, 2)).swapaxes(1, 2)
            xb = sc_decode(plan.known, (u * plan.known).reshape(runs * cfg.b, cfg.n),
                           x0, plan.crossover)
            estimates[agent] = xb.reshape(runs, cfg.n * cfg.b)
            final_msgs = final_msgs.reshape(runs, -1)
            for k, tr in enumerate(transcripts):
                tr.block_messages[agent] = block_msgs[k]
                tr.final_messages[agent] = final_msgs[k]
        return transcripts, estimates

    def simulate_runs(self, run_indices) -> dict:
        """Sample, reconcile and hash the listed runs.

        Returns {"transcripts": [...], "keys": [...]}, one Transcript and
        one KeyMaterial per listed run, in order; run indices must be
        nonnegative integers.  Every stream of run k is keyed by (seed,
        tag, k): the sample by _RUN_TAG, each member's Toeplitz matrix by
        _HASH_TAG.  All keys of the call come from vectorised SeedSequence
        passes (_stream_keys), and a lane's one Philox is reset to each key
        in turn.  Each run draws its own matrix: a member's diagonal bits
        for the call go into one stack, and a run's Transcript.hash_bits is
        its row of that stack.

        The call runs on two lanes, the calling thread and one helper
        thread, as two fork-joins (_beside).  In the first, each lane
        samples half of the runs with its own Philox.  The agent keys do
        not depend on reconciliation, so in the second the helper works
        through a shared job queue while the calling thread runs
        _reconcile, whose large numpy passes release the GIL, as do the
        raw draws and numpy's FFTs.  The queue starts with one job per
        member, which draws the member's stack and then queues one job per
        HASH_CHUNK-row block of it, hashed through ToeplitzHash.apply; the
        calling thread then takes whatever jobs are left.  Each run's sample and each row's key are fixed
        functions of their own streams, matrix and input, so the split
        changes no bit.  Each lane has one set of FFT buffers for the call.
        The base station's key is the agent's key wherever its estimate
        equals the agent's sequence; after the join, one more apply call
        hashes the runs where it differs, each with its own matrix.  A lane
        that fails empties the queue, so the other stops after its current
        job and the blocks that job queues; the calling thread's failure is
        raised first, else the helper's.
        """
        ks = [integer(k, "run index") for k in run_indices]
        if not ks:
            return {"transcripts": [], "keys": []}
        cfg, runs = self.cfg, len(ks)
        nb = cfg.n * cfg.b
        bits = np.empty((1 + self.num_agents, runs, cfg.b, cfg.n), np.uint8)
        half, streams = (runs + 1) // 2, (_Stream(), _Stream())
        x0, xs = _beside(lambda: self._sample_batch(bits, ks, streams[1], slice(half, runs)),
                         lambda: self._sample_batch(bits, ks, streams[0], slice(0, half)))
        inputs = [bits[1 + plan.index].reshape(runs, nb) for plan in self.plans]
        keys = [np.empty((runs, plan.key_len), np.uint8) for plan in self.plans]
        widest = max(plan.key_len for plan in self.plans)
        stacks = [None] * len(self.plans)
        jobs = deque((i, None) for i in range(len(self.plans)))  # (member, block start or None)

        def lane(stream, reconcile=False):
            try:
                done = self._reconcile(x0, xs, runs) if reconcile else None
                # the calling lane's set comes once _reconcile has freed its
                # temporaries; allocated before it, it raised Example 2's peak
                # RSS by 0.6 MB
                buffers = _hash_buffers(nb, widest)
                while True:
                    try:
                        i, start = jobs.popleft()
                    except IndexError:
                        return done, buffers
                    plan = self.plans[i]
                    if start is None:
                        diagonals = _diagonal_stack(stream, self._hash_keys(stream, ks, plan.index),
                                                    _diagonal_len(nb, plan.key_len))
                        stacks[i] = ToeplitzHash(diagonals, nb, plan.key_len)
                        jobs.extend((i, row) for row in range(0, runs, HASH_CHUNK))
                    else:
                        part = slice(start, start + HASH_CHUNK)
                        block = ToeplitzHash(stacks[i].bits[part], nb, plan.key_len)
                        keys[i][part] = block.apply(inputs[i][part], buffers)
            except BaseException:
                jobs.clear()
                raise

        (transcripts, estimates), buffers = _beside(lambda: lane(streams[1]),
                                                    lambda: lane(streams[0], reconcile=True))
        keymats = [KeyMaterial(keys={}, base_keys={}) for _ in ks]
        for plan, stack, x, agent_keys in zip(self.plans, stacks, inputs, keys):
            agent, est = plan.index + 1, estimates[plan.index + 1]
            base_keys = agent_keys.copy()
            differ = np.flatnonzero((est != x).any(axis=1))
            if differ.size:
                base_keys[differ] = ToeplitzHash(stack.bits[differ], nb,
                                                 plan.key_len).apply(est[differ], buffers)
            for tr, km, row, key, base in zip(transcripts, keymats, stack.bits, agent_keys,
                                              base_keys):
                tr.hash_bits[agent] = row
                km.keys[agent] = key
                km.base_keys[agent] = base
        return {"transcripts": transcripts, "keys": keymats}


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
    runs = integer(runs, "runs", positive=True)
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
        keymats = engine.simulate_runs(range(start, min(start + RUN_BATCH, runs)))["keys"]
        failed = np.zeros(len(keymats), bool)
        for agent in failures:
            keys = np.stack([km.keys[agent] for km in keymats])
            disagree = (keys != np.stack([km.base_keys[agent] for km in keymats])).any(axis=1)
            failures[agent] += int(np.count_nonzero(disagree))
            failed |= disagree
            pool_size += keys.size
            pool_ones += int(np.count_nonzero(keys))
        failed_runs += int(np.count_nonzero(failed))

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

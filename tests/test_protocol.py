import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from keyshare import (CapacityError, DegradedSourceSpec, ValidationError,
                      build_degraded_source, empirical_secrecy_check,
                      key_lengths_from_allocation, leakage_bound,
                      mutual_information, run_protocol, sample_hash,
                      shapley_from_game, value_function)
from keyshare import polar, protocol
from keyshare.polar import MAX_BLOCK_N, polar_transform, sc_decode
from keyshare.protocol import (DEFAULT_SEED, HASH_CHUNK, MAX_BLOCKS, MAX_DECODE_WORK, RUN_BATCH,
                               RUN_OVERHEAD_BITS, ProtocolConfig, ProtocolEngine,
                               ToeplitzHash, _balance_p_value, toeplitz_from_index)
from keyshare.suites import leftover_hash_bound_holds, toeplitz_matches_matrix


SMALL_SPEC = DegradedSourceSpec(q=0.40, p=(0.08, 0.12))


def _shapley_target(spec):
    return tuple(shapley_from_game(value_function(build_degraded_source(spec))))


def small_config(**overrides):
    defaults = dict(n=64, b=2, target=_shapley_target(SMALL_SPEC), epsilon=0.05, seed=99)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def sample_batch(engine, ks):
    """The engine's source realizations for runs ks (x0 and every agent's
    (runs*B, N) stack); the draws reset the generator to each run's key."""
    ks = list(ks)
    bits = np.empty((1 + engine.num_agents, len(ks), engine.cfg.b, engine.cfg.n), np.uint8)
    return engine._sample_batch(bits, ks, protocol._Stream(), slice(None))


# Reference streams: a fresh Generator(Philox(SeedSequence(...))) for every
# run's sample and for every run x agent hash seed and matrix.  Each stream
# the engine draws from a reset bit generator must equal its reference.
def reference_rng(seed_words):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_words)))


def reference_sample(spec, cfg, k):
    """Run k's x0 and per-agent blocks, each (B, N)."""
    rng = reference_rng((cfg.seed, protocol._RUN_TAG, k))
    x0 = (rng.random((cfg.b, cfg.n)) < spec.q).astype(np.uint8)
    return x0, [x0 ^ (rng.random((cfg.b, cfg.n)) < p).astype(np.uint8) for p in spec.p]


def reference_hasher_bits(hash_seed, n_in, r_out):
    """Diagonal bits of the Toeplitz member that hash_seed's stream draws."""
    if r_out == 0:
        return np.zeros(0, dtype=np.uint8)
    return reference_rng(hash_seed).integers(0, 2, n_in + r_out - 1, dtype=np.uint8)


def reference_hasher(cfg, k, agent, n_in, r_out):
    """Run k's Toeplitz member for 0-based agent."""
    hash_seed = int(reference_rng((cfg.seed, protocol._HASH_TAG, (k << 8) | agent))
                    .integers(0, 2 ** 62))
    return ToeplitzHash(reference_hasher_bits(hash_seed, n_in, r_out), n_in, r_out)


def reconcile_one(spec, cfg, x0, blocks):
    """The engine's reconciliation pass on one realization: x0 of shape
    (B, N), blocks mapping every 1-based agent to a same-shape array.
    Returns the Transcript and each 1-based member's N*B estimate."""
    xs = {l: blocks[l + 1] for l in range(spec.num_agents)}
    (transcript,), estimates = ProtocolEngine(spec, cfg)._reconcile(x0, xs, 1)
    return transcript, {agent: est[0] for agent, est in estimates.items()}


class TestKeyLengths:
    def test_zero_rate(self):
        assert key_lengths_from_allocation([0.0], 64, 2, 0.05)[0] == 0

    def test_margin_swallows_small_rate(self):
        assert key_lengths_from_allocation([0.04], 64, 2, 0.05)[0] == 0

    def test_floor_arithmetic(self):
        assert key_lengths_from_allocation([0.5], 16, 4, 0.25)[0] == 16

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            key_lengths_from_allocation([0.5], 16, 4, 0.0)

    def test_rejects_key_longer_than_input(self):
        # 1e20 bits per symbol used to overflow the int64 cast into a negative length
        for rate in (1.5, 1e20):
            with pytest.raises(ValidationError, match="longer"):
                key_lengths_from_allocation([0.1, rate], 16, 4, 0.05)

    def test_rejects_non_finite_rate(self):
        # a NaN rate used to become the length -2^63 behind a RuntimeWarning
        for rate in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="target rates"):
                key_lengths_from_allocation([rate, 0.3], 64, 2, 0.05)


class TestToeplitzHash:
    # a stack of k matrices hashes row i of a (k, n) batch with matrix i
    @staticmethod
    def _stack(seeds, n_in, r_out):
        singles = [sample_hash(seed, n_in, r_out) for seed in seeds]
        return singles, ToeplitzHash(np.stack([h.bits for h in singles]), n_in, r_out)

    def test_zero_output_length(self):
        h = sample_hash(7, 8, 0)
        assert h.apply(np.ones(8, dtype=np.uint8)).size == 0
        _, stack = self._stack(range(3), 8, 0)
        assert stack.bits.shape == (3, 0)
        assert stack.apply(np.ones((3, 8), dtype=np.uint8)).shape == (3, 0)

    def test_deterministic(self):
        x = np.arange(16, dtype=np.uint8) % 2
        assert np.array_equal(sample_hash(5, 16, 4).apply(x),
                              sample_hash(5, 16, 4).apply(x))

    # -1 used to raise numpy's ValueError, and 1.5 to hash with seed 1
    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample_hash(seed, 8, 3)

    def test_rejects_expansion(self):
        # -10 used to reach numpy's negative-dimension ValueError
        for r_out in (5, -1, -3, -4, -10):
            with pytest.raises(ValidationError, match="output length"):
                sample_hash(1, 4, r_out)

    def test_matches_explicit_matrix(self):
        h = toeplitz_from_index(0b10110, 4, 2)
        x = np.array([1, 0, 1, 1], dtype=np.uint8)
        manual = np.zeros(2, dtype=np.uint8)
        for i in range(2):
            for j in range(4):
                manual[i] ^= h.bits[i - j + 3] & x[j]
        assert np.array_equal(h.apply(x), manual)

    def test_batch_rows_independent(self):
        h = sample_hash(3, 8, 3)
        batch = np.random.default_rng(0).integers(0, 2, (4, 8), dtype=np.uint8)
        out = h.apply(batch)
        for i in range(4):
            assert np.array_equal(out[i], h.apply(batch[i]))

    def test_matches_matrix_at_production_size(self):
        check = toeplitz_matches_matrix()
        assert check.passed, check.witness

    def test_rounding_residue_guard(self, monkeypatch):
        from keyshare import ConsistencyError, protocol
        exact = protocol.irfft
        monkeypatch.setattr(protocol, "irfft", lambda *a, **k: exact(*a, **k) + 0.3)
        with pytest.raises(ConsistencyError, match="residue"):
            sample_hash(3, 16, 4).apply(np.ones(16, dtype=np.uint8))
        _, stack = self._stack(range(3), 16, 4)
        with pytest.raises(ConsistencyError, match="residue"):
            stack.apply(np.ones((3, 16), dtype=np.uint8))

    def test_import_loads_no_scipy(self):
        # scipy serves only the nucleolus LP route, which imports it lazily
        src = os.path.dirname(os.path.dirname(protocol.__file__))
        probe = ("import sys, keyshare; print(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "[]"

    def test_fast_len_is_smallest_5_smooth(self):
        smooth = np.sort([2 ** a * 3 ** b * 5 ** c
                          for a in range(14) for b in range(9) for c in range(7)])
        for n in range(1, 5001):
            assert protocol._fast_len(n) == smooth[np.searchsorted(smooth, n)]

    # n_in = 1; r_out = 1; r_out = n_in; n_in + r_out - 1 in {15, 60, 81}
    # (5-smooth) and in {7, 17, 33, 61, 82} (one above a 5-smooth number)
    @pytest.mark.parametrize("n_in, r_out", [(1, 1), (7, 1), (9, 9), (10, 6), (40, 21),
                                             (64, 18), (20, 14), (40, 22), (64, 19)])
    def test_wraparound_length_matches_matrix(self, monkeypatch, n_in, r_out):
        sizes = []
        exact = protocol.rfft

        def recording_rfft(a, n, *args, **kwargs):
            sizes.append(n)
            return exact(a, n, *args, **kwargs)

        monkeypatch.setattr(protocol, "rfft", recording_rfft)
        rng = np.random.default_rng(n_in * 100 + r_out)
        for bits in (rng.integers(0, 2, n_in + r_out - 1, dtype=np.uint8),
                     np.ones(n_in + r_out - 1, dtype=np.uint8)):
            h = ToeplitzHash(bits, n_in, r_out)
            x = np.vstack([rng.integers(0, 2, (4, n_in), dtype=np.uint8),
                           np.ones((1, n_in), dtype=np.uint8)])
            dense = np.array([[bits[i - j + n_in - 1] for j in range(n_in)]
                              for i in range(r_out)], dtype=np.int64)
            assert np.array_equal(h.apply(x), (x.astype(np.int64) @ dense.T) % 2)
        assert set(sizes) == {protocol._fast_len(n_in + r_out - 1)}

    def test_rejects_non_binary_bits(self):
        for bad in (2, 0.5):
            with pytest.raises(ValidationError, match="bits"):
                ToeplitzHash(np.array([1, bad, 0]), 2, 2)
            stack = np.ones((3, 9))
            stack[1, 4] = bad
            with pytest.raises(ValidationError, match="bits"):
                ToeplitzHash(stack, 8, 2)

    def test_rejects_non_binary_input(self):
        h = sample_hash(3, 4, 2)
        for bad in (2, 3, 0.5, float("nan")):
            with pytest.raises(ValidationError, match="input"):
                h.apply(np.array([1, 0, bad, 1]))

    @pytest.mark.parametrize("dtype, invalid", [(np.uint8, 2), (np.uint16, 256),
                                                (np.bool_, None), (np.int8, -1),
                                                (np.float64, 0.5)])
    def test_binary_check_per_dtype(self, dtype, invalid):
        # a bool array holds nothing but 0 and 1, so it has no invalid case
        bits = np.array([1, 0, 1, 1, 0], dtype=dtype)
        x = np.array([[1, 1, 0, 1], [0, 0, 1, 1]], dtype=dtype)
        h = ToeplitzHash(bits, 4, 2)
        assert np.array_equal(h.apply(x),
                              ToeplitzHash(bits.astype(np.uint8), 4, 2).apply(x.astype(np.uint8)))
        if invalid is not None:
            bits[3] = x[1, 0] = invalid
            with pytest.raises(ValidationError, match="bits"):
                ToeplitzHash(bits, 4, 2)
            with pytest.raises(ValidationError, match="input"):
                h.apply(x)

    # an agent's sequence and the base station's estimate share one matrix
    def test_zero_length_keys_empty(self):
        seq = np.ones(16, dtype=np.uint8)
        keys = sample_hash(123, 16, 0).apply(np.stack([seq, seq]))
        assert keys.shape == (2, 0)

    def test_identical_rows_agree(self):
        seq = np.random.default_rng(3).integers(0, 2, 64, dtype=np.uint8)
        key, base_key = sample_hash(5, 64, 10).apply(np.stack([seq, seq]))
        assert key.size == 10 and np.array_equal(key, base_key)

    def test_one_bit_corruption_changes_key(self):
        seq = np.random.default_rng(4).integers(0, 2, 256, dtype=np.uint8)
        corrupted = seq.copy()
        corrupted[17] ^= 1
        key, base_key = sample_hash(9, 256, 64).apply(np.stack([seq, corrupted]))
        assert not np.array_equal(key, base_key)

    @pytest.mark.parametrize("n_in, r_out", [(1, 1), (16, 5), (40, 21), (64, 64)])
    def test_stack_matches_single_hashers_and_matrix(self, n_in, r_out):
        singles, stack = self._stack(range(11, 16), n_in, r_out)
        x = np.random.default_rng(n_in + r_out).integers(0, 2, (5, n_in), dtype=np.uint8)
        out = stack.apply(x)
        assert out.shape == (5, r_out) and out.dtype == np.uint8
        for h, row, key in zip(singles, x, out):
            assert np.array_equal(key, h.apply(row))
            dense = np.array([[h.bits[i - j + n_in - 1] for j in range(n_in)]
                              for i in range(r_out)], dtype=np.int64)
            assert np.array_equal(key, (dense @ row) % 2)

    # a 0-D or 3-D input used to raise IndexError or a broadcasting
    # ValueError, and an empty batch a ValueError from the residue max
    @pytest.mark.parametrize("shape, r_out", [((), 2), ((2, 8, 3), 2), ((1, 1, 8), 2),
                                              ((0, 8), 2), ((0, 8), 0)],
                             ids=["0d", "3d", "3d-one-row", "empty", "empty-r0"])
    def test_input_must_be_one_or_two_dimensional(self, shape, r_out):
        h = sample_hash(3, 8, r_out)
        x = np.ones(shape, dtype=np.uint8)
        if len(shape) == 2:
            out = h.apply(x)
            assert out.shape == (0, r_out) and out.dtype == np.uint8
        else:
            with pytest.raises(ValidationError, match="hash input"):
                h.apply(x)

    # apply runs its FFTs HASH_CHUNK rows at a time: batches below, at and
    # past one and two blocks, and over several, equal hashing row by row
    @pytest.mark.parametrize("rows", [0, 1, HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 1,
                                      2 * HASH_CHUNK - 1, 2 * HASH_CHUNK, 2 * HASH_CHUNK + 1, 100])
    def test_blocked_batches_match_per_row_hashing(self, rows):
        n_in, r_out = 64, 19
        singles, stack = (self._stack(range(rows), n_in, r_out) if rows else
                          ([], ToeplitzHash(np.zeros((0, n_in + r_out - 1)), n_in, r_out)))
        x = np.random.default_rng(rows).integers(0, 2, (rows, n_in), dtype=np.uint8)
        one = sample_hash(rows, n_in, r_out)
        for hasher, per_row in ((one, [one.apply(row) for row in x]),
                                (stack, [h.apply(row) for h, row in zip(singles, x)])):
            out = hasher.apply(x)
            assert out.shape == (rows, r_out) and out.dtype == np.uint8
            assert np.array_equal(out, np.reshape(per_row, (rows, r_out)))

    def test_residue_guard_checks_every_block(self, monkeypatch):
        from keyshare import ConsistencyError
        exact, calls = protocol.irfft, []

        def second_block_off(*args, **kwargs):
            calls.append(1)
            out = exact(*args, **kwargs)
            return out + 0.3 if len(calls) == 2 else out

        monkeypatch.setattr(protocol, "irfft", second_block_off)
        rows = np.ones((HASH_CHUNK + 1, 16), dtype=np.uint8)
        _, stack = self._stack(range(HASH_CHUNK + 1), 16, 4)
        for hasher in (sample_hash(3, 16, 4), stack):
            calls.clear()
            with pytest.raises(ConsistencyError, match="residue"):
                hasher.apply(rows)
            assert len(calls) == 2

    def test_blocked_hash_peak_memory(self):
        # a warm Example 2 batch's stack: 100 runs of N*B = 4096 bits hashed
        # to 682; FFT temporaries over the whole stack peaked at 10.97 MiB,
        # one set of 16-row block buffers at about 2.1 MiB, of 8-row ones
        # at 1.07 MiB, and 8 rows paired into 4 FFT rows at 0.72 MiB
        rng = np.random.default_rng(8)
        stack = ToeplitzHash(rng.integers(0, 2, (100, 4096 + 682 - 1), dtype=np.uint8),
                             4096, 682)
        x = rng.integers(0, 2, (100, 4096), dtype=np.uint8)
        tracemalloc.start()
        try:
            stack.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20

    # one FFT row hashes two input rows while K^2 (n_in + 1) <= 2^41, K the
    # smallest power of two above 2 n_in: n_in = 4096 pairs, 8192 does not.
    # The reference is the exact direct convolution over the kept entries
    @pytest.mark.parametrize("n_in, r_out", [(4096, 1), (4096, 682), (4096, 4096),
                                             (8192, 682), (8192, 8192)])
    def test_paired_rows_match_direct_convolution(self, n_in, r_out):
        assert protocol._pairing(n_in)[0] == (2 if n_in == 4096 else 1)
        rng = np.random.default_rng(n_in + r_out)
        for rows in (2, HASH_CHUNK + 1):  # one pair; a block and a lone last row
            bits = rng.integers(0, 2, (rows, n_in + r_out - 1), dtype=np.uint8)
            bits[-1] = 1
            x = rng.integers(0, 2, (rows, n_in), dtype=np.uint8)
            x[-1] = 1
            for hasher, diagonals in ((ToeplitzHash(bits, n_in, r_out), bits),
                                      (ToeplitzHash(bits[0], n_in, r_out), bits[[0] * rows])):
                expected = [np.convolve(d.astype(float), row.astype(float), "valid") % 2
                            for d, row in zip(diagonals, x)]
                assert np.array_equal(hasher.apply(x), expected)

    def test_paired_residue_stays_small(self, monkeypatch):
        # the packed sums reach 2^40 at n_in = 4096; a residue near the 0.25
        # guard would mean the pairing rule admits too large an input
        exact, worst = protocol.irfft, []

        def recording(*args, **kwargs):
            out = exact(*args, **kwargs)
            worst.append(float(np.max(np.abs(out - np.rint(out)))))
            return out

        monkeypatch.setattr(protocol, "irfft", recording)
        rng = np.random.default_rng(41)
        n_in, r_out = 4096, 682
        bits = rng.integers(0, 2, (200, n_in + r_out - 1), dtype=np.uint8)
        ToeplitzHash(bits, n_in, r_out).apply(rng.integers(0, 2, (200, n_in), dtype=np.uint8))
        ToeplitzHash(np.ones_like(bits[:8]), n_in, r_out).apply(np.ones((8, n_in), np.uint8))
        assert len(worst) == 200 // HASH_CHUNK + 1
        assert max(worst) <= 1 / 64

    def test_stack_rejects_shape_mismatch(self):
        _, stack = self._stack(range(3), 8, 2)
        for rows in (np.ones((2, 8)), np.ones((4, 8)), np.ones(8)):
            with pytest.raises(ValidationError, match="stack of 3"):
                stack.apply(rows)
        with pytest.raises(ValidationError, match="9 bits"):
            ToeplitzHash(np.ones((3, 8)), 8, 2)


class TestLeakageBound:
    # floors are indexed by coalition bitmask; entry 0 is ignored
    def test_single_agent_values(self):
        assert leakage_bound([0], [0.0, 2.0]) == pytest.approx(0.5)
        assert leakage_bound([1], [0.0, 2.0]) == pytest.approx(2 ** -0.5)

    def test_vacuous_when_rate_exceeds_entropy(self):
        assert leakage_bound([10], [0.0, 2.0]) > 1.0

    def test_two_agent_sum(self):
        floors = [0.0, 3.0, 4.0, 6.0]
        expected = np.sqrt(2.0 ** (1 - 3) + 2.0 ** (1 - 4) + 2.0 ** (2 - 6))
        assert leakage_bound([1, 1], floors) == pytest.approx(expected, rel=1e-12)

    def test_missing_floor_rejected(self):
        for floors in ([0.0, 3.0], [0.0, 3.0, 4.0, 6.0, 7.0]):
            with pytest.raises(ValidationError, match="floors"):
                leakage_bound([1, 1], floors)

    # a NaN floor used to come back as a NaN bound
    def test_nan_input_rejected(self):
        with pytest.raises(ValidationError, match="floors"):
            leakage_bound([1, 2], [0.0, 1.0, 2.0, float("nan")])
        for lengths in ([float("nan"), 1], [1, float("inf")]):
            with pytest.raises(ValidationError, match="lengths"):
                leakage_bound(lengths, [0.0, 3.0, 4.0, 6.0])

    def test_negative_length_rejected(self):
        # a negative length used to come back as a bound (0.125 here)
        with pytest.raises(ValidationError, match="nonnegative, got -5.0 for agent 1"):
            leakage_bound([-5], [0, 1])
        with pytest.raises(ValidationError, match="for agent 2"):
            leakage_bound([1, -1e-9], [0.0, 3.0, 4.0, 6.0])

    def test_infinite_floors_leak_nothing(self):
        # a coalition with guessing probability 0 has floor +inf
        inf = float("inf")
        assert leakage_bound([1, 1], [0.0, inf, 4.0, inf]) == pytest.approx(2 ** -1.5)
        assert leakage_bound([3], [0.0, inf]) == 0.0


class TestReportedLeakageBound:
    # the report's bound uses floors[S] = (1 - eps) N B I(X_S ; X0 | X_outsiders)
    def test_grand_coalition_floors(self, example2_spec, example2_source, example2_game):
        cfg = ProtocolConfig(n=1024, b=4, epsilon=0.05,
                             target=tuple(shapley_from_game(example2_game)))
        rep = run_protocol(example2_spec, cfg, runs=1)
        lengths = [rep["per_agent"][agent]["r"] for agent in (1, 2, 3)]
        floors = [0.95 * 4096 * mutual_information(example2_source, mask << 1, 1) if mask else 0.0
                  for mask in range(8)]
        assert floors[0b111] == pytest.approx(1825.8, abs=0.1)
        assert rep["leakage_bound"] == pytest.approx(leakage_bound(lengths, floors), rel=1e-12)

    def test_coalition_floors_condition_on_outsiders(self, example2_spec, example2_source):
        cfg = ProtocolConfig(n=64, b=2, epsilon=0.1, target=(0.15, 0.0, 0.0),
                             coalition=0b001)
        rep = run_protocol(example2_spec, cfg, runs=1)
        cond = 0.9 * 128 * mutual_information(example2_source, 0b001 << 1, 1, 0b110 << 1)
        assert cond <= 0.9 * 128 * mutual_information(example2_source, 0b001 << 1, 1) + 1e-12
        bound = leakage_bound([rep["per_agent"][1]["r"]], [0.0, cond])
        assert rep["leakage_bound"] == pytest.approx(bound, rel=1e-12)


class TestReconcile:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_near_perfect_channels_decode_exactly(self):
        spec = DegradedSourceSpec(q=0.5, p=(1e-9, 1e-9))
        cfg = small_config(target=(0.4, 0.4))
        rng = np.random.default_rng(1)
        x0 = rng.integers(0, 2, (cfg.b, cfg.n), dtype=np.uint8)
        blocks = {1: x0.copy(), 2: x0.copy()}  # p ~ 0: agents see x0 itself
        transcript, estimates = reconcile_one(spec, cfg, x0, blocks)
        for agent in (1, 2):
            assert np.array_equal(estimates[agent], blocks[agent].reshape(-1))

    def test_engine_construction_decodes_nothing(self, monkeypatch):
        # the clean-up suffix comes from the profile's bounds alone
        def refuse(*args, **kwargs):
            raise AssertionError("sc_decode called while building the engine")

        monkeypatch.setattr(protocol, "sc_decode", refuse)
        ProtocolEngine(SMALL_SPEC, small_config())

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_single_decode_matches_two_decode_oracle(self, example2_spec):
        # agent 1 keeps an uncovered free prefix before a non-empty suffix,
        # and some runs disagree, so the SC decisions reach the estimates
        cfg = ProtocolConfig(n=512, b=4, target=(0.15, 0.1, 0.1), epsilon=0.05, seed=3,
                             onset_risk=0.02)
        engine = ProtocolEngine(example2_spec, cfg)
        runs, nb = 100, cfg.n * cfg.b
        x0, xs = sample_batch(engine, range(runs))
        transcripts, estimates = engine._reconcile(x0, xs, runs)
        wrong = 0
        for plan in engine.plans:
            agent, x = plan.index + 1, xs[plan.index]
            # the base station decodes H alone, then overwrites the suffix
            # with the clean-up round's values of the N*B transform
            u = polar_transform(x)
            xb = sc_decode(plan.h_mask, u, x0, plan.crossover)
            v = polar_transform(x.reshape(runs, nb))
            vb = polar_transform(xb.reshape(runs, nb))
            final = np.tile(np.isin(np.arange(cfg.n), plan.suffix), cfg.b)
            oracle = polar_transform(np.where(final, v, vb))
            assert np.array_equal(estimates[agent], oracle)
            for k, tr in enumerate(transcripts):
                assert np.array_equal(tr.final_messages[agent], v[k, final])
            wrong += int(np.any(oracle != x.reshape(runs, nb), axis=1).sum())
            if plan.index == 0:
                free = np.flatnonzero(~plan.h_mask)
                assert 0 < plan.suffix.size and plan.suffix[0] > free[0]
        assert wrong > 0

    def test_example2_decodes_nothing(self, monkeypatch, example2_spec, example2_game):
        # H and the clean-up suffix cover every index for all three agents,
        # so not even the root LLRs are built
        calls = []
        real = polar._boxplus

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        def refuse(theta):
            raise AssertionError("root LLRs built for a fully known decode")

        monkeypatch.setattr(polar, "_boxplus", counted)
        monkeypatch.setattr(polar, "_llr_constant", refuse)
        cfg = ProtocolConfig(n=1024, b=4, epsilon=0.05,
                             target=tuple(shapley_from_game(example2_game)))
        engine = ProtocolEngine(example2_spec, cfg)
        engine.simulate_runs([0])
        assert calls == []
        assert all(plan.known.all() for plan in engine.plans)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("case", ["shapley", "coalition", "uncovered"])
    def test_decode_reads_only_the_transcript(self, monkeypatch, example2_spec, example2_game,
                                              case):
        # the base station's given values are u on the known set: the
        # first-stage messages on H and G_B across the blocks of the
        # clean-up message on the suffix, zero elsewhere ("uncovered" leaves
        # agent 1 a free prefix outside both)
        cfg = {"shapley": lambda: ProtocolConfig(n=1024, b=4, epsilon=0.05,
                                                 target=tuple(shapley_from_game(example2_game))),
               "coalition": lambda: ProtocolConfig(seed=7, **TestGoldenReconcile.COALITION),
               "uncovered": lambda: ProtocolConfig(n=512, b=4, target=(0.15, 0.1, 0.1),
                                                   epsilon=0.05, seed=3, onset_risk=0.02),
               }[case]()
        given = []
        real = protocol.sc_decode

        def recorded(mask, values, y, crossover):
            given.append(values)
            return real(mask, values, y, crossover)

        monkeypatch.setattr(protocol, "sc_decode", recorded)
        engine = ProtocolEngine(example2_spec, cfg)
        runs = 5
        x0, xs = sample_batch(engine, range(runs))
        transcripts, _ = engine._reconcile(x0, xs, runs)
        assert len(given) == len(engine.plans)
        assert (case == "uncovered") == any(not plan.known.all() for plan in engine.plans)
        for plan, values in zip(engine.plans, given):
            agent = plan.index + 1
            u = polar_transform(xs[plan.index]).reshape(runs, cfg.b, cfg.n)
            values = values.reshape(runs, cfg.b, cfg.n)
            for k, tr in enumerate(transcripts):
                # block-major: G_B acts on each suffix index's column of B bits
                final = tr.final_messages[agent].reshape(cfg.b, plan.suffix.size)
                suffix_u = polar_transform(final.T).T
                assert np.array_equal(tr.block_messages[agent], u[k][:, plan.h_mask])
                assert np.array_equal(suffix_u, u[k][:, plan.suffix])
                heard = np.zeros((cfg.b, cfg.n), np.uint8)
                heard[:, plan.h_mask] = tr.block_messages[agent]
                heard[:, plan.suffix] = suffix_u
                assert np.array_equal(values[k], heard)

    def test_message_lengths_match_index_sets(self):
        cfg = small_config()
        engine = ProtocolEngine(SMALL_SPEC, cfg)
        res = engine.simulate_runs([0])
        tr = res["transcripts"][0]
        for plan in engine.plans:
            msgs = tr.block_messages[plan.index + 1]
            assert msgs.shape == (cfg.b, int(plan.h_mask.sum()))
            assert tr.final_messages[plan.index + 1].size == plan.suffix.size * cfg.b

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_decoding_failure_is_reported_not_raised(self):
        # saturate the channel: reconciliation must finish and report estimates
        spec = DegradedSourceSpec(q=0.5, p=(0.49, 0.49))
        cfg = small_config(target=(0.0, 0.0), onset_risk=1e9)  # empty clean-up round
        rng = np.random.default_rng(2)
        x0 = rng.integers(0, 2, (cfg.b, cfg.n), dtype=np.uint8)
        blocks = {a: x0 ^ (rng.random((cfg.b, cfg.n)) < 0.49).astype(np.uint8)
                  for a in (1, 2)}
        transcript, estimates = reconcile_one(spec, cfg, x0, blocks)
        assert set(estimates) == {1, 2}


class TestRunProtocol:
    def test_deterministic_replay(self):
        rep1 = run_protocol(SMALL_SPEC, small_config(), runs=4)
        rep2 = run_protocol(SMALL_SPEC, small_config(), runs=4)
        rep1.pop("runtime_sec")
        rep2.pop("runtime_sec")
        assert rep1 == rep2

    def test_transcript_bitexact_replay(self):
        engine = ProtocolEngine(SMALL_SPEC, small_config())
        one = engine.simulate_runs([2])
        batch = engine.simulate_runs([0, 1, 2, 3])
        assert one["transcripts"][0].to_bytes() == batch["transcripts"][2].to_bytes()
        for agent in (1, 2):
            assert np.array_equal(one["keys"][0].keys[agent],
                                  batch["keys"][2].keys[agent])

    def test_near_perfect_channel_never_fails(self):
        spec = DegradedSourceSpec(q=0.5, p=(1e-9, 1e-9))
        rep = run_protocol(spec, small_config(target=_shapley_target(spec)), runs=5)
        assert rep["failure_rate"] == 0.0

    def test_uninformative_source_yields_empty_keys(self):
        spec = DegradedSourceSpec(q=0.5, p=(0.5, 0.5))
        rep = run_protocol(spec, small_config(target=(0.0, 0.0)), runs=2)
        for agent in (1, 2):
            assert rep["per_agent"][agent]["r"] == 0
        assert rep["chi2_p"] == 1.0

    def test_key_rate_ceiling_for_core_targets(self):
        src = build_degraded_source(SMALL_SPEC)
        game = value_function(src)
        target = tuple(shapley_from_game(game))
        cfg = small_config(target=target)
        rep = run_protocol(SMALL_SPEC, cfg, runs=2)
        nb = cfg.n * cfg.b
        for mask in (0b01, 0b10, 0b11):
            r_sum = sum(rep["per_agent"][l + 1]["r"] for l in range(2) if mask >> l & 1)
            assert r_sum / nb <= mutual_information(src, mask << 1, 1) + 1e-9

    def test_coalition_mode_restricts_members(self):
        spec = DegradedSourceSpec(q=0.40, p=(0.08, 0.12, 0.15))
        cfg = ProtocolConfig(n=64, b=2, target=(0.2, 0.1, 0.0), epsilon=0.05,
                             coalition=0b011, seed=7)
        rep = run_protocol(spec, cfg, runs=2)
        assert set(rep["per_agent"]) == {1, 2}
        src = build_degraded_source(spec)
        cap = mutual_information(src, 0b011 << 1, 1, 0b100 << 1)
        assert rep["sum_rate"] <= cap + 1e-9

    def test_coalition_target_monotone(self):
        # growing the coalition can only grow the achievable target sum:
        # per-coalition targets come from the conditional game's values
        spec = DegradedSourceSpec(q=0.40, p=(0.08, 0.12, 0.15))
        src = build_degraded_source(spec)
        chains = [(0b001, 0b011), (0b011, 0b111), (0b010, 0b110)]
        for small, big in chains:
            outs_small = 0b111 & ~small
            outs_big = 0b111 & ~big
            v_small = mutual_information(src, small << 1, 1, outs_small << 1)
            v_big = mutual_information(src, big << 1, 1, outs_big << 1)
            assert v_small <= v_big + 1e-12
            r_small = key_lengths_from_allocation([v_small], 64, 2, 0.05)[0]
            r_big = key_lengths_from_allocation([v_big], 64, 2, 0.05)[0]
            assert r_small <= r_big

    def test_outside_core_target_warns(self):
        bad = small_config(target=(0.9, 0.9))
        with pytest.warns(UserWarning, match="core|sum-rate"):
            run_protocol(SMALL_SPEC, bad, runs=1)

    def test_shapley_target_needs_no_value_table(self, example2_spec, example2_game,
                                                 monkeypatch):
        # the core test reads the engine's own I(X_S ; X0) table
        from keyshare import game as game_mod

        def refuse(*args, **kwargs):
            raise AssertionError("the engine built a value table")

        target = tuple(shapley_from_game(example2_game))
        monkeypatch.setattr(game_mod.CoalitionGame, "__post_init__", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ProtocolEngine(example2_spec, ProtocolConfig(n=1024, b=4, epsilon=0.05, target=target))

    def test_rejects_zero_runs(self):
        with pytest.raises(ValidationError):
            run_protocol(SMALL_SPEC, small_config(), runs=0)

    def test_rejects_non_finite_target(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="target"):
                small_config(target=(bad, 0.05))


class TestSharedTable:
    def test_one_table_per_spec(self, monkeypatch, example2_spec):
        # the CLI's default target and the engine read the same spec
        from keyshare import source
        calls = []
        real = source._patterns

        def counted(p):
            calls.append(1)
            return real(p)

        monkeypatch.setattr(source, "_patterns", counted)
        spec = DegradedSourceSpec(q=example2_spec.q, p=example2_spec.p)
        target = tuple(shapley_from_game(value_function(build_degraded_source(spec))))
        run_protocol(spec, ProtocolConfig(n=64, b=2, target=target, epsilon=0.05), runs=1)
        assert len(calls) == 1


class TestStreamedRuns:
    # SHA-256 of the reports without runtime_sec, recorded while run_protocol
    # still held every run until it returned; the Example-2 one re-recorded
    # when the product-form entropy table moved its target rates by at most
    # 3e-16 and leakage_bound by 3e-13 relative (transcripts and keys
    # unchanged).  Both re-recorded when the calibration pre-run was removed,
    # from the earlier reports minus their "calibration" block and
    # config.calibration_runs entry, which hash to these values
    EXAMPLE2_DIGEST = "f64e5e746a25b0f59a9b792075719e322f9afc4d209a5303c473c9918d122594"
    COALITION_DIGEST = "729bfd0161f6f29781049e1d67515d8208fb9eb07e28627d537be52977002b60"

    @staticmethod
    def _digest(report):
        report = dict(report)
        report.pop("runtime_sec")
        return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()

    def test_reports_match_unbatched_digests(self, example2_spec, example2_game):
        cfg = ProtocolConfig(n=1024, b=4, epsilon=0.05,
                             target=tuple(shapley_from_game(example2_game)))
        assert self._digest(run_protocol(example2_spec, cfg, runs=100)) == self.EXAMPLE2_DIGEST
        cfg = small_config(coalition=0b001, target=(0.2, 0.0))
        assert self._digest(run_protocol(SMALL_SPEC, cfg, runs=250)) == self.COALITION_DIGEST

    def test_runs_go_in_consecutive_batches(self, monkeypatch):
        assert RUN_BATCH == 100
        seen, simulate = [], ProtocolEngine.simulate_runs

        def record(engine, run_indices):
            seen.append(list(run_indices))
            return simulate(engine, run_indices)

        monkeypatch.setattr(ProtocolEngine, "simulate_runs", record)
        run_protocol(SMALL_SPEC, small_config(coalition=0b001, target=(0.2, 0.0)), runs=250)
        assert seen == [list(range(0, 100)), list(range(100, 200)), list(range(200, 250))]


class TestStackedHashing:
    # onset_risk 0.02 leaves free indices uncovered, so some estimates differ
    DISAGREE = dict(n=512, b=4, target=(0.15, 0.1, 0.1), epsilon=0.05, onset_risk=0.02,
                    seed=3)
    RUNS = 200

    @pytest.fixture(scope="class")
    def disagreeing(self, example2_spec):
        with pytest.warns(UserWarning, match="core"):
            engine = ProtocolEngine(example2_spec, ProtocolConfig(**self.DISAGREE))
        ks = range(self.RUNS)
        x0, xs = sample_batch(engine, ks)
        _, estimates = engine._reconcile(x0, xs, self.RUNS)
        return engine, xs, estimates, engine.simulate_runs(ks)

    def test_base_keys_hash_the_estimates(self, disagreeing):
        engine, xs, estimates, res = disagreeing
        nb = engine.cfg.n * engine.cfg.b
        differ = 0
        for plan in engine.plans:
            agent = plan.index + 1
            x = xs[plan.index].reshape(self.RUNS, nb)
            for k, km in enumerate(res["keys"]):
                hasher = reference_hasher(engine.cfg, k, plan.index, nb, plan.key_len)
                assert np.array_equal(res["transcripts"][k].hash_bits[agent], hasher.bits)
                assert np.array_equal(km.keys[agent], hasher.apply(x[k]))
                assert np.array_equal(km.base_keys[agent], hasher.apply(estimates[agent][k]))
                differ += not np.array_equal(x[k], estimates[agent][k])
        assert differ == 23
        assert sum(not km.agree(a) for km in res["keys"] for a in km.keys) == 23

    def test_hash_calls_per_chunk(self, monkeypatch, disagreeing):
        # every agent key goes through apply in blocks of HASH_CHUNK rows,
        # one hash object per block beside each member's stack, and one more
        # apply call per member hashes the runs whose estimate differs
        engine = disagreeing[0]
        calls, apply = [], ToeplitzHash.apply
        builds, init = [], ToeplitzHash.__init__

        def counted(hasher, x, *args):
            calls.append(len(x))
            return apply(hasher, x, *args)

        def counted_init(hasher, *args):
            builds.append(1)
            init(hasher, *args)

        monkeypatch.setattr(ToeplitzHash, "apply", counted)
        monkeypatch.setattr(ToeplitzHash, "__init__", counted_init)
        engine.simulate_runs(range(self.RUNS))
        blocks = len(engine.plans) * -(-self.RUNS // HASH_CHUNK)
        assert blocks < len(calls) <= blocks + len(engine.plans)
        assert len(builds) == len(engine.plans) + len(calls)
        assert sum(calls) == len(engine.plans) * self.RUNS + 23

    def test_streams_need_no_object_per_run(self, monkeypatch, disagreeing):
        # every stream of the call is a reset of one bit generator; building
        # a Generator, Philox and SeedSequence per stream took 1400 here
        engine = disagreeing[0]
        made = {}

        def counted(name):
            real = getattr(np.random, name)

            def build(*args, **kwargs):
                made[name] = made.get(name, 0) + 1
                return real(*args, **kwargs)
            return build

        for name in ("SeedSequence", "Philox", "Generator"):
            monkeypatch.setattr(protocol.np.random, name, counted(name))
        engine.simulate_runs(range(self.RUNS))
        per_call = dict(made)
        made.clear()
        engine.simulate_runs([0])
        assert made == per_call and sum(per_call.values()) <= 3


class TestHashHelper:
    # simulate_runs forks one helper thread twice: both lanes sample, then
    # the helper draws and hashes agent keys while the calling thread
    # reconciles; a failure on either side must surface, and leave no
    # thread behind

    def test_helper_hash_failure_raises(self, monkeypatch):
        from keyshare import ConsistencyError
        exact, helper_ran = protocol.irfft, threading.Event()
        reconcile = ProtocolEngine._reconcile

        def off_on_helper(*args, **kwargs):
            out = exact(*args, **kwargs)
            if threading.current_thread() is threading.main_thread():
                return out
            helper_ran.set()
            return out + 0.5

        def after_helper(engine, *args):
            # the helper takes the first block before this thread decodes
            assert helper_ran.wait(30)
            return reconcile(engine, *args)

        monkeypatch.setattr(protocol, "irfft", off_on_helper)
        monkeypatch.setattr(ProtocolEngine, "_reconcile", after_helper)
        before = threading.active_count()
        with pytest.raises(ConsistencyError, match="residue"):
            run_protocol(SMALL_SPEC, small_config(), runs=20)
        assert helper_ran.is_set()
        assert threading.active_count() == before

    def test_reconcile_failure_propagates(self, monkeypatch):
        engine = ProtocolEngine(SMALL_SPEC, small_config())

        def broken(*args):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(engine, "_reconcile", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="decode failed"):
            engine.simulate_runs(range(20))
        assert threading.active_count() == before

    def test_golden_replay_with_frequent_switches(self, example2_spec, example2_game):
        # the GIL changes hands every microsecond, so the lanes interleave
        # at a fine grain; the keys must still hash to the pinned digest
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            TestGoldenReplay().test_example2_transcripts_and_keys(example2_spec, example2_game)
        finally:
            sys.setswitchinterval(interval)

    # each lane samples half of the runs, and the helper is joined before
    # the hashing starts; the failing lane waits until the other has
    # sampled, so the other is at the join or about to be, and the failure
    # must still surface
    @pytest.mark.parametrize("failing", ["calling", "helper"])
    def test_sampling_failure_on_either_lane(self, monkeypatch, failing):
        engine = ProtocolEngine(SMALL_SPEC, small_config())
        sample, other_sampled = ProtocolEngine._sample_batch, threading.Event()

        def one_lane_fails(engine, bits, ks, stream, lane):
            if (lane.start == 0) == (failing == "calling"):
                assert other_sampled.wait(30)
                raise RuntimeError(f"{failing} lane failed")
            out = sample(engine, bits, ks, stream, lane)
            other_sampled.set()
            return out

        monkeypatch.setattr(ProtocolEngine, "_sample_batch", one_lane_fails)
        before, raised = threading.active_count(), []

        def call():
            try:
                engine.simulate_runs(range(20))
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)  # a hang must not outlive the test
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert [str(exc) for exc in raised] == [f"{failing} lane failed"]
        assert threading.active_count() == before

    # the helper starts on the jobs that draw the members' matrices while
    # the calling thread reconciles; a draw that fails there must surface,
    # and the calling thread must not wait for blocks that never come
    @pytest.mark.parametrize("step", ["_hash_keys", "_diagonal_stack"])
    def test_draw_failure_on_the_helper(self, monkeypatch, step):
        engine = ProtocolEngine(SMALL_SPEC, small_config())
        owner = ProtocolEngine if step == "_hash_keys" else protocol
        draw, reconcile, failing = getattr(owner, step), ProtocolEngine._reconcile, threading.Event()

        def fails_on_helper(*args):
            if threading.current_thread() is caller:
                return draw(*args)
            failing.set()
            raise RuntimeError(f"{step} failed")

        def after_failure(engine, *args):
            assert failing.wait(30)
            return reconcile(engine, *args)

        monkeypatch.setattr(owner, step, fails_on_helper)
        monkeypatch.setattr(ProtocolEngine, "_reconcile", after_failure)
        before, raised = threading.active_count(), []

        def call():
            try:
                engine.simulate_runs(range(20))
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)  # a hang must not outlive the test
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert [str(exc) for exc in raised] == [f"{step} failed"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("runs", [1, HASH_CHUNK - 1, HASH_CHUNK, 2 * HASH_CHUNK + 1, 100])
    def test_batches_match_single_runs(self, runs):
        # onset_risk 0.02 makes some estimates differ, so base keys are hashed too
        engine = ProtocolEngine(SMALL_SPEC, small_config(onset_risk=0.02))
        batch = engine.simulate_runs(range(runs))["keys"]
        for k, km in enumerate(batch):
            (one,) = engine.simulate_runs([k])["keys"]
            assert sorted(one.keys) == sorted(km.keys)
            for agent in km.keys:
                assert np.array_equal(one.keys[agent], km.keys[agent])
                assert np.array_equal(one.base_keys[agent], km.base_keys[agent])
        if runs == 100:
            assert sum(not km.agree(agent) for km in batch for agent in km.keys) == 7


class TestConfigValidation:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            small_config(seed=-1)

    # 1.5 used to pass and fail at the first run with numpy's TypeError
    @pytest.mark.parametrize("seed", [1.5, "7"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            small_config(seed=seed)
        assert small_config(seed=np.int64(7)).seed == 7

    # each used to raise a bare TypeError, fail later, or run as 1
    @pytest.mark.parametrize("field, value", [
        ("n", 64.0), ("n", "64"), ("n", True), ("b", 2.0), ("b", True),
        ("seed", True), ("coalition", 1.5), ("coalition", True), ("coalition", "1"),
    ])
    def test_rejects_non_integer_fields(self, field, value):
        name = {"n": "N", "b": "B"}.get(field, field)
        with pytest.raises(ValidationError, match=name):
            small_config(**{field: value})

    @pytest.mark.parametrize("runs", [1.5, True, "3", -1])
    def test_rejects_non_integer_runs(self, runs):
        with pytest.raises(ValidationError, match="runs"):
            run_protocol(SMALL_SPEC, small_config(), runs=runs)

    def test_integer_fields_become_ints(self):
        cfg = small_config(n=np.int64(64), b=np.int32(2), coalition=np.int64(1))
        assert (cfg.n, cfg.b, cfg.coalition) == (64, 2, 1)
        assert all(type(v) is int for v in (cfg.n, cfg.b, cfg.coalition))

    def test_rejects_bad_onset_risk(self):
        for bad in (float("nan"), float("inf"), -1e-4):
            with pytest.raises(ValidationError, match="onset_risk"):
                small_config(onset_risk=bad)
        assert small_config(onset_risk=1e9).onset_risk == 1e9


class TestStreams:
    # every stream is Philox keyed by SeedSequence((seed, tag, k)); the
    # engine derives the keys in vectorised passes and resets one bit
    # generator to each, and must draw what the per-stream Generators drew
    def test_keys_match_seed_sequence(self):
        rng = np.random.default_rng(17)
        tuples = [(0,), (2 ** 32 - 1,), (2 ** 32,), (2 ** 64 + 5,), (0, 0, 0, 0, 0),
                  (2 ** 64 + 5, 0x48, (2 ** 24 + 1) << 8 | 2), (1, 2 ** 40, 3, 4, 5, 6, 7),
                  (DEFAULT_SEED, 0x52, 0)]
        for _ in range(300):
            tuples.append(tuple(int(v) >> int(rng.integers(0, 63))
                                for v in rng.integers(0, 2 ** 63, rng.integers(1, 8))))
        keys = protocol._stream_keys(tuples)
        assert keys.shape == (len(tuples), 2) and keys.dtype == np.uint64
        for words, key in zip(tuples, keys):
            assert np.array_equal(key, np.random.SeedSequence(words).generate_state(2, np.uint64))
        assert protocol._stream_keys([]).shape == (0, 2)

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", None])
    def test_keys_reject_non_integer_entries(self, bad):
        # uint32 arrays would wrap a negative entry silently
        with pytest.raises(ValidationError, match="stream key entry"):
            protocol._stream_keys([(1, 2), (3, bad)])

    @pytest.mark.parametrize("words", [(5,), (2 ** 64 + 5, 0x48, 2 ** 32 + 7)])
    def test_raw_draws_match_generator(self, words):
        (key,) = protocol._stream_keys([words])
        stream = protocol._Stream()
        for m in (1, 7, 8, 9, 4777):
            expected = reference_rng(words).integers(0, 2, m, dtype=np.uint8)
            assert np.array_equal(protocol._diagonal_stack(stream, key[None], m)[0], expected)
        seed = int(stream.reset(key).random_raw()) >> 2
        assert seed == int(reference_rng(words).integers(0, 2 ** 62))

    # random() is (raw >> 11) 2^-53, so the sample compares raw words with
    # _raw_threshold(p); p 2^53 is an integer at the first three edges, and
    # not at the rest (2^-60 and the least subnormal round up to 1)
    @pytest.mark.parametrize("p", [2.0 ** -53, 0.5, 1 - 2.0 ** -53, 0.3, 0.08,
                                   2.0 ** -60, 5e-324])
    def test_raw_threshold_matches_the_float_draw(self, p):
        t = int(protocol._raw_threshold(np.array([p]))[0])
        edges = {0, 1, 2 ** 11 - 1, 2 ** 11, 2 ** 64 - 1}
        edges |= {t + d for d in (-2 ** 11 - 1, -2 ** 11, -1, 0, 1, 2 ** 11 - 1, 2 ** 11)}
        raw = np.array(sorted(e for e in edges if 0 <= e < 2 ** 64), dtype=np.uint64)
        drawn = (raw >> np.uint64(11)) * 2.0 ** -53
        assert np.array_equal(raw < np.uint64(t), drawn < p)
        assert t < 2 ** 64 and np.any(raw < np.uint64(t)) and np.any(raw >= np.uint64(t))

    def test_random_reads_the_raw_words(self):
        (key,) = protocol._stream_keys([(DEFAULT_SEED, protocol._RUN_TAG, 7)])
        raw = protocol._Stream().reset(key).random_raw(4096)
        drawn = np.random.Generator(protocol._Stream().reset(key)).random(4096)
        assert np.array_equal(drawn, (raw >> np.uint64(11)) * 2.0 ** -53)

    def test_runs_match_per_run_reference(self):
        # a seed above 2^64 gives the run streams more than 4 entropy words,
        # and run 2^24+1 a 2-word hash index (k << 8 | agent)
        cfg = small_config(seed=2 ** 64 + 5)
        engine = ProtocolEngine(SMALL_SPEC, cfg)
        ks, nb = [0, 1, 2 ** 24 + 1], cfg.n * cfg.b
        x0, xs = sample_batch(engine, ks)
        res = engine.simulate_runs(ks)
        _, estimates = engine._reconcile(x0, xs, len(ks))
        for i, k in enumerate(ks):
            ref_x0, ref_blocks = reference_sample(SMALL_SPEC, cfg, k)
            rows = slice(i * cfg.b, (i + 1) * cfg.b)
            assert np.array_equal(x0[rows], ref_x0)
            for l, block in enumerate(ref_blocks):
                assert np.array_equal(xs[l][rows], block)
            km = res["keys"][i]
            for plan in engine.plans:
                agent = plan.index + 1
                hasher = reference_hasher(cfg, k, plan.index, nb, plan.key_len)
                assert plan.key_len > 0
                assert np.array_equal(res["transcripts"][i].hash_bits[agent], hasher.bits)
                assert np.array_equal(km.keys[agent],
                                      hasher.apply(ref_blocks[plan.index].reshape(-1)))
                assert np.array_equal(km.base_keys[agent], hasher.apply(estimates[agent][i]))

    def test_sample_hash_matches_reference(self):
        for seed, n_in, r_out in ((3, 8, 3), (2 ** 62 - 1, 64, 10), (2 ** 64 + 5, 16, 0)):
            assert np.array_equal(sample_hash(seed, n_in, r_out).bits,
                                  reference_hasher_bits(seed, n_in, r_out))

    # -1 used to raise numpy's ValueError, 1.5 a TypeError, and [] a
    # ValueError from np.concatenate
    @pytest.mark.parametrize("ks", [[-1], [1.5], [0, -3], ["2"], [None]])
    def test_rejects_bad_run_index(self, ks):
        engine = ProtocolEngine(SMALL_SPEC, small_config())
        with pytest.raises(ValidationError, match="run index"):
            engine.simulate_runs(ks)

    def test_no_runs(self):
        engine = ProtocolEngine(SMALL_SPEC, small_config())
        assert engine.simulate_runs([]) == {"transcripts": [], "keys": []}
        assert len(engine.simulate_runs(np.arange(2))["keys"]) == 2


class TestCapacity:
    @pytest.fixture(autouse=True)
    def no_profiles(self, monkeypatch):
        def refuse(theta, n):
            raise AssertionError("profile construction started before the guard")

        monkeypatch.setattr(protocol, "construct_profile", refuse)

    def test_block_length_guard(self):
        with pytest.raises(CapacityError, match=str(MAX_BLOCK_N)):
            small_config(n=2 * MAX_BLOCK_N, b=1)

    def test_block_count_guard(self):
        # block ids are u16 in Transcript.to_bytes, with 0xFFFE and 0xFFFF reserved
        with pytest.raises(CapacityError, match=str(MAX_BLOCKS)):
            small_config(n=1, b=2 * MAX_BLOCKS)
        assert small_config(n=1, b=MAX_BLOCKS).b == MAX_BLOCKS

    def test_run_count_guard(self):
        # 2 members x runs x max(B*N = 128, 1024)
        runs = MAX_DECODE_WORK // (2 * RUN_OVERHEAD_BITS)
        with pytest.raises(CapacityError, match=str(MAX_DECODE_WORK)):
            run_protocol(SMALL_SPEC, small_config(), runs=runs + 1)
        with pytest.raises(AssertionError, match="before the guard"):
            run_protocol(SMALL_SPEC, small_config(), runs=runs)



class TestBalancePValue:
    @staticmethod
    def _assert_matches_scipy(size, ones):
        from scipy.stats import chisquare
        ones = np.asarray(ones, dtype=np.int64)
        ref = chisquare(np.stack([size - ones, ones]).astype(float), axis=0).pvalue
        got = np.array([_balance_p_value(size, int(k)) for k in ones])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_every_count_up_to_200_bits(self):
        for size in range(1, 201):
            self._assert_matches_scipy(size, np.arange(size + 1))

    def test_large_pools(self):
        for size in (4096 * 300, 10 ** 9, 2 ** 40):
            sd = size ** 0.5 / 2
            self._assert_matches_scipy(size, [size // 2 + int(k * sd)
                                              for k in (-8, -3, -1, 0, 0.5, 2, 7)])

    def test_empty_pool(self):
        assert _balance_p_value(0, 0) == 1.0


class TestGoldenReplay:
    # digest recorded from the direct-convolution hash before the FFT rewrite
    DIGEST = "bfcbfdfaf1fe0e1ddac99a793b363a23638cd6a69eb04e08d83b0629782bad7f"

    def test_example2_transcripts_and_keys(self, example2_spec, example2_game):
        from keyshare import shapley_from_game
        cfg = ProtocolConfig(n=1024, b=4, target=tuple(shapley_from_game(example2_game)),
                             epsilon=0.05, seed=0xC0A117)
        res = ProtocolEngine(example2_spec, cfg).simulate_runs([0, 1])
        digest = hashlib.sha256()
        for tr, km in zip(res["transcripts"], res["keys"]):
            digest.update(tr.to_bytes())
            for agent in sorted(km.keys):
                assert km.keys[agent].dtype == km.base_keys[agent].dtype == np.uint8
                digest.update(km.keys[agent].tobytes())
                digest.update(km.base_keys[agent].tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestGoldenReconcile:
    # COALITION_DIGEST recorded before simulate_runs and a one-realization
    # entry point shared the engine's pass, which RECONCILE_DIGEST now pins
    # directly.  RECONCILE_DIGEST covers the transcripts and full estimates
    # only: re-recorded when the base station began decoding once with the
    # clean-up suffix known, which changed the per-block estimates on suffix
    # positions; the two-decode code hashes these same realizations to this
    # value too
    RECONCILE_DIGEST = "4d20d461527875da74eced79bcb0b2b3059147220303d6c1fe82c76f9cc8a0b0"
    COALITION_DIGEST = "fe956cc9ba2bf5bbe5267f73070838a6fce06c007b8392e0949bafb2c905b714"
    COALITION = dict(n=64, b=2, target=(0.1, 0.05, 0.0), epsilon=0.05, coalition=0b011)

    def test_reconcile_example2_realizations(self, example2_spec, example2_game):
        from keyshare import shapley_from_game
        configs = [(ProtocolConfig(n=1024, b=4, epsilon=0.05,
                                   target=tuple(shapley_from_game(example2_game))), 3),
                   (ProtocolConfig(**self.COALITION), 2)]
        rng = np.random.default_rng(5)
        digest = hashlib.sha256()
        for cfg, count in configs:
            for _ in range(count):
                x0 = (rng.random((cfg.b, cfg.n)) < example2_spec.q).astype(np.uint8)
                blocks = {l + 1: x0 ^ (rng.random((cfg.b, cfg.n)) < p).astype(np.uint8)
                          for l, p in enumerate(example2_spec.p)}
                transcript, estimates = reconcile_one(example2_spec, cfg, x0, blocks)
                assert sorted(estimates) == sorted(transcript.block_messages)
                digest.update(transcript.to_bytes())
                for agent in sorted(estimates):
                    digest.update(estimates[agent].tobytes())
        assert digest.hexdigest() == self.RECONCILE_DIGEST

    def test_coalition_mode_runs(self, example2_spec):
        cfg = ProtocolConfig(seed=7, **self.COALITION)
        res = ProtocolEngine(example2_spec, cfg).simulate_runs(range(20))
        digest = hashlib.sha256()
        for tr, km in zip(res["transcripts"], res["keys"]):
            assert sorted(tr.disclosures) == [3]
            assert tr.disclosures[3].shape == (cfg.b, cfg.n)
            digest.update(tr.to_bytes())
            for agent in sorted(km.keys):
                digest.update(km.keys[agent].tobytes())
                digest.update(km.base_keys[agent].tobytes())
        assert digest.hexdigest() == self.COALITION_DIGEST


class TestTranscriptDump:
    def test_frame_structure_round_trip(self):
        engine = ProtocolEngine(SMALL_SPEC, small_config())
        tr = engine.simulate_runs([0])["transcripts"][0]
        blob = tr.to_bytes()
        # walk the frames: u32 bit length, u8 agent, u16 block, payload
        offset, frames = 0, []
        while offset < len(blob):
            nbits = int.from_bytes(blob[offset:offset + 4], "little")
            agent = blob[offset + 4]
            block = int.from_bytes(blob[offset + 5:offset + 7], "little")
            nbytes = (nbits + 7) // 8
            payload = np.unpackbits(
                np.frombuffer(blob[offset + 7:offset + 7 + nbytes], dtype=np.uint8),
                bitorder="little")[:nbits]
            frames.append((agent, block, payload))
            offset += 7 + nbytes
        assert offset == len(blob)
        first_stage = [f for f in frames if f[1] < 0xFFFE]
        assert len(first_stage) == 2 * small_config().b
        msgs = tr.block_messages[1]
        got = [f for f in frames if f[0] == 1 and f[1] == 0][0]
        assert np.array_equal(got[2], msgs[0])


class TestEmpiricalSecrecy:
    def test_zero_rate_zero_distance(self):
        res = empirical_secrecy_check(0.5, (0.1,), 2, (0,))
        assert res.distance == pytest.approx(0.0, abs=1e-12)
        assert res.holds

    def test_single_agent_cell(self):
        result = leftover_hash_bound_holds([(0.4, (0.2,), 4, (1,))])
        assert result.passed, result.witness

    def test_capacity_guard(self):
        with pytest.raises(Exception):
            empirical_secrecy_check(0.4, (0.1,), 16, (1,))

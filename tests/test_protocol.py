import numpy as np
import pytest

from keyshare import (DegradedSourceSpec, ValidationError,
                      build_degraded_source, conditional_mi,
                      empirical_secrecy_check, key_lengths_from_allocation,
                      leakage_bound, min_entropy_floor, privacy_amplify,
                      reconcile, run_protocol, sample_hash,
                      toeplitz_collision_rate, value_function)
from keyshare.protocol import (ProtocolConfig, ProtocolEngine,
                               toeplitz_from_index)


SMALL_SPEC = DegradedSourceSpec(q=0.40, p=(0.08, 0.12))


def _shapley_target(spec):
    from keyshare import shapley_from_game
    return tuple(shapley_from_game(value_function(build_degraded_source(spec))))


def small_config(**overrides):
    defaults = dict(n=64, b=2, target=_shapley_target(SMALL_SPEC), epsilon=0.05,
                    calibration_runs=10, seed=99)
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


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


class TestToeplitzHash:
    def test_zero_output_length(self):
        h = sample_hash(7, 8, 0)
        assert h.apply(np.ones(8, dtype=np.uint8)).size == 0

    def test_deterministic(self):
        x = np.arange(16, dtype=np.uint8) % 2
        assert np.array_equal(sample_hash(5, 16, 4).apply(x),
                              sample_hash(5, 16, 4).apply(x))

    def test_rejects_expansion(self):
        with pytest.raises(ValidationError):
            sample_hash(1, 4, 5)

    def test_matches_explicit_matrix(self):
        h = toeplitz_from_index(0b10110, 4, 2)
        x = np.array([1, 0, 1, 1], dtype=np.uint8)
        manual = np.zeros(2, dtype=np.uint8)
        for i in range(2):
            for j in range(4):
                manual[i] ^= h.bits[i - j + 3] & x[j]
        assert np.array_equal(h.apply(x), manual)

    def test_two_universal_by_brute_force(self):
        assert toeplitz_collision_rate(4, 2) <= 0.25 + 1e-12

    def test_batch_rows_independent(self):
        h = sample_hash(3, 8, 3)
        batch = np.random.default_rng(0).integers(0, 2, (4, 8), dtype=np.uint8)
        out = h.apply(batch)
        for i in range(4):
            assert np.array_equal(out[i], h.apply(batch[i]))


class TestLeakageBound:
    def test_single_agent_values(self):
        assert leakage_bound([0], {1: 2.0}) == pytest.approx(0.5)
        assert leakage_bound([1], {1: 2.0}) == pytest.approx(2 ** -0.5)

    def test_vacuous_when_rate_exceeds_entropy(self):
        assert leakage_bound([10], {1: 2.0}) > 1.0

    def test_two_agent_sum(self):
        floors = {1: 3.0, 2: 4.0, 3: 6.0}
        expected = np.sqrt(2.0 ** (1 - 3) + 2.0 ** (1 - 4) + 2.0 ** (2 - 6))
        assert leakage_bound([1, 1], floors) == pytest.approx(expected, rel=1e-12)

    def test_missing_floor_rejected(self):
        with pytest.raises(ValidationError):
            leakage_bound([1, 1], {1: 3.0})


class TestMinEntropyFloor:
    def test_full_margin_gives_zero(self, example2_source):
        assert min_entropy_floor(8, 2, 1.0, example2_source, 0b111) == 0.0

    def test_desk_scale_arithmetic(self, example2_source, example2_game):
        floor = min_entropy_floor(1024, 4, 0.05, example2_source, 0b111)
        assert floor == pytest.approx(0.95 * 4096 * example2_game.grand_value(), abs=1e-6)
        assert floor == pytest.approx(1825.8, abs=0.1)

    def test_conditioning_reduces_floor(self, example2_source):
        plain = min_entropy_floor(64, 2, 0.1, example2_source, 0b001)
        cond = min_entropy_floor(64, 2, 0.1, example2_source, 0b001, cond_mask=0b110)
        assert cond <= plain + 1e-12

    def test_empty_coalition_rejected(self, example2_source):
        with pytest.raises(ValidationError):
            min_entropy_floor(8, 2, 0.1, example2_source, 0)


class TestReconcile:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_near_perfect_channels_decode_exactly(self):
        spec = DegradedSourceSpec(q=0.5, p=(1e-9, 1e-9))
        cfg = small_config(target=(0.4, 0.4))
        rng = np.random.default_rng(1)
        x0 = rng.integers(0, 2, (cfg.b, cfg.n), dtype=np.uint8)
        blocks = {1: x0.copy(), 2: x0.copy()}  # p ~ 0: agents see x0 itself
        transcript, per_block, full = reconcile(spec, cfg, x0, blocks)
        for agent in (1, 2):
            assert np.array_equal(per_block[agent], blocks[agent])
            assert np.array_equal(full[agent], blocks[agent].reshape(-1))

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
        transcript, per_block, full = reconcile(spec, cfg, x0, blocks)
        assert set(full) == {1, 2}


class TestPrivacyAmplify:
    def test_zero_length_keys_empty(self):
        seqs = {1: np.ones(16, dtype=np.uint8)}
        km = privacy_amplify(seqs, {1: 0}, {1: 123})
        assert km.keys[1].size == 0 and km.agree(1)

    def test_perfect_reconciliation_agrees(self):
        rng = np.random.default_rng(3)
        seqs = {1: rng.integers(0, 2, 64, dtype=np.uint8)}
        km = privacy_amplify(seqs, {1: 10}, {1: 5}, base_sequences=seqs)
        assert km.agree(1)

    def test_fault_injection_detected(self):
        rng = np.random.default_rng(4)
        seq = rng.integers(0, 2, 256, dtype=np.uint8)
        corrupted = seq.copy()
        corrupted[17] ^= 1
        km = privacy_amplify({1: seq}, {1: 64}, {1: 9},
                             base_sequences={1: corrupted})
        assert not km.agree(1)


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
        from keyshare import shapley_from_game
        target = tuple(shapley_from_game(game))
        cfg = small_config(target=target)
        rep = run_protocol(SMALL_SPEC, cfg, runs=2)
        nb = cfg.n * cfg.b
        for mask in (0b01, 0b10, 0b11):
            r_sum = sum(rep["per_agent"][l + 1]["r"] for l in range(2) if mask >> l & 1)
            assert r_sum / nb <= conditional_mi(src, mask) + 1e-9

    def test_coalition_mode_restricts_members(self):
        spec = DegradedSourceSpec(q=0.40, p=(0.08, 0.12, 0.15))
        cfg = ProtocolConfig(n=64, b=2, target=(0.2, 0.1, 0.0), epsilon=0.05,
                             coalition=0b011, calibration_runs=5, seed=7)
        rep = run_protocol(spec, cfg, runs=2)
        assert set(rep["per_agent"]) == {1, 2}
        src = build_degraded_source(spec)
        cap = conditional_mi(src, 0b011, 0b100)
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
            v_small = conditional_mi(src, small, outs_small)
            v_big = conditional_mi(src, big, outs_big)
            assert v_small <= v_big + 1e-12
            r_small = key_lengths_from_allocation([v_small], 64, 2, 0.05)[0]
            r_big = key_lengths_from_allocation([v_big], 64, 2, 0.05)[0]
            assert r_small <= r_big

    def test_outside_core_target_warns(self):
        bad = small_config(target=(0.9, 0.9))
        with pytest.warns(UserWarning, match="core|sum-rate"):
            run_protocol(SMALL_SPEC, bad, runs=1)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValidationError):
            run_protocol(SMALL_SPEC, small_config(), runs=0)

    def test_rejects_non_finite_target(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="target"):
                small_config(target=(bad, 0.05))


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
        res = empirical_secrecy_check(0.4, (0.2,), 4, (1,))
        assert res.holds

    def test_two_agent_cell(self):
        res = empirical_secrecy_check(0.4, (0.1, 0.3), 2, (1, 1))
        assert res.holds

    def test_capacity_guard(self):
        with pytest.raises(Exception):
            empirical_secrecy_check(0.4, (0.1,), 16, (1,))

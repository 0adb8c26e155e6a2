import numpy as np
import pytest

from keyshare import (CapacityError, ValidationError, binary_entropy,
                      build_index_sets, construct_profile,
                      entropy_profile_exact, entropy_profile_mc,
                      polar_transform, sc_decode)
from keyshare.polar import delta_threshold, side_info_llrs


class TestTransform:
    def test_two_bit_kernel(self):
        assert np.array_equal(polar_transform(np.array([1, 1])), [0, 1])
        assert np.array_equal(polar_transform(np.array([1, 0])), [1, 0])

    def test_involution_across_sizes(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 4, 8, 16, 64, 256, 1024):
            x = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(polar_transform(polar_transform(x)), x)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for n in (4, 32, 512):
            x = rng.integers(0, 2, n, dtype=np.uint8)
            y = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(
                polar_transform(x ^ y), polar_transform(x) ^ polar_transform(y))

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 2, (5, 16), dtype=np.uint8)
        out = polar_transform(batch)
        for row in range(5):
            assert np.array_equal(out[row], polar_transform(batch[row]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            polar_transform(np.zeros(6, dtype=np.uint8))


class TestExactProfile:
    def test_single_position_is_channel_entropy(self):
        prof = entropy_profile_exact(0.2, 1)
        assert prof.h[0] == pytest.approx(binary_entropy(0.2), abs=1e-12)

    def test_noiseless_channel(self):
        prof = entropy_profile_exact(0.0, 2)
        assert np.allclose(prof.h, 0.0)

    def test_uniform_marginal_without_side_info(self):
        prof = entropy_profile_exact(0.5, 2, side_info=False)
        assert np.allclose(prof.h, 1.0, atol=1e-12)

    def test_chain_rule_sum(self):
        for n, p in ((4, 0.2), (16, 0.35)):
            prof = entropy_profile_exact(p, n)
            assert prof.h.sum() == pytest.approx(n * binary_entropy(p), abs=1e-9)

    def test_monotone_in_crossover(self):
        sums = [entropy_profile_exact(p, 16).h.sum() for p in (0.05, 0.2, 0.35, 0.5)]
        assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            entropy_profile_exact(0.2, 32)

    def test_genie_error_matches_decision_oracle(self):
        # exact per-index decision error: enumerate prefixes directly
        n, p = 4, 0.3
        prof = entropy_profile_exact(p, n)
        idx = np.arange(1 << n)
        u = ((idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.uint8)
        x = polar_transform(u)
        w = x.sum(axis=1)
        prob = (p ** w) * ((1 - p) ** (n - w))
        for i in range(n):
            joint = prob.reshape(1 << i, 2, 1 << (n - 1 - i)).sum(axis=2)
            err = np.minimum(joint[:, 0], joint[:, 1]).sum()
            assert prof.genie_error[i] == pytest.approx(err, abs=1e-12)


class TestMonteCarloProfile:
    def test_matches_exact_small(self):
        for n, p in ((8, 0.2), (16, 0.3)):
            exact = entropy_profile_exact(p, n)
            mc = entropy_profile_mc(p, n, 100_000, seed=11)
            assert np.max(np.abs(exact.h - mc.h)) <= 0.02

    def test_genie_error_matches_exact_small(self):
        for n, p in ((8, 0.2), (16, 0.3), (16, 0.11)):
            exact = entropy_profile_exact(p, n)
            mc = entropy_profile_mc(p, n, 100_000, seed=11)
            assert np.max(np.abs(mc.genie_error - exact.genie_error)) <= 5e-3

    def test_noiseless_channel_flat(self):
        mc = entropy_profile_mc(0.0, 16, 2000, seed=3)
        assert np.all(mc.h <= 0.001)

    def test_deterministic_given_seed(self):
        a = entropy_profile_mc(0.25, 32, 3000, seed=5)
        b = entropy_profile_mc(0.25, 32, 3000, seed=5)
        assert np.array_equal(a.h, b.h)
        c = entropy_profile_mc(0.25, 32, 3000, seed=6)
        assert not np.array_equal(a.h, c.h)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValidationError):
            entropy_profile_mc(0.2, 8, 10, seed=0)

    def test_high_entropy_fraction_at_production_length(self):
        # polarization at N=1024 is far from mature: the published-set
        # fraction overshoots H_b(p) by ~0.18 at beta=0.3 (measured; the
        # overshoot shrinks with N, see the acceptance trend test)
        for prof in (entropy_profile_mc(0.11, 1024, 20_000, seed=61),
                     construct_profile(0.11, 1024)):
            sets = build_index_sets(prof, beta=0.3)
            overshoot = float(sets.h_mask.mean()) - binary_entropy(0.11)
            assert 0.0 <= overshoot <= 0.20, prof.method


class TestConstructProfile:
    """Edge cases; the per-index bound against the exact oracle is the
    deterministic_profile_brackets_exact check of `keyshare verify polar`."""

    def test_extreme_crossovers(self):
        clean = construct_profile(0.0, 16)
        assert np.all(clean.h == 0.0) and np.all(clean.genie_error == 0.0)
        flat = construct_profile(0.5, 16)
        assert np.allclose(flat.h, 1.0, atol=1e-12)
        assert np.allclose(flat.genie_error, 0.5, atol=1e-12)

    def test_crossover_symmetry(self):
        for p in (0.11, 0.3):
            a, b = construct_profile(p, 64), construct_profile(1.0 - p, 64)
            assert np.allclose(a.h, b.h, atol=1e-12)
            assert np.allclose(a.genie_error, b.genie_error, atol=1e-12)

    def test_shortest_blocks_are_exact(self):
        for n in (1, 2):
            exact = entropy_profile_exact(0.2, n)
            prof = construct_profile(0.2, n)
            assert np.allclose(prof.h, exact.h, atol=1e-12)
            assert np.allclose(prof.genie_error, exact.genie_error, atol=1e-12)

    def test_repeated_calls_share_one_profile(self):
        first = construct_profile(0.27, 128)
        assert construct_profile(0.27, 128) is first
        assert not first.h.flags.writeable

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            construct_profile(1.5, 8)
        with pytest.raises(ValidationError):
            construct_profile(0.2, 12)


class TestIndexSets:
    def test_empty_and_full(self):
        prof = entropy_profile_exact(0.0, 4)
        sets = build_index_sets(prof, beta=0.3)
        assert sets.h_mask.sum() == 0 and sets.v_mask.sum() == 0
        prof2 = entropy_profile_exact(0.5, 4)  # h = 1 everywhere
        sets2 = build_index_sets(prof2, beta=0.3)
        assert sets2.h_mask.all() and sets2.v_mask.all()

    def test_hand_thresholding(self):
        prof = entropy_profile_exact(0.2, 16)
        beta = 0.3
        sets = build_index_sets(prof, beta)
        delta = delta_threshold(16, beta)
        assert np.array_equal(sets.h_mask, prof.h >= delta)
        assert np.array_equal(sets.v_mask, prof.h >= 1 - delta)

    def test_v_subset_of_h(self):
        prof = entropy_profile_exact(0.35, 16)
        sets = build_index_sets(prof, 0.25)
        assert not np.any(sets.v_mask & ~sets.h_mask)

    def test_rejects_bad_beta(self):
        prof = entropy_profile_exact(0.2, 4)
        with pytest.raises(ValidationError):
            build_index_sets(prof, beta=0.5)


class TestScDecode:
    def test_full_known_set_inverts(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, 64, dtype=np.uint8)
        u = polar_transform(x)
        out = sc_decode(np.ones(64, dtype=bool), u, np.zeros(64))
        assert np.array_equal(out, x)

    def test_noiseless_side_info_copies(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, 32, dtype=np.uint8)
        out = sc_decode(np.zeros(32, dtype=bool), np.zeros(32, dtype=np.uint8),
                        side_info_llrs(y, 0.0))
        assert np.array_equal(out, y)

    def test_tie_breaks_to_zero(self):
        out = sc_decode(np.zeros(2, dtype=bool), np.zeros(2, dtype=np.uint8),
                        side_info_llrs(np.array([0, 1], dtype=np.uint8), 0.5))
        assert np.array_equal(out, [0, 0])

    def test_reliability_at_production_length(self):
        p, n, beta, trials = 0.05, 1024, 0.3, 200
        for prof in (entropy_profile_mc(p, n, 20_000, seed=42), construct_profile(p, n)):
            sets = build_index_sets(prof, beta)
            rng = np.random.default_rng(43)
            y = rng.integers(0, 2, (trials, n), dtype=np.uint8)
            x = y ^ (rng.random((trials, n)) < p).astype(np.uint8)
            u = polar_transform(x)
            xhat = sc_decode(sets.h_mask, u, side_info_llrs(y, p))
            block_errors = (xhat != x).any(axis=1).mean()
            assert block_errors <= 0.1, prof.method

    def test_index_mask_length_checked(self):
        with pytest.raises(ValidationError):
            sc_decode(np.ones(3, dtype=bool), np.zeros(4, dtype=np.uint8), np.zeros(4))


import hashlib

import numpy as np
import pytest

from keyshare import (CapacityError, ValidationError, binary_entropy,
                      build_index_sets, construct_profile,
                      entropy_profile_exact, entropy_profile_mc,
                      polar_transform, sc_decode)
from keyshare import errors, polar
from keyshare.polar import INDEX_BETA, MAX_BLOCK_N, MERGE_BINS, delta_threshold
from keyshare.protocol import _risk_suffix
from keyshare.suites import (mc_profile_matches_exact,
                             profile_monotone_in_crossover,
                             transform_involution_and_linear)


class TestTransform:
    def test_two_bit_kernel(self):
        assert np.array_equal(polar_transform(np.array([1, 1])), [0, 1])
        assert np.array_equal(polar_transform(np.array([1, 0])), [1, 0])

    def test_involution_across_sizes(self):
        for result in transform_involution_and_linear((1, 2, 4, 8, 16, 64, 256, 1024), seed=0):
            assert result.passed, (result.name, result.witness)

    def test_linearity(self):
        for result in transform_involution_and_linear((4, 32, 512), seed=1):
            assert result.passed, (result.name, result.witness)

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
        # a crossover of 1/2 makes the base observation useless
        prof = entropy_profile_exact(0.5, 2)
        assert np.allclose(prof.h, 1.0, atol=1e-12)

    def test_chain_rule_sum(self):
        for n, p in ((4, 0.2), (16, 0.35)):
            prof = entropy_profile_exact(p, n)
            assert prof.h.sum() == pytest.approx(n * binary_entropy(p), abs=1e-9)

    def test_monotone_in_crossover(self):
        result = profile_monotone_in_crossover(16, (0.05, 0.2, 0.35, 0.5))
        assert result.passed, result.witness

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
        result = mc_profile_matches_exact(((8, 0.2), (16, 0.3)), 100_000, seed=11)
        assert result.passed, result.witness

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
        # fraction overshoots H_b(p) by ~0.18 at INDEX_BETA = 0.3 (measured; the
        # overshoot shrinks with N, see the acceptance trend test)
        for prof in (entropy_profile_mc(0.11, 1024, 20_000, seed=61),
                     construct_profile(0.11, 1024)):
            sets = build_index_sets(prof)
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

    # Pins every bit of h and genie_error: N=1 and N=2 take both leaf
    # branches of the walk, and the thetas cover the noiseless, subnormal,
    # useless and mirrored crossovers.  The bits come from numpy's float64
    # log2 and the BLAS dot product; a build whose libm or BLAS rounds
    # differently needs the digest re-recorded.
    def test_profiles_are_bit_exact(self):
        build = construct_profile.__wrapped__  # always walk, never the memo
        grid = [(t, n) for t in (0.0, 1e-300, 0.01, 0.2, 0.25, 0.27, 0.5, 0.73)
                for n in (1, 2, 8, 64, 1024)] + [(0.2, 4096)]
        digest = hashlib.sha256()
        for theta, n in grid:
            prof = build(theta, n)
            digest.update(np.ascontiguousarray(prof.h, "<f8").tobytes())
            digest.update(np.ascontiguousarray(prof.genie_error, "<f8").tobytes())
        assert digest.hexdigest() == (
            "7368f07eb78a481e2e91aa06a1178af9fca046a05e04123529fcb47346a1a766")

    def test_repeated_calls_share_one_profile(self):
        first = construct_profile(0.27, 128)
        assert construct_profile(0.27, 128) is first
        assert not first.h.flags.writeable

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            construct_profile(1.5, 8)
        with pytest.raises(ValidationError):
            construct_profile(0.2, 12)

    # an untyped memo let a warm (0.1, 8) entry answer (0.1, 8.0), and a warm
    # (0.1, 1) entry (0.1, True), although the cold calls refuse both
    def test_warm_entries_admit_no_other_type(self):
        construct_profile(0.1, 8), construct_profile(0.1, 1)
        for n in (8.0, True):
            with pytest.raises(ValidationError, match="block length N"):
                construct_profile(0.1, n)


def _ordered_children(w, eps):
    """The polar children over all k^2 ordered component pairs: the
    reference for the unordered-pair walk."""
    ww = np.outer(w, w).ravel()
    e1, e2 = eps[:, None], eps[None, :]
    a, b = (e1 * (1.0 - e2)).ravel(), (e2 * (1.0 - e1)).ravel()
    flip = a + b
    agree_eps = (e1 * e2).ravel() / (1.0 - flip)
    disagree_eps = np.divide(np.minimum(a, b), flip, out=np.zeros_like(flip), where=flip > 0)
    return polar._degrading_merge(np.concatenate([ww, ww * (1.0 - flip), ww * flip]),
                                  np.concatenate([flip, agree_eps, disagree_eps]), ww.size)


class TestUnorderedPairs:
    """The walk over unordered component pairs against the ordered-pair
    walk: the same candidates, summed in another order."""

    def test_pair_table_prefixes(self):
        for k in range(1, MERGE_BINS + 1):
            m = k * (k + 1) // 2
            i, j = polar._PAIR_I[:m], polar._PAIR_J[:m]
            assert sorted(zip(i.tolist(), j.tolist())) == [
                (a, b) for a in range(k) for b in range(a, k)]
            assert np.array_equal(polar._PAIR_COUNT[:m], np.where(i == j, 1.0, 2.0))
        assert polar._PAIR_I.size == MERGE_BINS * (MERGE_BINS + 1) // 2

    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_children_match_ordered_pairs(self, k):
        rng = np.random.default_rng(k)
        for trial in range(20):
            w = rng.dirichlet(np.ones(k))
            eps = rng.uniform(0.0, 0.5, k)
            if trial % 2:  # noiseless and useless components
                eps[rng.integers(0, k, 2)] = (0.0, 0.5)
            for got, want in zip(polar._polar_children(w, eps), _ordered_children(w, eps)):
                assert got[0].shape == want[0].shape
                assert np.allclose(got[0], want[0], rtol=0, atol=1e-12)
                assert np.allclose(got[1], want[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, thetas", [
        (64, np.arange(1, 51) / 100),
        (256, np.arange(1, 51) / 100),
        (1024, (0.20, 0.27, 0.25, 0.05, 0.11)),
    ])
    def test_profiles_match_ordered_pairs(self, monkeypatch, n, thetas):
        build = construct_profile.__wrapped__  # leave the memo untouched
        got = [build(float(t), n) for t in thetas]
        monkeypatch.setattr(polar, "_polar_children", _ordered_children)
        for theta, prof in zip(thetas, got):
            ref = build(float(theta), n)
            assert np.allclose(prof.h, ref.h, rtol=0, atol=1e-12), theta
            assert np.allclose(prof.genie_error, ref.genie_error, rtol=0, atol=1e-12), theta
            sets, ref_sets = build_index_sets(prof), build_index_sets(ref)
            assert np.array_equal(sets.h_mask, ref_sets.h_mask), theta
            assert np.array_equal(sets.v_mask, ref_sets.v_mask), theta
            for risk in (0.0, 1e-4, 0.02):
                assert np.array_equal(_risk_suffix(prof, sets.h_mask, risk),
                                      _risk_suffix(ref, ref_sets.h_mask, risk)), (theta, risk)


@pytest.mark.parametrize("build", [
    construct_profile,
    entropy_profile_exact,
    lambda theta, n: entropy_profile_mc(theta, n, 1000, seed=0),
], ids=["degrading_merge", "exact", "monte_carlo"])
@pytest.mark.parametrize("theta", [np.nan, 1.5, -0.2])
def test_profile_builders_reject_bad_theta(build, theta):
    with pytest.raises(ValidationError, match="theta"):
        build(theta, 8)


@pytest.mark.parametrize("build", [
    construct_profile,
    lambda theta, n: entropy_profile_mc(theta, n, 1000, seed=0),
], ids=["degrading_merge", "monte_carlo"])
def test_profile_builders_refuse_long_blocks(build):
    with pytest.raises(CapacityError, match=str(MAX_BLOCK_N)):
        build(0.2, 2 * MAX_BLOCK_N)


class TestIndexSets:
    def test_empty_and_full(self):
        prof = entropy_profile_exact(0.0, 4)
        sets = build_index_sets(prof)
        assert sets.h_mask.sum() == 0 and sets.v_mask.sum() == 0
        prof2 = entropy_profile_exact(0.5, 4)  # h = 1 everywhere
        sets2 = build_index_sets(prof2)
        assert sets2.h_mask.all() and sets2.v_mask.all()

    def test_hand_thresholding(self):
        prof = entropy_profile_exact(0.2, 16)
        sets = build_index_sets(prof)
        delta = 2.0 ** -(16 ** INDEX_BETA)
        assert delta_threshold(16) == delta
        assert np.array_equal(sets.h_mask, prof.h >= delta)
        assert np.array_equal(sets.v_mask, prof.h >= 1 - delta)

    def test_nan_entropies_are_refused(self):
        # NaN compares False with the threshold, so a NaN index would sit
        # in neither set without a word
        h = entropy_profile_exact(0.2, 4).h.copy()
        h[2] = np.nan
        profile = polar.EntropyProfile(4, h, "exact", np.zeros(4))
        with pytest.raises(ValidationError, match="profile entropies .* index 2"):
            build_index_sets(profile)

    def test_v_subset_of_h(self):
        prof = entropy_profile_exact(0.35, 16)
        sets = build_index_sets(prof)
        assert not np.any(sets.v_mask & ~sets.h_mask)


class TestScDecode:
    def test_full_known_set_inverts(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, 64, dtype=np.uint8)
        u = polar_transform(x)
        out = sc_decode(np.ones(64, dtype=bool), u, np.zeros(64, dtype=np.uint8), 0.5)
        assert np.array_equal(out, x)

    def test_noiseless_side_info_copies(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, 32, dtype=np.uint8)
        out = sc_decode(np.zeros(32, dtype=bool), np.zeros(32, dtype=np.uint8), y, 0.0)
        assert np.array_equal(out, y)

    def test_tie_breaks_to_zero(self):
        out = sc_decode(np.zeros(2, dtype=bool), np.zeros(2, dtype=np.uint8),
                        np.array([0, 1], dtype=np.uint8), 0.5)
        assert np.array_equal(out, [0, 0])

    def test_reliability_at_production_length(self):
        p, n, trials = 0.05, 1024, 200
        for prof in (entropy_profile_mc(p, n, 20_000, seed=42), construct_profile(p, n)):
            sets = build_index_sets(prof)
            rng = np.random.default_rng(43)
            y = rng.integers(0, 2, (trials, n), dtype=np.uint8)
            x = y ^ (rng.random((trials, n)) < p).astype(np.uint8)
            u = polar_transform(x)
            xhat = sc_decode(sets.h_mask, u, y, p)
            block_errors = (xhat != x).any(axis=1).mean()
            assert block_errors <= 0.1, prof.method

    def test_index_mask_length_checked(self):
        with pytest.raises(ValidationError):
            sc_decode(np.ones(3, dtype=bool), np.zeros(4, dtype=np.uint8),
                      np.zeros(4, dtype=np.uint8), 0.2)

    def test_rejects_non_binary_known_values(self):
        with pytest.raises(ValidationError, match="known_values"):
            sc_decode(np.ones(4, dtype=bool), np.array([2, 0, 1, 0]),
                      np.zeros(4, dtype=np.uint8), 0.2)

    def test_rejects_non_binary_y(self):
        for bad in (2, -1, 0.5, np.nan):
            y = np.zeros((2, 4))
            y[1, 2] = bad
            with pytest.raises(ValidationError, match="y must"):
                sc_decode(np.zeros(4, dtype=bool), np.zeros((2, 4), dtype=np.uint8), y, 0.2)

    # unsigned and bool arrays are checked by their maximum, the rest
    # elementwise; a uint8 array is used as it is, not copied.  A bool array
    # holds nothing but 0 and 1, so it has no invalid case
    @pytest.mark.parametrize("dtype, invalid", [(np.uint8, 2), (np.uint16, 256),
                                                (np.bool_, None), (np.int8, -1),
                                                (np.float64, 0.5)])
    def test_binary_check_per_dtype(self, dtype, invalid):
        y = np.array([[1, 0, 0, 1], [0, 1, 1, 1]], dtype=dtype)
        mask, values = np.zeros(4, dtype=bool), np.zeros((2, 4), dtype=np.uint8)
        assert np.array_equal(sc_decode(mask, values, y, 0.2),
                              sc_decode(mask, values, y.astype(np.uint8), 0.2))
        checked = errors.binary(y, "y")
        assert checked.dtype == np.uint8 and np.array_equal(checked, y.astype(np.uint8))
        assert (checked is y) == (dtype is np.uint8)
        if invalid is not None:
            y[1, 2] = invalid
            with pytest.raises(ValidationError, match="y must"):
                sc_decode(mask, values, y, 0.2)

    def test_rejects_bad_crossover(self):
        for bad in (np.nan, np.inf, -0.2, 1.5):
            with pytest.raises(ValidationError, match="crossover"):
                sc_decode(np.zeros(4, dtype=bool), np.zeros((2, 4), dtype=np.uint8),
                          np.zeros((2, 4), dtype=np.uint8), bad)


class TestSettledSkip:
    @staticmethod
    def _unskipped(mask, values, y, crossover):
        """The full sweep: every leaf visited, known leaves return their bits."""
        values2 = np.atleast_2d(values)

        def leaf(i, col):
            return values2[:, i].copy() if mask[i] else (col < 0).astype(np.uint8)

        out = polar._sc_sweep(np.atleast_2d(y), crossover, leaf,
                              (np.zeros(len(mask), dtype=bool), values2))
        return out[0] if y.ndim == 1 else out

    def test_matches_unskipped_sweep(self):
        rng = np.random.default_rng(11)
        # crossover 0.5 gives all-zero LLRs, so every unknown leaf is a tie
        for crossover in (0.0, 0.2, 0.5):
            for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
                for density in (0.0, 0.5, 0.9, 1.0):
                    for shape in ((n,), (5, n)):
                        mask = rng.random(n) < density
                        values = rng.integers(0, 2, shape, dtype=np.uint8)
                        y = rng.integers(0, 2, shape, dtype=np.uint8)
                        got = sc_decode(mask, values, y, crossover)
                        assert got.shape == shape and got.dtype == np.uint8
                        assert np.array_equal(got, self._unskipped(mask, values, y, crossover))

    @staticmethod
    def _count_boxplus(monkeypatch, mask):
        calls = []
        real = polar._boxplus

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(polar, "_boxplus", counted)
        n = mask.size
        sc_decode(mask, np.zeros((3, n), dtype=np.uint8), np.zeros((3, n), dtype=np.uint8), 0.2)
        return len(calls)

    def test_all_known_decodes_nothing(self, monkeypatch):
        assert self._count_boxplus(monkeypatch, np.ones(256, dtype=bool)) == 0

    def test_single_unknown_index_walks_one_path(self, monkeypatch):
        n = 256
        first_open = np.ones(n, dtype=bool)
        first_open[0] = False
        last_open = np.ones(n, dtype=bool)
        last_open[-1] = False
        # a lone unknown index needs one LLR per level on its root path: a
        # check-node (boxplus) step for every left turn, none for right turns
        assert self._count_boxplus(monkeypatch, first_open) == int(np.log2(n))
        assert self._count_boxplus(monkeypatch, last_open) == 0
        # the full sweep makes one boxplus call per internal node
        assert self._count_boxplus(monkeypatch, np.zeros(n, dtype=bool)) == n - 1


import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyshare import (CapacityError, DegradedSourceSpec, JointSource,
                      ValidationError, binary_entropy, entropy, mutual_information,
                      value_function, verify_markov)
from keyshare.source import ConsistencyError, _clamp
from keyshare.suites import degraded_table_matches_dense, markov_chain_verified

from conftest import (EXAMPLE2_VALUES, brute_entropy,
                      random_degraded_spec)


class TestSpecValidation:
    def test_rejects_bad_q(self):
        with pytest.raises(ValidationError, match="q"):
            DegradedSourceSpec(q=1.0, p=(0.2,))

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError, match=r"p\[1\]"):
            DegradedSourceSpec(q=0.4, p=(0.2, 0.0))

    def test_rejects_bad_levels(self):
        with pytest.raises(ValidationError, match="levels"):
            DegradedSourceSpec(q=0.4, p=(0.2, 0.3), levels=((1,), (1, 2)))

    def test_rejects_non_integral_level_ids(self):
        for bad in (1.9, True, float("nan"), "1"):
            with pytest.raises(ValidationError, match="levels"):
                DegradedSourceSpec(q=0.4, p=(0.2, 0.3), levels=((bad,), (2,)))
        spec = DegradedSourceSpec(q=0.4, p=(0.2, 0.3), levels=((np.int64(1),), (2.0,)))
        assert spec.levels == ((1,), (2,))
        assert all(type(a) is int for lev in spec.levels for a in lev)

    def test_json_loader_names_missing_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"p": [0.2]}))
        with pytest.raises(ValidationError, match="'q'"):
            DegradedSourceSpec.from_json(str(path))

    def test_json_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="JSON"):
            DegradedSourceSpec.from_json(str(path))

    def test_json_round_trip(self, tmp_path):
        spec = DegradedSourceSpec(q=0.4, p=(0.2, 0.3), levels=((2,), (1,)))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        again = DegradedSourceSpec.from_json(str(path))
        assert again == spec


class TestBuildDegradedSource:
    def test_uniform_independent(self):
        src = JointSource.from_spec(DegradedSourceSpec(q=0.5, p=(0.5,)))
        assert np.allclose(src.prob, 0.25)

    def test_marginal_by_direct_summation(self):
        src = JointSource.from_spec(DegradedSourceSpec(q=0.4, p=(0.2,)))
        p_x1 = src.prob.sum(axis=0)
        assert p_x1[1] == pytest.approx(0.4 * 0.8 + 0.6 * 0.2, abs=1e-15)

    def test_table_matches_loop_construction(self):
        spec = DegradedSourceSpec(q=0.37, p=(0.11, 0.42))
        src = JointSource.from_spec(spec)
        for bits in itertools.product((0, 1), repeat=3):
            x0 = bits[0]
            expected = spec.q if x0 else 1 - spec.q
            for l, pl in enumerate(spec.p):
                expected *= pl if bits[l + 1] ^ x0 else 1 - pl
            assert src.prob[bits] == pytest.approx(expected, abs=1e-15)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            DegradedSourceSpec(q=0.5, p=(0.1,) * 21)

    def test_spec_past_the_table_limit_is_refused_when_built(self):
        from keyshare.source import MAX_TABLE_AGENTS
        with pytest.raises(CapacityError, match=f"L <= {MAX_TABLE_AGENTS}, got L=21"):
            DegradedSourceSpec(q=0.5, p=(0.1,) * (MAX_TABLE_AGENTS + 1))

    # the length is checked before any entry is read: a malformed entry past
    # the limit does not change the error, and a million entries cost nothing
    def test_oversized_spec_is_refused_before_its_entries_are_read(self):
        from keyshare.source import MAX_TABLE_AGENTS
        p = (0.2,) * (10**6 - 1) + (float("nan"),)
        with pytest.raises(CapacityError, match=f"L <= {MAX_TABLE_AGENTS}, got L={10**6}"):
            DegradedSourceSpec(q=0.4, p=p)

    # a spec file's p is measured before real converts any of its entries
    def test_oversized_spec_file_is_refused_before_conversion(self, tmp_path, monkeypatch):
        from keyshare import source
        from keyshare.source import MAX_TABLE_AGENTS

        def refuse(value, name, *args, **kwargs):
            assert "'p[" not in name, "real converted an entry of an oversized p"
            return convert(value, name, *args, **kwargs)

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.2] * 10**5}))
        convert = source.real
        monkeypatch.setattr(source, "real", refuse)
        with pytest.raises(CapacityError, match=f"L <= {MAX_TABLE_AGENTS}, got L={10**5}"):
            DegradedSourceSpec.from_json(str(path))

    def test_a_spec_is_its_own_source(self, example2_spec):
        fresh = DegradedSourceSpec(q=example2_spec.q, p=example2_spec.p)
        game = value_function(fresh)
        # the game was read off the spec's own entropy table, now cached on it
        assert "entropies" in vars(fresh)
        assert np.array_equal(game.values, value_function(example2_spec).values)

    def test_spec_source_skips_verify_markov(self, example2_spec, monkeypatch):
        from keyshare import game as game_mod

        def refuse(*args, **kwargs):
            raise AssertionError("verify_markov ran on a source built from a spec")

        monkeypatch.setattr(game_mod, "verify_markov", refuse)
        assert not hasattr(example2_spec, "prob")
        game = value_function(example2_spec)
        assert game.values[0b001] == pytest.approx(EXAMPLE2_VALUES[0b001], abs=1e-5)


class TestVerifyMarkov:
    def test_degraded_construction_passes(self):
        src = JointSource.from_spec(DegradedSourceSpec(q=0.3, p=(0.1, 0.2, 0.4)))
        result = markov_chain_verified([src])
        assert result.passed, result.witness

    def test_coupled_agents_fail(self):
        # x1 = x2 = x0 xor b with a shared flip: dependent given x0
        prob = np.zeros((2, 2, 2))
        q, p = 0.4, 0.2
        for x0 in (0, 1):
            for b in (0, 1):
                x = x0 ^ b
                prob[x0, x, x] += (q if x0 else 1 - q) * (p if b else 1 - p)
        degraded = JointSource.from_spec(DegradedSourceSpec(q=q, p=(p, p)))
        result = markov_chain_verified([degraded, JointSource(num_agents=2, prob=prob)])
        assert not result.passed and result.witness == "source 1"

    def test_single_agent_trivially_true(self):
        src = JointSource.from_spec(DegradedSourceSpec(q=0.4, p=(0.2,)))
        assert markov_chain_verified([src]).passed

    def test_pairwise_but_not_jointly_independent_fails(self):
        # x3 = x1 xor x2 xor x0 with x1, x2 uniform: every two agents are
        # independent given x0, the three are not
        prob = np.zeros((2,) * 4)
        for x0, x1, x2 in itertools.product((0, 1), repeat=3):
            prob[x0, x1, x2, x0 ^ x1 ^ x2] = (0.4 if x0 else 0.6) / 4
        src = JointSource(num_agents=3, prob=prob)
        assert not verify_markov(src)
        with pytest.raises(ValidationError, match="degradedness"):
            value_function(src)

    def test_dense_values_past_twelve_agents(self):
        spec = random_degraded_spec(np.random.default_rng(13), 13)
        dense = value_function(JointSource.from_spec(spec))
        product = value_function(spec)
        assert np.max(np.abs(dense.values - product.values)) <= 1e-12

    def test_dense_table_capacity(self):
        with pytest.raises(CapacityError, match="16"):
            JointSource.from_spec(DegradedSourceSpec(q=0.5, p=(0.1,) * 17))

    @staticmethod
    def _worst_pair_deviation(prob: np.ndarray) -> float:
        """max |p(x_S, x_T | x0) - p(x_S | x0) p(x_T | x0)| over disjoint
        nonempty coalitions S, T and x0 with p(x0) > 0, by direct summation."""
        L = prob.ndim - 1
        worst = 0.0
        for x0 in (0, 1):
            mass = prob[x0].sum()
            if mass <= 0:
                continue
            cond = prob[x0] / mass

            def marginal(keep):
                return cond.sum(axis=tuple(a for a in range(L) if a not in keep), keepdims=True)

            for groups in itertools.product((0, 1, 2), repeat=L):  # agent -> S, T or neither
                s = [a for a in range(L) if groups[a] == 1]
                t = [a for a in range(L) if groups[a] == 2]
                if s and t:
                    dev = np.abs(marginal(s + t) - marginal(s) * marginal(t)).max()
                    worst = max(worst, float(dev))
        return worst

    @settings(max_examples=150, deadline=None)
    @given(num_agents=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
           noise=st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6]))
    def test_accepted_tables_have_every_pair_within_tol(self, num_agents, seed, noise):
        rng = np.random.default_rng(seed)
        prob = JointSource.from_spec(random_degraded_spec(rng, num_agents)).prob
        prob = np.maximum(prob + noise * rng.standard_normal(prob.shape), 0.0)
        src = JointSource(num_agents=num_agents, prob=prob / prob.sum())
        if verify_markov(src, tol=1e-10):
            assert self._worst_pair_deviation(src.prob) <= 1e-10


class TestEntropyQueries:
    # axis bitmasks: bit 0 is X0, bit l agent l
    def test_uniform_base_bit(self):
        src = DegradedSourceSpec(q=0.5, p=(0.2,))
        assert entropy(src, 0b1) == pytest.approx(1.0, abs=1e-12)

    def test_base_bit_bias(self):
        src = DegradedSourceSpec(q=0.4, p=(0.2,))
        assert entropy(src, 0b1) == pytest.approx(0.970951, abs=1e-6)

    def test_channel_entropy(self):
        src = DegradedSourceSpec(q=0.4, p=(0.2,))
        h = entropy(src, 0b10, 0b1)
        assert h == pytest.approx(binary_entropy(0.2), abs=1e-12)

    def test_binary_entropy_endpoints_and_nan(self):
        assert binary_entropy(0.0) == binary_entropy(1.0) == binary_entropy(1.5) == 0.0
        # NaN fails both endpoint tests and used to come back as NaN
        with pytest.raises(ValidationError, match="nan"):
            binary_entropy(float("nan"))

    def test_empty_subject_is_zero(self):
        src = DegradedSourceSpec(q=0.4, p=(0.2,))
        assert entropy(src, 0) == 0.0

    def test_independent_agent_has_zero_information(self):
        src = DegradedSourceSpec(q=0.4, p=(0.5,))
        mi = mutual_information(src, 0b10, 0b1)
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_single_agent_information(self):
        src = DegradedSourceSpec(q=0.4, p=(0.2,))
        mi = mutual_information(src, 0b10, 0b1)
        # direct evaluation: H(X1) - H(X1|X0) with P(X1=1) = 0.44
        assert mi == pytest.approx(binary_entropy(0.44) - binary_entropy(0.2), abs=1e-12)
        assert mi == pytest.approx(0.267659, abs=1e-6)

    def test_example2_singleton(self, example2_spec):
        mi = mutual_information(example2_spec, 0b001 << 1, 1, 0b110 << 1)
        assert mi == pytest.approx(EXAMPLE2_VALUES[0b001], abs=1e-5)

    def test_chain_rule_random_queries(self, example2_spec):
        rng = np.random.default_rng(3)
        prob = JointSource.from_spec(example2_spec).prob
        for _ in range(50):
            groups = rng.integers(0, 3, size=4)  # axis -> A, B, or C
            a = tuple(i for i in range(4) if groups[i] == 0)
            b = tuple(i for i in range(4) if groups[i] == 1)
            c = tuple(i for i in range(4) if groups[i] == 2)
            lhs = brute_entropy(prob, set(a) | set(b) | set(c)) - (
                brute_entropy(prob, c) if c else 0.0)
            rhs = (brute_entropy(prob, set(a) | set(c)) - (brute_entropy(prob, c) if c else 0.0)
                   + brute_entropy(prob, set(a) | set(b) | set(c))
                   - brute_entropy(prob, set(a) | set(c)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_degraded_agents_conditionally_independent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_degraded_spec(rng, 3)
            mi = mutual_information(spec, 0b0010, 0b1100, 0b0001)
            assert mi <= 1e-10

    def test_overlapping_slots_rejected(self, example2_spec):
        with pytest.raises(ValidationError):
            mutual_information(example2_spec, 0b10, 0b10)

    def test_masks_outside_the_axes_rejected(self, example2_spec):
        for a, b, c in ((0b10000, 0b1, 0), (0b10, 0b1, -1), (0b10, np.array([0b1, 0b10000]), 0)):
            with pytest.raises(ValidationError, match="outside"):
                mutual_information(example2_spec, a, b, c)
        with pytest.raises(ValidationError, match="outside"):
            entropy(example2_spec, 0b1, 0b10000)  # the bit past agent L

    def test_array_masks_match_scalar_lookups(self, example2_spec):
        a = np.array([0b0010, 0b0110, 0b1110])
        c = np.array([0b1100, 0b1000, 0])
        both = mutual_information(example2_spec, a, 0b1, c)
        for k in range(3):
            assert both[k] == mutual_information(example2_spec, int(a[k]), 0b1, int(c[k]))
        assert both[0] == mutual_information(example2_spec, 0b001 << 1, 1, 0b110 << 1)

    def test_clamp_raises_below_floor(self):
        with pytest.raises(ConsistencyError):
            _clamp(-1e-9, "test quantity")
        assert _clamp(-1e-13, "test quantity") == 0.0


class TestEntropyTable:
    @staticmethod
    def _assert_matches_brute_force(table, prob):
        ndim = prob.ndim
        assert table.shape == (1 << ndim,)
        for mask in range(1 << ndim):
            axes = [a for a in range(ndim) if mask >> a & 1]
            assert table[mask] == pytest.approx(brute_entropy(prob, axes), abs=1e-12)

    def test_every_subset_example2(self, example2_spec):
        self._assert_matches_brute_force(example2_spec.entropies,
                                         JointSource.from_spec(example2_spec).prob)

    def test_every_subset_of_a_hand_built_table(self):
        prob = np.random.default_rng(4).dirichlet(np.ones(16)).reshape((2,) * 4)
        src = JointSource(num_agents=3, prob=prob)
        self._assert_matches_brute_force(src.entropies, src.prob)

    def test_built_once(self, example2_spec):
        assert example2_spec.entropies is example2_spec.entropies
        with pytest.raises(ValueError):
            example2_spec.entropies[1] = 0.0

    def test_hand_built_table_of_a_spec_marginalises(self, example2_spec):
        # the same distribution as a dense table takes the marginalisation route
        dense = JointSource.from_spec(example2_spec)
        assert type(dense) is JointSource
        assert np.max(np.abs(dense.entropies - example2_spec.entropies)) <= 1e-15

    def test_product_form_matches_dense_random_specs(self):
        rng = np.random.default_rng(31)
        specs = [random_degraded_spec(rng, num_agents) for num_agents in range(1, 13)]
        result = degraded_table_matches_dense(specs)
        assert result.passed, result.witness

    def test_product_form_matches_dense_edge_specs(self):
        specs = [DegradedSourceSpec(q=q, p=p)
                 for q in (1e-12, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-12)
                 for p in ((1e-9, 0.5, 1 - 1e-9), (1e-9,) * 4, (1 - 1e-9,) * 4,
                           (0.5,) * 10, (1e-9, 0.5, 1 - 1e-9) * 3)]
        result = degraded_table_matches_dense(specs)
        assert result.passed, result.witness

    def test_table_is_a_read_only_copy(self):
        prob = np.full((2, 2), 0.25)
        src = JointSource(num_agents=1, prob=prob)
        with pytest.raises(ValueError):
            src.prob[0, 0] = 0.5
        prob[0, 0] = 0.5  # the caller's array is not the source's table
        assert src.prob[0, 0] == 0.25

    @pytest.mark.parametrize("num_agents", [0, -1, 1.5, True])
    def test_rejects_a_bad_agent_count(self, num_agents):
        with pytest.raises(ValidationError, match="'num_agents' must be a positive integer"):
            JointSource(num_agents=num_agents, prob=np.full((2, 2), 0.25))

    def test_rejects_non_finite_cells(self):
        # NaN slips past both the sign and the sum check
        prob = np.full((2, 2, 2), 0.125)
        prob[1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="probability table has non-finite"):
            JointSource(num_agents=2, prob=prob)

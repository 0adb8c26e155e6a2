"""The whole-table scans against the per-pair, per-direction and per-agent
loops they replaced, kept here as oracles: the surplus scan of the
prekernel iteration, the adjacent-pair convexity scan, the span test of the
nucleolus stages and both Shapley routes must match them exactly.  Also pins the CLI output on the
benchmark's game specs byte for byte, and the traced memory peaks at L = 16."""

import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import keyshare.allocate as allocate
from keyshare import (CoalitionGame, DegradedSourceSpec, is_supermodular,
                      mutual_information, nucleolus, prekernel_gap,
                      shapley_closed_form, shapley_from_game, value_function)
from keyshare.cli import main
from keyshare.game import _first_adjacent_violation, coalition_sums
from keyshare.source import _member_masks

from conftest import random_degraded_spec

AGENT_COUNTS = (1, 2, 3, 7, 10, 12)
FAMILIES = ("random", "additive", "zero", "tiered", "perturbed")


def loop_surpluses(game, x):
    """(gap, argmax, surplus) by one strided argmax per ordered agent pair."""
    L = game.num_agents
    excess = (game.values - coalition_sums(x)).reshape((2,) * L)
    masks = np.arange(game.full_mask + 1).reshape((2,) * L)
    surplus, argmax = np.zeros((L, L)), np.zeros((L, L), dtype=np.int64)
    for i, j in itertools.permutations(range(L), 2):
        view = [slice(None)] * L
        view[L - 1 - i], view[L - 1 - j] = 1, 0
        view = tuple(view)
        # the first maximum in C order is the lowest mask
        best = int(np.argmax(excess[view]))
        surplus[i, j] = excess[view].flat[best]
        argmax[i, j] = masks[view].flat[best]
    return float(np.max(np.abs(surplus - surplus.T), initial=0.0)), argmax, surplus


def loop_first_adjacent_violation(v, tol):
    """(ok, witness) by four strided slices per agent pair i < j."""
    L = len(v).bit_length() - 1
    table = v.reshape((2,) * L)
    masks = np.arange(len(v)).reshape((2,) * L)
    for i, j in itertools.combinations(range(L), 2):
        def at(bit_i, bit_j):
            view = [slice(None)] * L
            view[L - 1 - i], view[L - 1 - j] = bit_i, bit_j
            return tuple(view)

        bad = np.flatnonzero(table[at(1, 0)] + table[at(0, 1)]
                             > table[at(1, 1)] + table[at(0, 0)] + tol)
        if bad.size:
            s = int(masks[at(0, 0)].ravel()[bad[0]])
            return False, (s | 1 << i, s | 1 << j)
    return True, None


def loop_drop_spanned(free, null):
    """_drop_spanned with the residual summed one null direction at a time;
    returns (rank, residual)."""
    residual = np.zeros(len(free))
    for d in null:
        residual += coalition_sums(d) ** 2
    free &= residual > allocate.PIVOT_TOL ** 2
    return null.shape[1] - len(null), residual


def loop_shapley_from_game(game):
    """shapley_from_game with one pass per agent over _member_masks."""
    L = game.num_agents
    fact = [math.factorial(k) for k in range(L + 1)]
    weights = np.array([fact[s] * fact[L - s - 1] / fact[L] for s in range(L)])
    weights = weights[coalition_sums(np.ones(L - 1)).astype(int)]
    v = game.values
    rates = np.zeros(L)
    for l in range(L):
        s = _member_masks([k for k in range(L) if k != l])
        rates[l] = np.sum(weights * (v[s | 1 << l] - v[s]))
    return rates


def loop_shapley_closed_form(src):
    """shapley_closed_form with one pass per agent over _member_masks."""
    L = src.num_agents
    sizes = coalition_sums(np.ones(L - 1)).astype(int)
    combs = np.array([math.comb(L - 1, k) for k in range(L)], dtype=float)[sizes]
    rates = np.zeros(L)
    for l in range(L):
        a = 1 << (l + 1)
        others = _member_masks([k for k in range(L) if k != l])
        penalty = np.sum(mutual_information(src, a, others << 1) / combs)
        rates[l] = mutual_information(src, a, 1) - penalty / L
    return rates


def make_game(family, L, rng):
    """Random convex specs; tie-heavy games (integer additive, all zero,
    three crossover tiers); and random games with a few values shifted,
    which mostly break convexity somewhere along the pair order."""
    if family == "random":
        return value_function(random_degraded_spec(rng, L))
    if family == "additive":
        return CoalitionGame(num_agents=L, values=coalition_sums(rng.integers(0, 4, L)))
    if family == "zero":
        return CoalitionGame(num_agents=L, values=np.zeros(1 << L))
    if family == "tiered":
        p = [(0.08, 0.24, 0.40)[3 * k // L] for k in range(L)]
        return value_function(DegradedSourceSpec(q=0.4, p=tuple(p)))
    game = value_function(random_degraded_spec(rng, L))
    values = game.values.copy()
    shifted = rng.integers(1, 1 << L, size=3)
    values[shifted] = np.maximum(values[shifted] + rng.normal(0.0, 0.05, 3), 0.0)
    return CoalitionGame(num_agents=L, values=values)


def scan_inputs(game, family, rng, monkeypatch):
    """(game, x) pairs the surplus scan meets: the Shapley value, a random
    point, zero, the integer singletons (every excess of an additive game
    is then exactly 0) and, for the convex families, the scaled games and
    iterates of the prekernel route."""
    L = game.num_agents
    # pushing the coalitions that hold agent 0 but not agent L-1 to the
    # bottom makes the scan sort the whole table, ties and all
    bottom = np.zeros(L)
    bottom[0], bottom[-1] = 4.0, -4.0
    inputs = [(game, x) for x in (shapley_from_game(game), rng.uniform(0.0, 0.2, L),
                                  np.zeros(L), game.values[1 << np.arange(L)], bottom)]
    if family != "perturbed":
        real = allocate._surpluses

        def recording(g, x):
            inputs.append((g, x.copy()))
            return real(g, x)

        with monkeypatch.context() as patch:
            patch.setattr(allocate, "_surpluses", recording)
            nucleolus(game)
    return inputs


def knife_edges(v, rng, count=8):
    """Tolerances at positive gaps (v[S|i] + v[S|j]) - (v[S|i|j] + v[S]) of
    adjacent pairs, and one ulp either side: the comparisons there sit on
    a rounding edge, where only the same terms in the same order agree."""
    L = len(v).bit_length() - 1
    table = v.reshape((2,) * L)
    gaps = []
    for i, j in itertools.combinations(range(L), 2):
        def at(bit_i, bit_j):
            view = [slice(None)] * L
            view[L - 1 - i], view[L - 1 - j] = bit_i, bit_j
            return table[tuple(view)].ravel()

        gap = (at(1, 0) + at(0, 1)) - (at(1, 1) + at(0, 0))
        gaps += gap[gap > 0].tolist()
    picked = rng.choice(gaps, size=min(count, len(gaps)), replace=False) if gaps else []
    return tuple(t for gap in picked
                 for t in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("L", AGENT_COUNTS)
class TestAgainstTheLoops:
    def test_surpluses(self, family, L, monkeypatch):
        rng = np.random.default_rng(1000 * L + FAMILIES.index(family))
        game = make_game(family, L, rng)
        for g, x in scan_inputs(game, family, rng, monkeypatch):
            gap, argmax = allocate._surpluses(g, x)
            loop_gap, loop_argmax, loop_surplus = loop_surpluses(g, x)
            assert np.array_equal(argmax, loop_argmax)
            assert np.array_equal((g.values - coalition_sums(x))[argmax], loop_surplus)
            assert gap == loop_gap
            assert prekernel_gap(g, x) == loop_gap

    def test_convexity_scan(self, family, L):
        rng = np.random.default_rng(2000 * L + FAMILIES.index(family))
        game = make_game(family, L, rng)
        for tol in (0.0, 1e-9, 1e-3) + knife_edges(game.values, rng):
            expected = loop_first_adjacent_violation(game.values, tol)
            assert _first_adjacent_violation(game.values, tol) == expected
            assert is_supermodular(game, tol) == expected
        if family == "perturbed" and L >= 3:
            # every pair scanned: a violation at the last pair's last coalition
            values = coalition_sums(np.arange(1.0, L + 1))
            values[-1] -= 1e-6
            assert (_first_adjacent_violation(values, 0.0)
                    == loop_first_adjacent_violation(values, 0.0))

    def test_span_scan(self, family, L, monkeypatch):
        rng = np.random.default_rng(3000 * L + FAMILIES.index(family))
        game = make_game(family, L, rng)
        # the null directions the stage loop passes, and those of a few
        # fixed systems, taken from an SVD here
        nulls = []
        real = allocate._drop_spanned

        def recording(free, null):
            nulls.append(null.copy())
            return real(free, null)

        if family != "perturbed" or L <= 7:  # the LP route is slow past that
            with monkeypatch.context() as patch:
                patch.setattr(allocate, "_drop_spanned", recording)
                nucleolus(game)
        masks = rng.integers(1, 1 << L, size=rng.integers(1, 2 * L + 1))
        for a_eq in (np.ones((1, L)), np.vstack([np.ones(L), allocate._incidence(masks, L)]),
                     rng.normal(size=(max(L - 2, 1), L))):
            _, singular, vt = np.linalg.svd(a_eq, full_matrices=len(a_eq) < L)
            nulls.append(vt[np.count_nonzero(singular > allocate.PIVOT_TOL):])
        for null in nulls:
            free = rng.random(1 << L) < 0.8
            expected = free.copy()
            rank, residual = loop_drop_spanned(expected, null)
            assert allocate._drop_spanned(free, null) == rank
            assert np.array_equal(free, expected)
            assert np.array_equal(allocate._squared_sums(null, 1 << L), residual)


@pytest.mark.parametrize("L", [3, 11])  # one gather pass; one strided pass per pair
def test_convexity_terms_keep_their_order(L):
    # at S = 0b100, i = 0, j = 1: (a + b) > (c + d) + tol is False but
    # (a + b) > c + (d + tol) is True; agents past the third are dummies
    a, b, c, d = 0.4998352230130143, 0.08166553718377734, 0.3633892821679995, 0.21811007756097808
    tol = 1.4004678140069388e-06
    small = np.array([0.0, 0.0, 0.0, 0.0, d, a, b, c])
    values = small[np.arange(1 << L) & 7]
    expected = loop_first_adjacent_violation(values, tol)
    assert expected == (False, (2, 4))
    assert _first_adjacent_violation(values, tol) == expected


@pytest.mark.parametrize("L", AGENT_COUNTS + (14,))  # agents in 1, 2 and 7 batches
def test_shapley_routes_match_the_agent_loops(L):
    rng = np.random.default_rng(4000 + L)
    src = random_degraded_spec(rng, L)
    assert np.array_equal(shapley_closed_form(src), loop_shapley_closed_form(src))
    for family in FAMILIES:
        game = make_game(family, L, rng)
        assert np.array_equal(shapley_from_game(game), loop_shapley_from_game(game)), family


class TestBenchmarkSpecOutput:
    """sha256 of analyze and allocate --method both stdout on the benchmark's
    game specs (game-random-L10's two pool specs at workload seed 201 and
    the game-tiered-L12 spec), recorded before the scans were batched."""

    SPECS = Path(__file__).parent / "data" / "benchmark_specs.json"
    DIGESTS = {
        ("random_pool_0", "analyze"):
            "04e4a735644f71eb94567ad68cda49ffc331d627017ae9b90e3b85adcae36d80",
        ("random_pool_0", "allocate"):
            "f20a70025a750bb6ad312c1ef7e1d599260b0dd677819dac8b389a88e78ede3f",
        ("random_pool_1", "analyze"):
            "0bbfadd08a2e3667201f62a2ef4834aff7c3eb21a377beb486f6afed335a6897",
        ("random_pool_1", "allocate"):
            "c1c2d5ba138155f25dec3116c17d768703e16f3100836f1cbd3caff78503a341",
        ("tiered", "analyze"):
            "cb27c49746996003c8ee266245b0592fb13857dd7221291634dbec53ec4c34ae",
        ("tiered", "allocate"):
            "752a135ae81c7762e490cab4adfe4e873f8c311aea9d8ddcfc0f52cf60cfaf66",
    }

    @pytest.mark.parametrize("name, command", sorted(DIGESTS))
    def test_stdout_digest(self, name, command, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(json.loads(self.SPECS.read_text())[name]))
        args = {"analyze": ["analyze"], "allocate": ["allocate", "--method", "both"]}[command]
        capsys.readouterr()
        assert main(args + ["--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name, command]


class TestTracedPeaks:
    """At L = 16 every batch of the scans stays within a value table: each
    traced peak is at most the per-pair loops' (measured with them in
    place, on this game) plus one 2^16-float table."""

    TABLE_MIB = 0.5
    LOOP_PEAKS_MIB = {"is_supermodular": 0.88, "prekernel_gap": 1.13, "nucleolus": 2.32}

    @staticmethod
    def peak_mib(call):
        call()  # warm: caches and lazy imports stay out of the peak
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_peaks_at_sixteen_agents(self):
        rng = np.random.default_rng(0)
        spec = DegradedSourceSpec(q=float(rng.uniform(0.15, 0.85)),
                                  p=tuple(float(rng.uniform(0.05, 0.45)) for _ in range(16)))
        game = value_function(spec)
        rates, trace = nucleolus(game)
        assert trace.route == "prekernel"
        calls = {"is_supermodular": lambda: is_supermodular(game),
                 "prekernel_gap": lambda: prekernel_gap(game, rates),
                 "nucleolus": lambda: nucleolus(game)}
        for name, call in calls.items():
            assert self.peak_mib(call) <= self.LOOP_PEAKS_MIB[name] + self.TABLE_MIB, name

    def test_additive_game_at_sixteen_agents(self):
        # its one stage fixes all 2^16 - 2 proper coalitions; a fixed system
        # that stacked them all peaked at 20.7 MiB
        game = CoalitionGame(num_agents=16, values=coalition_sums(np.arange(1, 17) / 64))
        assert self.peak_mib(lambda: nucleolus(game)) <= 8.0

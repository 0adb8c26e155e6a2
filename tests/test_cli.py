import argparse
import contextlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from keyshare import CoalitionGame, allocate, cli, suites
from keyshare.cli import main

from conftest import EXAMPLE2_VALUES, NUCLEOLUS_INTERVALS, SHAPLEY_INTERVALS


@pytest.fixture()
def example2_file(tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(json.dumps({"q": 0.40, "p": [0.20, 0.27, 0.25]}))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_example2_values(self, example2_file, capsys):
        code, out, _ = run_cli(["analyze", "--spec", example2_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["superadditive"] and payload["supermodular"]
        for mask, expected in EXAMPLE2_VALUES.items():
            assert payload["game"]["v"][mask] == pytest.approx(expected, abs=1e-5)

    def test_uninformative_source_zero_table(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"q": 0.5, "p": [0.5, 0.5]}))
        code, out, _ = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 0
        assert np.allclose(json.loads(out)["game"]["v"], 0.0, atol=1e-10)

    def test_clearance_levels_reported(self, tmp_path, capsys):
        path = tmp_path / "lev.json"
        path.write_text(json.dumps(
            {"q": 0.40, "p": [0.20, 0.27, 0.25], "levels": [[1], [2, 3]]}))
        code, out, _ = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 0
        levels = json.loads(out)["clearance_levels"]
        assert levels[0]["game"]["v"][1] == pytest.approx(EXAMPLE2_VALUES[0b001], abs=1e-5)

    def test_supermodular_pass_skips_superadditivity_scan(self, example2_file, capsys,
                                                          monkeypatch):
        from keyshare import game as game_mod

        def scan(*args, **kwargs):
            raise AssertionError("superadditivity scanned after a passing supermodularity scan")

        monkeypatch.setattr(game_mod, "is_superadditive", scan)
        code, out, _ = run_cli(["analyze", "--spec", example2_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["superadditive"] is True and payload["supermodular"] is True
        assert "superadditive_witness" not in payload

    def test_supermodular_failure_runs_superadditivity_scan(self, example2_file, capsys,
                                                            monkeypatch):
        from keyshare import game as game_mod
        calls = []

        def scan(game, *args, **kwargs):
            calls.append(game.num_agents)
            return False, (1, 2)

        monkeypatch.setattr(game_mod, "is_supermodular", lambda game: (False, (3, 5)))
        monkeypatch.setattr(game_mod, "is_superadditive", scan)
        code, out, _ = run_cli(["analyze", "--spec", example2_file], capsys)
        assert code == 0 and calls == [3]
        payload = json.loads(out)
        assert payload["superadditive"] is False and payload["superadditive_witness"] == [1, 2]
        assert payload["supermodular"] is False and payload["supermodular_witness"] == [3, 5]

    def test_core_bounds_listed_per_coalition(self, example2_file, capsys):
        code, out, _ = run_cli(["analyze", "--spec", example2_file], capsys)
        assert code == 0
        payload = json.loads(out)
        # the lower bounds are game.v itself; core_upper is indexed like it
        v, upper = payload["game"]["v"], payload["core_upper"]
        assert "core_bounds" not in payload
        assert len(upper) == 1 << payload["game"]["L"] and upper[0] == 0.0
        full = len(v) - 1
        for s in range(1, full + 1):
            assert upper[s] == v[full] - v[full & ~s]
            assert v[s] <= upper[s] + 1e-12

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 1
        assert "JSON" in err

    def test_bad_field_named(self, tmp_path, capsys):
        path = tmp_path / "nofield.json"
        path.write_text(json.dumps({"q": 0.4}))
        code, _, err = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 1
        assert "'p'" in err

    def test_agent_limit_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        from keyshare import source

        def build(self):
            raise AssertionError("entropy table built for a spec past the agent limit")

        monkeypatch.setattr(source.DegradedSourceSpec, "entropies", property(build))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.2] * (source.MAX_TABLE_AGENTS + 1)}))
        code, _, err = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 1
        assert f"L <= {source.MAX_TABLE_AGENTS}" in err

    def test_convex_game_past_the_pair_scan_limit(self, tmp_path, capsys, monkeypatch):
        from keyshare import game as game_mod

        def scan(*args, **kwargs):
            raise AssertionError("superadditivity scanned for a supermodular game")

        monkeypatch.setattr(game_mod, "is_superadditive", scan)
        num_agents = game_mod.MAX_EXHAUSTIVE_AGENTS + 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"q": 0.4, "p": np.linspace(0.05, 0.45, num_agents).tolist()}))
        code, out, _ = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["supermodular"] is True and payload["superadditive"] is True
        assert len(payload["game"]["v"]) == len(payload["core_upper"]) == 1 << num_agents


def test_one_parser_per_process(example2_file, capsys, monkeypatch):
    # main used to build the whole parser, about 1 ms, on every call
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "keyshare":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    first, second = (run_cli(["analyze", "--spec", example2_file], capsys) for _ in range(2))
    assert first == second and first[0] == 0
    assert len(built) == 1


def test_spec_commands_build_no_joint_table(example2_file, capsys, monkeypatch):
    from keyshare import source

    def refuse(self):
        raise AssertionError("dense joint table built from a spec")

    monkeypatch.setattr(source.JointSource, "__post_init__", refuse)
    for command, *extra in (("analyze",), ("allocate", "--method", "both"),
                            ("simulate", "--runs", "2")):
        code, _, err = run_cli([command, "--spec", example2_file, *extra], capsys)
        assert code == 0, f"{command}: {err}"


class TestAllocate:
    def test_example2_both_methods(self, example2_file, capsys):
        code, out, _ = run_cli(
            ["allocate", "--spec", example2_file, "--method", "both"], capsys)
        assert code == 0
        payload = json.loads(out)
        for rate, (lo, hi) in zip(payload["shapley"]["rates"], SHAPLEY_INTERVALS):
            assert lo <= rate <= hi
        for rate, (lo, hi) in zip(payload["nucleolus"]["rates"], NUCLEOLUS_INTERVALS):
            assert lo <= rate <= hi
        assert payload["shapley"]["in_core"] and payload["nucleolus"]["in_core"]
        assert payload["shapley"]["closed_form_gap"] < 1e-9

    def test_nucleolus_reports_prekernel_gap(self, tmp_path, capsys):
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"q": 0.35, "p": [0.08, 0.15, 0.22, 0.3, 0.41]}))
        code, out, _ = run_cli(["allocate", "--spec", str(path), "--method", "nucleolus"],
                               capsys)
        assert code == 0
        entry = json.loads(out)["nucleolus"]
        assert 0.0 <= entry["prekernel_gap"] <= 1e-9
        assert entry["certified"] is True

    def test_nucleolus_of_a_non_convex_game_is_not_certified(self, tmp_path, capsys):
        # v({1,2}) = v({2,3}) = v(N) = 1: the core is the point (0, 1, 0)
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"L": 3, "v": [0, 0, 0, 1, 0, 0, 1, 1]}))
        code, out, _ = run_cli(["allocate", "--game", str(path), "--method", "nucleolus"],
                               capsys)
        assert code == 0
        entry = json.loads(out)["nucleolus"]
        assert entry["prekernel_gap"] <= 1e-9 and entry["in_core"]
        assert entry["certified"] is False

    def test_game_agent_limit_checked_before_the_values(self, tmp_path, capsys):
        from keyshare import source

        path = tmp_path / "wide_game.json"
        path.write_text(json.dumps({"L": source.MAX_TABLE_AGENTS + 1, "v": [0, 1]}))
        code, _, err = run_cli(["allocate", "--game", str(path)], capsys)
        assert code == 1
        assert f"L <= {source.MAX_TABLE_AGENTS}" in err

    def test_game_file_round_trip(self, example2_file, tmp_path, capsys):
        code, out, _ = run_cli(["analyze", "--spec", example2_file], capsys)
        game_path = tmp_path / "game.json"
        game_path.write_text(json.dumps(json.loads(out)["game"]))
        code1, out1, _ = run_cli(
            ["allocate", "--spec", example2_file, "--method", "shapley"], capsys)
        code2, out2, _ = run_cli(
            ["allocate", "--game", str(game_path), "--method", "shapley"], capsys)
        assert code1 == code2 == 0
        assert json.loads(out1)["shapley"]["rates"] == json.loads(out2)["shapley"]["rates"]

    def test_single_agent_both_methods_agree(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.2]}))
        code, out, _ = run_cli(["allocate", "--spec", str(path)], capsys)
        payload = json.loads(out)
        assert payload["shapley"]["rates"][0] == pytest.approx(
            payload["nucleolus"]["rates"][0], abs=1e-10)
        assert payload["shapley"]["rates"][0] == pytest.approx(
            payload["grand_value"], abs=1e-10)

    def test_polytope_csv(self, example2_file, tmp_path, capsys):
        csv_path = tmp_path / "core.csv"
        code, out, _ = run_cli(
            ["allocate", "--spec", example2_file, "--method", "shapley",
             "--polytope-csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "R1,R2,R3"
        assert len(lines) >= 4

    @pytest.mark.parametrize("flag, content", [
        ("--spec", {"q": 0.4, "p": [0.08, 0.12]}),
        ("--game", {"L": 2, "v": [0.0, 0.1, 0.1, 0.3]})], ids=["spec", "game"])
    def test_polytope_agent_count_checked_before_any_work(self, flag, content, tmp_path,
                                                          capsys, monkeypatch):
        from keyshare import cli

        def fail(*args):
            raise AssertionError("work done for a polytope the agent count rules out")

        monkeypatch.setattr(cli, "build_degraded_source", fail)
        for name in ("shapley_from_game", "shapley_closed_form", "nucleolus"):
            monkeypatch.setattr(allocate, name, fail)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(content))
        code, _, err = run_cli(["allocate", flag, str(path), "--polytope-csv",
                                str(tmp_path / "core.csv")], capsys)
        assert code == 1 and "3-agent" in err

    def test_csv_format(self, example2_file, capsys):
        code, out, _ = run_cli(
            ["allocate", "--spec", example2_file, "--method", "both",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,R1,R2,R3"
        assert lines[1].startswith("shapley,") and lines[2].startswith("nucleolus,")
        rates = [float(x) for x in lines[1].split(",")[1:]]
        for rate, (lo, hi) in zip(rates, SHAPLEY_INTERVALS):
            assert lo - 1e-10 <= rate <= hi + 1e-10

    def test_csv_format_to_out_file(self, example2_file, tmp_path, capsys):
        out_path = tmp_path / "rates.csv"
        code, out, _ = run_cli(
            ["allocate", "--spec", example2_file, "--method", "shapley",
             "--format", "csv", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        lines = out_path.read_text().splitlines()
        assert lines[0] == "method,R1,R2,R3" and lines[1].startswith("shapley,")
        assert len(lines) == 2

    def test_requires_spec_or_game(self, capsys):
        code, _, err = run_cli(["allocate"], capsys)
        assert code == 1
        assert "--spec or --game" in err

    def test_spec_and_game_together_rejected(self, example2_file, tmp_path, capsys):
        game_path = tmp_path / "game.json"
        game_path.write_text(json.dumps(
            {"L": 3, "v": [0.0, 0.1, 0.1, 0.3, 0.1, 0.3, 0.3, 0.6]}))
        code, out, err = run_cli(
            ["allocate", "--spec", example2_file, "--game", str(game_path)], capsys)
        assert code == 1 and out == ""
        assert "exactly one of --spec or --game" in err

    def test_nan_game_value_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan_game.json"
        path.write_text('{"L": 2, "v": [0, NaN, 0.1, 0.3]}')
        code, out, err = run_cli(
            ["allocate", "--game", str(path), "--method", "shapley"], capsys)
        assert code == 1 and out == ""
        assert "'v'" in err

    def test_infinite_game_value_exits_one(self, tmp_path, capsys):
        path = tmp_path / "inf_game.json"
        path.write_text('{"L": 2, "v": [0, Infinity, 0.1, 0.3]}')
        code, out, err = run_cli(
            ["allocate", "--game", str(path), "--method", "shapley"], capsys)
        assert code == 1 and out == ""
        assert "'v'" in err


class TestSimulate:
    def test_deterministic_reports(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08, 0.12]}))
        args = ["simulate", "--spec", str(path), "--N", "64", "--B", "2",
                "--eps", "0.05", "--runs", "3", "--seed", "0xC0A117"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        rep1, rep2 = json.loads(out1), json.loads(out2)
        rep1.pop("runtime_sec"), rep2.pop("runtime_sec")
        assert rep1 == rep2
        assert set(rep1["per_agent"]) == {"1", "2"}

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_allocation_file_input(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08, 0.12]}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"method": "manual", "rates": [0.1, 0.05]}))
        code, out, _ = run_cli(
            ["simulate", "--spec", str(path), "--allocation", str(alloc),
             "--N", "64", "--B", "2", "--runs", "2"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["per_agent"]["1"]["r"] == int(128 * (0.1 - 0.05))

    def test_nan_allocation_rate_exits_one(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08, 0.12]}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"rates": [NaN, 0.05]}')
        code, out, err = run_cli(
            ["simulate", "--spec", str(path), "--allocation", str(alloc),
             "--N", "64", "--B", "2", "--runs", "1"], capsys)
        assert code == 1 and out == ""
        assert "target rates" in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_overflowing_leakage_bound_is_strict_json(self, tmp_path, capsys):
        # a target far outside the region pushes the bound past double range
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({"q": 0.5, "p": [0.49]}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"rates": [1.0]}))
        code, out, _ = run_cli(
            ["simulate", "--spec", str(path), "--allocation", str(alloc),
             "--N", "1024", "--B", "4", "--runs", "1"], capsys)
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rep = json.loads(out, parse_constant=reject)
        assert rep["leakage_bound"] is None and rep["leakage_vacuous"] is True

    def test_zero_runs_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08]}))
        code, _, err = run_cli(
            ["simulate", "--spec", str(path), "--N", "64", "--B", "2",
             "--runs", "0"], capsys)
        assert code == 1
        assert "runs" in err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08]}))
        code, out, err = run_cli(
            ["simulate", "--spec", str(path), "--N", "64", "--B", "2",
             "--runs", "1", "--seed", "-1"], capsys)
        assert code == 1 and out == ""
        assert "seed '-1'" in err

    def test_huge_run_count_exits_one_at_once(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08]}))
        t0 = time.perf_counter()
        code, out, err = run_cli(
            ["simulate", "--spec", str(path), "--runs", "1000000"], capsys)
        assert code == 1 and out == ""
        assert "exceeds the limit 33554432" in err
        assert time.perf_counter() - t0 < 5.0

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08]}))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["simulate", "--spec", str(path), "--N", "64", "--B", "2",
             "--runs", "1", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["runs"] == 1


@pytest.fixture(scope="module")
def suite_runs():
    """`verify NAME` for every single suite at seed 0, each run once:
    NAME -> (exit code, stdout lines)."""
    runs = {}
    for name in suites.SUITES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", name])
        runs[name] = (code, out.getvalue().splitlines())
    return runs


class TestVerify:
    def test_polar_suite_passes(self, suite_runs):
        code, lines = suite_runs["polar"]
        assert code == 0
        assert "[PASS] transform_involution" in lines
        assert not any("FAIL" in line for line in lines)

    def test_game_suite_passes(self, suite_runs):
        code, lines = suite_runs["game"]
        assert code == 0
        assert "[PASS] degraded_table_matches_dense" in lines
        assert "[PASS] grand_minus_complement_identity" in lines
        assert "[PASS] core_bounds_equivalence" in lines
        assert not any("FAIL" in line for line in lines)

    def test_game_suite_fails_a_non_monotone_game(self, capsys, monkeypatch):
        # v({1}) = 0.5 > v({1,2}) = 0.3, while v({2}) = 0 <= v({1,2})
        monkeypatch.setattr(suites, "value_function", lambda src: CoalitionGame(
            num_agents=2, values=np.array([0.0, 0.5, 0.0, 0.3])))
        code, out, _ = run_cli(["verify", "game"], capsys)
        assert code == 2
        line = next(l for l in out.splitlines() if "value_function_monotone" in l)
        assert line.startswith("[FAIL]")

    def test_allocation_suite_passes(self, suite_runs):
        code, lines = suite_runs["allocation"]
        assert code == 0
        assert "[PASS] shapley_dual_route_agreement" in lines
        assert "[PASS] nucleolus_prekernel_certificate" in lines
        assert not any("FAIL" in line for line in lines)

    def test_allocation_suite_fails_a_shifted_nucleolus(self, capsys, monkeypatch):
        # move 1e-6 of rate from agent 1 to agent 2 in every nucleolus the
        # suite computes; the prekernel certificate must notice (seed 4
        # draws large specs whose nucleoli take few stages)
        def shifted(game):
            rates, trace = allocate.nucleolus(game)
            return rates + 1e-6 * np.eye(len(rates))[1] - 1e-6 * np.eye(len(rates))[0], trace

        monkeypatch.setattr(suites, "allocate",
                            SimpleNamespace(**{**vars(allocate), "nucleolus": shifted}))
        code, out, _ = run_cli(["verify", "allocation", "--seed", "4"], capsys)
        assert code == 2
        line = next(l for l in out.splitlines() if "nucleolus_prekernel_certificate" in l)
        assert line.startswith("[FAIL]") and "gap 2e-06" in line

    def test_secrecy_suite_passes(self, suite_runs):
        code, lines = suite_runs["secrecy"]
        assert code == 0
        assert "[PASS] toeplitz_matches_matrix" in lines
        assert not any("FAIL" in line for line in lines)

    def test_all_runs_every_suite_in_order(self, suite_runs, capsys, monkeypatch):
        # the single suites' real lines, in the order `verify all` runs them
        assert [line for name in suites.SUITES for line in suite_runs[name][1]] == [
            f"[PASS] {name}" for name in (
                "markov_chain_verified", "degraded_table_matches_dense",
                "value_function_superadditive", "value_function_supermodular",
                "value_function_monotone", "grand_minus_complement_identity",
                "core_bounds_equivalence", "shapley_dual_route_agreement",
                "allocations_efficient", "allocations_in_core",
                "nucleolus_matches_grid_oracle", "nucleolus_prekernel_certificate",
                "nucleolus_routes_agree", "transform_involution", "transform_linear",
                "mc_profile_matches_exact", "deterministic_profile_brackets_exact",
                "profile_monotone_in_crossover",
                "leftover_hash_bound_holds", "toeplitz_two_universal", "toeplitz_matches_matrix")]
        # `verify all` runs every suite once, in that order, with the seed given
        calls = []
        monkeypatch.setattr(suites, "SUITES", {
            name: lambda seed, name=name: calls.append((name, seed)) or [
                suites.CheckResult(f"{name}_check", True)]
            for name in suites.SUITES})
        code, out, _ = run_cli(["verify", "all", "--seed", "3"], capsys)
        assert code == 0
        assert calls == [(name, 3) for name in ("game", "allocation", "polar", "secrecy")]
        assert out.splitlines() == [f"[PASS] {name}_check" for name, _ in calls]

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run_cli(["verify", "polar", "--seed", "-5"], capsys)
        assert code == 1 and out == ""
        assert "seed '-5'" in err

    def test_unknown_suite_is_validation_error(self, capsys):
        code, _, err = run_cli(["verify", "nonsense"], capsys)
        assert code == 1


TINY_SPEC = {"q": 0.4, "p": [0.08, 0.12]}
EXAMPLE2_WITH_LEVELS = '{"q": 0.4, "p": [0.2, 0.27, 0.25], "levels": %s}'


class TestLoaderInput:
    """Malformed input files exit 1 and name the file or the field."""

    @staticmethod
    def _args(kind, path, spec_path):
        return {"allocation": ["simulate", "--spec", spec_path, "--allocation", path,
                               "--N", "64", "--B", "2", "--runs", "1"],
                "game": ["allocate", "--game", path],
                "spec": ["analyze", "--spec", path]}[kind]

    @pytest.mark.parametrize("kind, text, named", [
        ("allocation", "rates: [0.1]", "JSON"),
        ("allocation", '{"rates": ["a", 0.1]}', "target rates"),
        ("allocation", '{"rates": 0.1}', "target rates"),
        ("game", '{"L": 2, "v": [0, "x", 0.1, 0.3]}', "'v'"),
        ("game", '{"L": true, "v": [0, 0.1]}', "'L'"),
        ("spec", EXAMPLE2_WITH_LEVELS % '[["a"], [2, 3]]', "'levels'"),
        ("spec", EXAMPLE2_WITH_LEVELS % "[[1.5], [2, 3]]", "'levels'"),
        # a misspelt "levels" used to run analyze without the clearance games
        ("spec", '{"q": 0.4, "p": [0.2, 0.27, 0.25], "level": [[1], [2, 3]]}',
         "unknown field(s) 'level'"),
        ("game", '{"L": 1, "v": [0, 0.1], "values": []}', "unknown field(s) 'values'"),
        ("allocation", '{"rates": [0.1, 0.05], "rate": [0.1]}', "unknown field(s) 'rate'"),
        # a boolean is no number, wherever it stands
        ("game", '{"L": 2, "v": [0, 0.1, 0.1, true]}', "'v'"),
        ("spec", '{"q": 0.4, "p": [0.2, true]}', "'p[1]'"),
        ("allocation", '{"rates": [0.1, true]}', "target rates"),
        ("spec", EXAMPLE2_WITH_LEVELS % "[[1], [2, true]]", "'levels'"),
    ], ids=["allocation-not-json", "rates-not-numbers", "rates-not-a-list", "v-not-numbers",
            "L-boolean", "level-ids-not-numbers", "level-ids-not-integers",
            "spec-unknown-field", "game-unknown-field", "allocation-unknown-field",
            "v-boolean", "p-boolean", "rates-boolean", "level-id-boolean"])
    def test_malformed_file(self, kind, text, named, tmp_path, capsys):
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps(TINY_SPEC))
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli(self._args(kind, str(path), str(spec)), capsys)
        assert code == 1 and out == ""
        assert named in err

    # a level id is any integral real, in a file as in the constructor
    def test_integral_float_level_ids_read_as_agents(self, tmp_path, capsys):
        outs = []
        for levels in ("[[1.0], [2, 3]]", "[[1], [2, 3]]"):
            path = tmp_path / "spec.json"
            path.write_text(EXAMPLE2_WITH_LEVELS % levels)
            code, out, _ = run_cli(["analyze", "--spec", str(path)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["allocation", "game", "spec"])
    def test_missing_file(self, kind, example2_file, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        code, out, err = run_cli(self._args(kind, missing, example2_file), capsys)
        assert code == 1 and out == ""
        assert missing in err


class TestUnwritableOutput:
    """An output path that cannot be written exits 1 and names the path."""

    @pytest.mark.parametrize("args", [
        ["analyze", "--out"],
        ["allocate", "--polytope-csv"],
        ["simulate", "--N", "64", "--B", "2", "--runs", "1", "--out"],
    ], ids=["analyze-out", "allocate-polytope-csv", "simulate-out"])
    def test_exits_one(self, args, example2_file, tmp_path, capsys):
        path = str(tmp_path / "absent-dir" / "out")
        code, out, err = run_cli(args[:1] + ["--spec", example2_file] + args[1:] + [path],
                                 capsys)
        assert code == 1
        assert path in err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _run_fuzzed(args, files: dict) -> None:
    """Write each document (a JSON value, or raw text), run the CLI on the
    files and check the exit-code and strict-JSON contract."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            path = Path(tmp) / name
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            paths[name] = str(path)
        out_path = Path(tmp) / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([paths.get(a, a) for a in args] + ["--out", str(out_path)])
        assert code in (0, 1)
        if code == 0:
            json.loads(out_path.read_text(), parse_constant=_reject_constant)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
NUMBERS = st.floats() | st.integers()
PROBS = st.floats(0.0, 1.0)
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _document(fields: dict):
    """A JSON object whose fields are drawn from the given strategies, each
    possibly absent or garbage; or else any other JSON value or raw text."""
    optional = {k: v | JSON_VALUES for k, v in fields.items()}
    return st.fixed_dictionaries({}, optional=optional) | JSON_VALUES | st.text(max_size=12)


class TestLoaderFuzz:
    """Whatever a loader reads, the CLI exits 0 or 1, and 0 prints strict JSON."""

    @FUZZ
    @given(_document({
        "q": PROBS | NUMBERS,
        "p": st.lists(PROBS | NUMBERS, min_size=1, max_size=3),
        "levels": st.lists(st.lists(st.integers(-1, 4) | st.floats(0.0, 4.0), max_size=3),
                           max_size=3)}))
    def test_spec_loader(self, doc):
        _run_fuzzed(["analyze", "--spec", "spec.json"], {"spec.json": doc})

    @FUZZ
    @given(st.integers(1, 3).flatmap(lambda n: _document({
        "L": st.just(n) | st.integers(-1, 4),
        "v": st.lists(st.floats(0.0) | NUMBERS, min_size=(1 << n) - 1,
                      max_size=(1 << n) - 1).map(lambda v: [0.0] + v)})))
    def test_game_loader(self, doc):
        _run_fuzzed(["allocate", "--game", "game.json", "--method", "both"], {"game.json": doc})

    @FUZZ
    @given(_document({"rates": st.lists(st.floats(0.0, 1.0) | NUMBERS, max_size=3)}))
    def test_allocation_loader(self, doc):
        _run_fuzzed(["simulate", "--spec", "spec.json", "--allocation", "alloc.json",
                     "--N", "2", "--B", "1", "--runs", "1"],
                    {"spec.json": TINY_SPEC, "alloc.json": doc})

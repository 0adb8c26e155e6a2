import json

import numpy as np
import pytest

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

    def test_requires_spec_or_game(self, capsys):
        code, _, err = run_cli(["allocate"], capsys)
        assert code == 1
        assert "--spec or --game" in err

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
        assert "'rates'" in err

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

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"q": 0.4, "p": [0.08]}))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["simulate", "--spec", str(path), "--N", "64", "--B", "2",
             "--runs", "1", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["runs"] == 1


class TestVerify:
    def test_polar_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "polar"], capsys)
        assert code == 0
        assert "[PASS] transform_involution" in out
        assert "FAIL" not in out

    def test_unknown_suite_is_validation_error(self, capsys):
        code, _, err = run_cli(["verify", "nonsense"], capsys)
        assert code == 1

"""Command-line front end.

Subcommands: analyze (value table + structural report), allocate (Shapley
and/or nucleolus, optional core-polytope CSV for three agents), simulate
(protocol runs with a JSON report), verify (invariant suites).  All
machine-readable output is JSON; CSV only for plot data.  Exit codes:
0 success, 1 input validation, 2 computation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import allocate as alloc_mod
from . import game as game_mod
from . import suites
from .errors import ValidationError
from .protocol import DEFAULT_SEED, ProtocolConfig, run_protocol
from .source import DegradedSourceSpec, build_degraded_source

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTE = 2


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ValidationError(f"seed {text!r} is not an integer (hex accepted)") from exc


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_game(args) -> game_mod.CoalitionGame:
    if getattr(args, "game", None):
        return game_mod.CoalitionGame.load(args.game)
    if getattr(args, "spec", None):
        spec = DegradedSourceSpec.from_json(args.spec)
        return game_mod.value_function(build_degraded_source(spec))
    raise ValidationError("provide --spec or --game")


def cmd_analyze(args) -> int:
    spec = DegradedSourceSpec.from_json(args.spec)
    src = build_degraded_source(spec)
    game = game_mod.value_function(src)
    sup, sup_wit = game_mod.is_superadditive(game)
    mod, mod_wit = game_mod.is_supermodular(game)
    bounds = []
    for mask in range(1, game.full_mask + 1):
        cb = game_mod.core_bounds(src, mask)
        bounds.append({"coalition": mask, "lower": cb.lower, "upper": cb.upper})
    payload = {
        "spec": spec.to_json(),
        "game": game.to_json(),
        "superadditive": sup,
        "supermodular": mod,
        "core_bounds": bounds,
    }
    if not sup:
        payload["superadditive_witness"] = list(sup_wit)
    if not mod:
        payload["supermodular_witness"] = list(mod_wit)
    if spec.z_levels:
        level_games = game_mod.clearance_level_games(src, spec.z_levels)
        payload["clearance_levels"] = [
            {"agents": list(lev), "game": g.to_json()}
            for lev, g in zip(spec.z_levels, level_games)
        ]
    _emit(payload, args.out)
    return EXIT_OK


def cmd_allocate(args) -> int:
    game = _load_game(args)
    src = None
    if args.spec:
        src = build_degraded_source(DegradedSourceSpec.from_json(args.spec))
    payload = {"L": game.num_agents, "grand_value": game.grand_value()}
    methods = ("shapley", "nucleolus") if args.method == "both" else (args.method,)
    for method in methods:
        if method == "shapley":
            rates = alloc_mod.shapley_from_game(game)
            entry = {"method": "shapley", "rates": [float(x) for x in rates]}
            if src is not None:
                closed = alloc_mod.shapley_closed_form(src)
                entry["closed_form_gap"] = float(np.max(np.abs(rates - closed)))
        else:
            rates, trace = alloc_mod.nucleolus(game)
            entry = {
                "method": "nucleolus",
                "rates": [float(x) for x in rates],
                "trace": trace.to_json(),
            }
        ok, witness = game_mod.core_contains(game, rates, tol=1e-8)
        entry["in_core"] = ok
        if not ok:
            entry["core_witness"] = witness
        payload[method] = entry
    if args.polytope_csv:
        if game.num_agents != 3:
            raise ValidationError("core polytope CSV is defined for 3-agent games")
        verts = alloc_mod.core_polytope_vertices(game)
        with open(args.polytope_csv, "w") as fh:
            fh.write("R1,R2,R3\n")
            for v in verts:
                fh.write(",".join(f"{x:.10f}" for x in v) + "\n")
        payload["polytope_csv"] = args.polytope_csv
    if args.format == "csv":
        header = "method," + ",".join(f"R{l + 1}" for l in range(game.num_agents))
        lines = [header]
        for method in methods:
            rates = payload[method]["rates"]
            lines.append(method + "," + ",".join(f"{x:.10f}" for x in rates))
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    _emit(payload, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = DegradedSourceSpec.from_json(args.spec)
    if args.allocation:
        with open(args.allocation) as fh:
            raw = json.load(fh)
        if "rates" not in raw:
            raise ValidationError("allocation file must hold field 'rates'")
        target = tuple(float(x) for x in raw["rates"])
        if not all(math.isfinite(x) for x in target):
            raise ValidationError(f"allocation field 'rates' must be finite, got {list(target)}")
    else:
        game = game_mod.value_function(build_degraded_source(spec))
        target = tuple(float(x) for x in alloc_mod.shapley_from_game(game))
    if args.runs < 1:
        raise ValidationError("--runs must be at least 1")
    cfg = ProtocolConfig(
        n=args.N, b=args.B, target=target, epsilon=args.eps,
        seed=_parse_seed(args.seed), coalition=args.coalition,
    )
    report = run_protocol(spec, cfg, args.runs)
    _emit(report, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = suites.run_suite(args.suite, seed=_parse_seed(args.seed))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if not r.passed and r.witness:
            line += f"  witness: {r.witness}"
        print(line)
    return EXIT_OK if not failed else EXIT_COMPUTE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyshare",
        description="Coalitional-game analysis and protocol simulation for "
                    "many-to-one secret-key generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="value table, game properties, core bounds")
    pa.add_argument("--spec", required=True, help="source spec JSON path")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pl = sub.add_parser("allocate", help="Shapley value and nucleolus")
    pl.add_argument("--spec", default=None, help="source spec JSON path")
    pl.add_argument("--game", default=None, help="exported game JSON path")
    pl.add_argument("--method", choices=("shapley", "nucleolus", "both"), default="both")
    pl.add_argument("--polytope-csv", default=None,
                    help="write core polytope vertices (L=3) to this CSV")
    pl.add_argument("--out", default=None)
    pl.add_argument("--format", choices=("json", "csv"), default="json")
    pl.set_defaults(func=cmd_allocate)

    ps = sub.add_parser("simulate", help="run the key-generation protocol")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--allocation", default=None,
                    help="allocation JSON (field 'rates'); default: Shapley value")
    ps.add_argument("--N", type=int, default=1024)
    ps.add_argument("--B", type=int, default=4)
    ps.add_argument("--eps", type=float, default=0.05)
    ps.add_argument("--runs", type=int, default=20)
    ps.add_argument("--seed", default=hex(DEFAULT_SEED))
    ps.add_argument("--coalition", type=int, default=None,
                    help="coalition bitmask; omit for the grand coalition")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run invariant suites")
    pv.add_argument("suite", choices=suites.SUITE_NAMES)
    pv.add_argument("--seed", default="0")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; that is input validation here
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())

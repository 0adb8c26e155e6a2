"""Command-line front end.

Subcommands: analyze (value table + structural report), allocate (Shapley
and/or nucleolus, optional core-polytope CSV for three agents), simulate
(protocol runs with a JSON report), verify (invariant suites).  All
machine-readable output is JSON; CSV only for plot data.  Exit codes:
0 success, 1 input validation, 2 computation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import allocate as alloc_mod
from . import game as game_mod
from . import suites
from .errors import ValidationError, integer
from .protocol import DEFAULT_SEED, ProtocolConfig, run_protocol
from .source import DegradedSourceSpec, _read_json_object

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTE = 2
# an allocation file is {"rates": [...]} or one method entry of allocate's output
ALLOCATION_FIELDS = ("method", "rates", "closed_form_gap", "trace", "route", "prekernel_gap",
                     "certified", "in_core", "core_witness")


def _parse_seed(text: str) -> int:
    try:
        seed = int(text, 0)
    except ValueError as exc:
        raise ValidationError(f"seed {text!r} is not an integer (hex accepted)") from exc
    return integer(seed, f"seed {text!r}")


def _json(payload: dict) -> str:
    # compact: an indent makes the json module fall back to its pure-Python encoder
    return json.dumps(payload, allow_nan=False) + "\n"


def _emit(text: str, out_path) -> None:
    """Write rendered output to out_path, or to stdout without one."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def cmd_analyze(args) -> int:
    spec = DegradedSourceSpec.from_json(args.spec)
    game = game_mod.value_function(spec)
    mod, mod_wit = game_mod.is_supermodular(game)
    # v(empty) = 0, so the supermodular pair scan over disjoint pairs is
    # the superadditivity test at the same tolerance
    sup, sup_wit = (True, None) if mod else game_mod.is_superadditive(game)
    # the core's lower bounds are game.v itself; print the upper ones only
    _, upper = game_mod.core_bounds(game)
    payload = {
        "spec": spec.to_json(),
        "game": game.to_json(),
        "superadditive": sup,
        "supermodular": mod,
        "core_upper": upper.tolist(),
    }
    if not sup:
        payload["superadditive_witness"] = list(sup_wit)
    if not mod:
        payload["supermodular_witness"] = list(mod_wit)
    if spec.levels:
        level_games = game_mod.clearance_level_games(spec, spec.levels)
        payload["clearance_levels"] = [
            {"agents": list(lev), "game": g.to_json()}
            for lev, g in zip(spec.levels, level_games)
        ]
    _emit(_json(payload), args.out)
    return EXIT_OK


def cmd_allocate(args) -> int:
    if bool(args.spec) == bool(args.game):
        raise ValidationError("provide exactly one of --spec or --game")
    spec = DegradedSourceSpec.from_json(args.spec) if args.spec else None
    game = game_mod.CoalitionGame.load(args.game) if args.game else None
    if args.polytope_csv and (spec or game).num_agents != 3:
        # refuse before any value table or allocation is computed
        raise ValidationError("core polytope CSV is defined for 3-agent games")
    game = game or game_mod.value_function(spec)
    payload = {"L": game.num_agents, "grand_value": game.grand_value()}
    methods = ("shapley", "nucleolus") if args.method == "both" else (args.method,)
    for method in methods:
        if method == "shapley":
            rates = alloc_mod.shapley_from_game(game)
            entry = {"method": "shapley", "rates": [float(x) for x in rates]}
            if spec is not None:
                closed = alloc_mod.shapley_closed_form(spec)
                entry["closed_form_gap"] = float(np.max(np.abs(rates - closed)))
        else:
            rates, trace = alloc_mod.nucleolus(game)
            gap = alloc_mod.prekernel_gap(game, rates)
            entry = {
                "method": "nucleolus",
                "rates": [float(x) for x in rates],
                "trace": trace.to_json(),
                "route": trace.route,
                "prekernel_gap": gap,
                # a convex game's prekernel is its nucleolus alone
                "certified": gap <= 1e-9 and trace.convex,
            }
        ok, witness = game_mod.core_contains(game, rates, tol=1e-8)
        entry["in_core"] = ok
        if not ok:
            entry["core_witness"] = witness
        payload[method] = entry
    if args.polytope_csv:
        verts = alloc_mod.core_polytope_vertices(game)
        _emit("R1,R2,R3\n" + "".join(",".join(f"{x:.10f}" for x in v) + "\n" for v in verts),
              args.polytope_csv)
        payload["polytope_csv"] = args.polytope_csv
    if args.format == "csv":
        lines = ["method," + ",".join(f"R{l + 1}" for l in range(game.num_agents))]
        lines += [m + "," + ",".join(f"{x:.10f}" for x in payload[m]["rates"]) for m in methods]
        text = "\n".join(lines) + "\n"
    else:
        text = _json(payload)
    _emit(text, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = DegradedSourceSpec.from_json(args.spec)
    if args.allocation:
        # ProtocolConfig checks the rates as its target
        target = _read_json_object(args.allocation, "allocation", ALLOCATION_FIELDS).get("rates")
    else:
        game = game_mod.value_function(spec)
        target = tuple(float(x) for x in alloc_mod.shapley_from_game(game))
    cfg = ProtocolConfig(
        n=args.N, b=args.B, target=target, epsilon=args.eps,
        seed=_parse_seed(args.seed), coalition=args.coalition,
    )
    report = run_protocol(spec, cfg, args.runs)
    _emit(_json(report), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _parse_seed(args.seed)
    # argparse's choices limit the name to SUITE_NAMES
    names = suites.SUITES if args.suite == "all" else (args.suite,)
    results = [result for name in names for result in suites.SUITES[name](seed)]
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if not r.passed and r.witness:
            line += f"  witness: {r.witness}"
        print(line)
    return EXIT_OK if not failed else EXIT_COMPUTE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as it is."""
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
                    help="allocation JSON (field 'rates', or one method entry of "
                         "allocate's output); default: Shapley value")
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

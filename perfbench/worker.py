"""One repetition of a workload in a fresh interpreter.

Started by run.py with keyshare's ``src`` as the only extra import path.  It
times the workload's public entry points, checks their outputs and prints one
JSON object as its last stdout line; ``e2e_s`` holds one time per pass over
the timed calls (``--passes``).  ``--mode setup`` stops after the import;
``--mode traced`` installs the span tracer around the calls and, with
``--reference``, runs each timed call once more untraced right after
its traced run, so the run can report tracing overhead from adjacent pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

import workloads
from tracer import Tracer


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Simulate:
    """Cold engine build in setup, then the warm 100-run run_protocol call."""

    def __init__(self, inputs):
        from keyshare import allocate, game, protocol, source

        self.inputs, self.protocol = inputs, protocol
        self.spec = source.DegradedSourceSpec(q=inputs["spec"]["q"], p=tuple(inputs["spec"]["p"]))
        # the CLI default target: the Shapley value of the value table
        target = allocate.shapley_from_game(game.value_function(source.build_degraded_source(self.spec)))
        self.cfg = protocol.ProtocolConfig(n=inputs["n"], b=inputs["b"], target=tuple(target),
                                           epsilon=inputs["epsilon"], seed=inputs["protocol_seed"])
        self.batches = []
        engine_cls = protocol.ProtocolEngine
        simulate_runs = engine_cls.simulate_runs

        def capture(engine, run_indices):
            res = simulate_runs(engine, run_indices)
            self.batches.append(res)
            return res

        engine_cls.simulate_runs = capture  # keeps each batch for the replay check

    def setup(self) -> float:
        self.engine, build_s = _timed(self.protocol.ProtocolEngine, self.spec, self.cfg)
        return build_s

    def calls(self):
        run = functools.partial(self.protocol.run_protocol, self.spec, self.cfg, self.inputs["runs"])
        return [("simulate_s", lambda: (run(), self.batches[-1]))]

    def check(self, outputs, replay: bool):
        checks, keys_total, key_failures = {}, 0, 0
        for i, (report, batch) in enumerate(outputs):
            checks.update({f"call{i}.{k}": ok
                           for k, ok in workloads.check_simulate(self.inputs, report).items()})
            agents = report["per_agent"].values()
            keys_total += report["runs"] * len(agents)
            key_failures += sum(a["agreement_failures"] for a in agents)
        if replay:
            k = self.inputs["replay_run"]
            batch, again = outputs[0][1], self.engine.simulate_runs([k])
            keys, ref = again["keys"][0], batch["keys"][k]
            checks["replay_bitexact"] = (
                again["transcripts"][0].to_bytes() == batch["transcripts"][k].to_bytes()
                and sorted(keys.keys) == sorted(ref.keys)
                and all((keys.keys[a] == ref.keys[a]).all()
                        and (keys.base_keys[a] == ref.base_keys[a]).all() for a in ref.keys))
        # each check is one more operation; a key disagreement is a failed one
        failed = key_failures + sum(not ok for ok in checks.values())
        return checks, keys_total + len(checks), failed

    def fingerprint(self, outputs) -> dict:
        agents = outputs[0][0]["per_agent"].values()
        return {"public_bits_per_run": sum(self.inputs["b"] * a["first_stage_bits_per_block"]
                                           + a["final_round_bits"] for a in agents),
                "r": [a["r"] for a in agents],
                "agreement_failures": sum(a["agreement_failures"] for a in agents)}


class Games:
    """analyze and allocate --method both through keyshare.cli.main, per spec."""

    def __init__(self, inputs):
        from keyshare import cli

        self.cli, self.paths = cli, inputs["spec_paths"]

    def setup(self) -> float:
        return 0.0

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        try:
            payload = json.loads(buf.getvalue()) if rc == 0 else None
        except json.JSONDecodeError:
            payload = None
        return rc, payload

    def calls(self):
        out = []
        for path in self.paths:
            out.append(("analyze_s", functools.partial(self._cli, ["analyze", "--spec", path])))
            out.append(("allocate_s", functools.partial(
                self._cli, ["allocate", "--spec", path, "--method", "both"])))
        return out

    def check(self, outputs, replay: bool):
        checks, failed_cmds = {}, 0
        for i in range(0, len(outputs), 2):
            (rc_an, an), (rc_al, al) = outputs[i], outputs[i + 1]
            an_checks = workloads.check_analyze(an)
            values = None if "analyze_fields" in an_checks else an["game"]["v"]
            per_cmd = (dict(an_checks, exit0=rc_an == 0),
                       dict(workloads.check_allocate(al, values), exit0=rc_al == 0))
            for cmd, res in zip(("analyze", "allocate"), per_cmd):
                failed_cmds += not all(res.values())
                checks.update({f"spec{i // 2}.{cmd}.{k}": ok for k, ok in res.items()})
        return checks, len(outputs), failed_cmds

    def fingerprint(self, outputs) -> dict:
        fixed = []
        for _, al in outputs[1::2]:
            try:
                fixed.append([stage["fixed"] for stage in al["nucleolus"]["trace"]])
            except (KeyError, TypeError):
                fixed.append(None)
        return {"nucleolus_fixed": fixed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", required=True, help="inputs JSON written by run.py")
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--mode", choices=("plain", "traced", "setup"), default="plain")
    ap.add_argument("--passes", type=int, default=1, help="passes over the timed calls")
    ap.add_argument("--reference", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    import keyshare

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(keyshare.__file__)))
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.monotonic() - args.t0, "keyshare": src_dir}))
        return 0

    traced = args.mode == "traced"
    job = (Simulate if args.workload == workloads.SIMULATE else Games)(inputs)
    tracer = Tracer()
    if traced:
        tracer.install()
    tracer.enabled = traced
    build_s = job.setup()
    tracer.enabled = False
    setup_s = time.monotonic() - args.t0

    timed_from = time.perf_counter()
    passes, outputs, ref_outputs, ref_s = [], [], [], 0.0

    def untraced(fn):
        nonlocal ref_s
        tracer.uninstall()
        out, dt = _timed(fn)
        tracer.install()
        ref_outputs.append(out)
        ref_s += dt

    for _ in range(args.passes):
        calls = {}
        for name, fn in job.calls():
            tracer.enabled = traced
            out, dt = _timed(fn)
            tracer.enabled = False
            calls[name] = calls.get(name, 0.0) + dt
            outputs.append(out)
            if args.reference:
                untraced(fn)
        passes.append(calls)
    e2e_s = [sum(calls.values()) for calls in passes]

    checks, attempted, failed = job.check(outputs, replay=True)
    if ref_outputs:
        ref_checks, ref_attempted, ref_failed = job.check(ref_outputs, replay=False)
        checks.update({f"reference.{k}": ok for k, ok in ref_checks.items()})
        attempted, failed = attempted + ref_attempted, failed + ref_failed
    out = {"keyshare": src_dir, "setup_s": setup_s, "e2e_s": e2e_s, "calls": passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "fingerprint": job.fingerprint(outputs), "attempted": attempted, "failed": failed,
           "failed_checks": sorted(k for k, ok in checks.items() if not ok)}
    if traced:
        out["counts"] = dict(tracer.counts, **{
            "protocol.public_bits_per_run": out["fingerprint"].get("public_bits_per_run", 0)})
        out["layers"] = dict(tracer.layers(build_s + sum(e2e_s), timed_from), **out["counts"])
        out["missing"] = sorted(tracer.missing)
        out["reference_e2e_s"] = ref_s
        if args.spans:
            tracer.write(args.spans, args.workload, args.rep)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

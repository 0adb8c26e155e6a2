"""Span tracer that the benchmark installs around keyshare's public functions.

Nothing in keyshare knows about it: each wrapper replaces a module or class
attribute that callers look up at call time (``keyshare.protocol.sc_decode``,
``keyshare.allocate.lp_solve``, ...), records one span per call and bumps the
layer's work counters.  Spans stay in memory until the worker writes them out.
A wrapped function that no longer exists is reported missing, not fatal, so
the benchmark keeps running across refactors that rename a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (span name, modules whose attribute is replaced, attribute path, layer metric
# that receives the span's self time).  A class attribute is replaced once on
# the class, which every module shares.
TARGETS = (
    ("polar.profile_lookup", ("keyshare.polar",), "ProfileCache.monte_carlo", "polar.profile_s"),
    ("polar.profile_build", ("keyshare.polar",), "entropy_profile_mc", "polar.profile_s"),
    ("polar.sc_decode", ("keyshare.protocol",), "sc_decode", "polar.sc_decode_s"),
    ("polar.transform", ("keyshare.protocol",), "polar_transform", "polar.transform_s"),
    ("protocol.engine", ("keyshare.protocol",), "ProtocolEngine.__init__", "protocol.calibration_s"),
    ("protocol.sample_hash", ("keyshare.protocol",), "sample_hash", "protocol.hash_s"),
    ("protocol.hash_apply", ("keyshare.protocol",), "ToeplitzHash.apply", "protocol.hash_s"),
    ("protocol.simulate_runs", ("keyshare.protocol",), "ProtocolEngine.simulate_runs",
     "protocol.runs_self_s"),
    ("protocol.run_protocol", ("keyshare.protocol",), "run_protocol", "protocol.report_s"),
    ("source.mutual_information", ("keyshare.source", "keyshare.game", "keyshare.allocate"),
     "mutual_information", "source.mi_s"),
    ("game.value_function", ("keyshare.game", "keyshare.protocol"), "value_function",
     "game.value_table_s"),
    ("game.is_superadditive", ("keyshare.game",), "is_superadditive", "game.superadditive_s"),
    ("game.is_supermodular", ("keyshare.game",), "is_supermodular", "game.supermodular_s"),
    ("game.core_bounds", ("keyshare.game",), "core_bounds", "game.core_bounds_s"),
    ("game.clearance_level_games", ("keyshare.game",), "clearance_level_games", "game.clearance_s"),
    ("game.core_contains", ("keyshare.game", "keyshare.protocol"), "core_contains",
     "game.core_check_s"),
    ("allocate.shapley_from_game", ("keyshare.allocate",), "shapley_from_game", "allocate.shapley_s"),
    ("allocate.shapley_closed_form", ("keyshare.allocate",), "shapley_closed_form",
     "allocate.shapley_closed_form_s"),
    ("allocate.nucleolus", ("keyshare.allocate",), "nucleolus", "allocate.nucleolus_s"),
    ("allocate.lp_solve", ("keyshare.allocate",), "lp_solve", "allocate.lp_s"),
    ("cli.main", ("keyshare.cli",), "main", "cli.self_s"),
)

TIME_METRICS = tuple(dict.fromkeys(metric for *_, metric in TARGETS))


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(x.size // shape[-1]) if len(shape) > 1 else 1


def _count_sc_decode(counts, args, out):
    counts["polar.sc_decode_rows"] += _rows(args[2])


def _count_transform(counts, args, out):
    counts["polar.transform_rows"] += _rows(args[0])


def _count_hash_apply(counts, args, out):
    hasher, x = args[0], args[1]
    rows = _rows(x)
    counts["protocol.hash_rows"] += rows
    counts["protocol.hash_bits_out"] += rows * int(hasher.r_out)


def _count_nucleolus(counts, args, out):
    stages = out[1].stages
    counts["allocate.nucleolus_stages"] += len(stages)
    counts["allocate.coalitions_fixed"] += sum(len(s.fixed_coalitions) for s in stages)


def _counter(name):
    def count(counts, args, out):
        counts[name] += 1
    return count


COUNTERS = {
    "polar.profile_build": _counter("polar.profile_builds"),
    "polar.sc_decode": _count_sc_decode,
    "polar.transform": _count_transform,
    "protocol.hash_apply": _count_hash_apply,
    "source.mutual_information": _counter("source.mi_calls"),
    "allocate.nucleolus": _count_nucleolus,
    "allocate.lp_solve": _counter("allocate.lp_solves"),
}

COUNT_NAMES = ("polar.profile_builds", "polar.sc_decode_rows", "polar.transform_rows",
               "protocol.hash_rows", "protocol.hash_bits_out", "source.mi_calls",
               "allocate.nucleolus_stages", "allocate.coalitions_fixed", "allocate.lp_solves")


class Tracer:
    """Records spans [id, parent, name, start, end] while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for name, modules, path, _ in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            targets = []
            for mod_name in modules:
                try:
                    owner = importlib.import_module(mod_name)
                    if owner_path:
                        owner = getattr(owner, owner_path)
                    fn = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    continue
                targets.append((owner, fn))
            if not targets:
                self.missing.add(name)
                continue
            original = targets[0][1]
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            for owner, fn in targets:
                if fn is original:
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [len(tracer.spans), stack[-1] if stack else -1, name, time.perf_counter(), 0.0]
            tracer.spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    count(tracer.counts, args, out)
                except (AttributeError, IndexError, TypeError):
                    tracer.missing.add(f"{name}:count")
            return out

        return wrapper

    def layers(self, window_s: float, timed_from: float) -> dict:
        """Per-layer self times and counts over every recorded span.

        window_s is the wall time of the traced entry-point calls; the part of
        it that no root span covers is the benchmark's own top-level self time.
        Profile lookups that start at or after timed_from belong to the warm
        call and give the hit ratio.
        """
        child = [0.0] * len(self.spans)
        roots = 0.0
        built_under = set()
        for sid, parent, name, start, end in self.spans:
            if parent < 0:
                roots += end - start
            else:
                child[parent] += end - start
            if name == "polar.profile_build" and parent >= 0:
                built_under.add(parent)
        metric_of = {name: metric for name, _, _, metric in TARGETS}
        out = dict.fromkeys(TIME_METRICS, 0.0)
        lookups = hits = 0
        for sid, parent, name, start, end in self.spans:
            out[metric_of[name]] += end - start - child[sid]
            if name == "polar.profile_lookup" and start >= timed_from:
                lookups += 1
                hits += sid not in built_under
        out["polar.profile_hit_ratio"] = hits / lookups if lookups else 0.0
        tests = self.counts["allocate.lp_solves"] - self.counts["allocate.nucleolus_stages"]
        out["allocate.binding_tests"] = tests
        out["allocate.binding_yield"] = (self.counts["allocate.coalitions_fixed"] / tests
                                         if tests else 0.0)
        out["bench.top_self_s"] = window_s - roots
        accounted = sum(out[m] for m in TIME_METRICS) + out["bench.top_self_s"]
        out["bench.accounting_error"] = abs(accounted - window_s) / window_s
        return out

    def write(self, path: str, workload: str, rep: int) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                     "end": end, "workload": workload, "rep": rep}) + "\n")

"""keyshare benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workloads, their reasons and the
metric names live in BENCHMARK.json next to this directory.  This one
process makes the workload's inputs from --seed and runs each repetition in a
fresh Python worker, one at a time, with keyshare imported from ./src, the
profile-cache variable removed and every BLAS/OpenMP pool capped at one
thread.

--trace 0 times the public entry points and prints the end-to-end metrics:
repetitions continue while another one fits in --seconds (at least one); a
simulate-ex2 worker makes two warm calls after its cold setup, and on the
game workloads two extra workers that only import keyshare add setup
samples.  --trace 1 runs two traced repetitions for the per-layer metrics;
the first also runs each timed call untraced right after its traced twin,
which gives the tracing overhead.  Every repetition's outputs are checked, and the work
counts must repeat exactly across repetitions.

The last stdout line is the JSON result; the line before it holds the
context (environment, per-call times, failed checks).  Inputs, spans and
results are written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2
DEADLINE_S = 175.0
MAX_ACCOUNTING_ERROR = 0.05


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KEYSHARE_PROFILE_CACHE"}
    env.update(THREAD_CAPS, PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def write_inputs(workload: str, seed: int) -> str:
    inputs = workloads.make_inputs(workload, seed)
    folder = os.path.join(OUT, "inputs", f"{workload}-seed{seed}")
    os.makedirs(folder, exist_ok=True)
    if "specs" in inputs:
        inputs["spec_paths"] = []
        for i, spec in enumerate(inputs["specs"]):
            path = os.path.join(folder, f"spec{i}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            inputs["spec_paths"].append(path)
    path = os.path.join(folder, "inputs.json")
    with open(path, "w") as fh:
        json.dump(inputs, fh)
    return path


class Runner:
    def __init__(self, workload: str, seed: int, inputs_path: str):
        self.workload, self.seed, self.inputs_path = workload, seed, inputs_path
        self.env = worker_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode: str, rep: int, reference: bool = False, passes: int = 1) -> dict:
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--inputs", self.inputs_path, "--rep", str(rep), "--t0", repr(t0), "--mode", mode,
               "--passes", str(passes)] + (["--reference"] if reference else [])
        if mode == "traced":
            cmd += ["--spans", os.path.join(OUT, f"spans-{self.workload}-seed{self.seed}-rep{rep}.jsonl")]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - t0, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker {rep} did not finish in time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker {rep} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        if os.path.realpath(res["keyshare"]) != os.path.realpath(SRC):
            raise BenchError(f"worker imported keyshare from {res['keyshare']}, not {SRC}")
        res["wall_s"] = time.monotonic() - t0
        return res


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "worker_env": THREAD_CAPS}


def median(values):
    return float(statistics.median(values))


def run_plain(runner: Runner, seconds: float):
    reps, start = [], time.monotonic()
    passes = workloads.PASSES.get(runner.workload, 1)
    while True:
        reps.append(runner.spawn("plain", len(reps), passes=passes))
        longest = max(r["wall_s"] for r in reps)
        if time.monotonic() - start + longest > seconds:
            break
    setup = [r["setup_s"] for r in reps]
    if runner.workload != workloads.SIMULATE:
        # setup here is only the import, so a few more samples are cheap
        setup += [runner.spawn("setup", len(reps) + i)["setup_s"] for i in range(SETUP_PROBES)]
    e2e = [t for r in reps for t in r["e2e_s"]]
    metrics = {"setup_s": median(setup), "e2e_s": median(e2e),
               "peak_rss_mb": median([r["peak_rss_mb"] for r in reps])}
    return reps, metrics, {"setup_samples": setup, "e2e_samples": e2e}


def run_traced(runner: Runner, per_layer: list[str]):
    # only the first repetition runs the untraced twins: a traced simulate-ex2
    # repetition already pays a cold build, and the run must end within 180 s
    reps = [runner.spawn("traced", 0, reference=True), runner.spawn("traced", 1)]
    counts = [r["counts"] for r in reps]
    layers = {name: median([r["layers"][name] for r in reps])
              for name in per_layer if name in reps[0]["layers"]}
    missing = sorted({m for r in reps for m in r["missing"]})
    layers.update({
        "bench.traced_e2e_s": median([sum(r["e2e_s"]) for r in reps]),
        "bench.accounting_error": max(r["layers"]["bench.accounting_error"] for r in reps),
        "bench.trace_overhead": sum(reps[0]["e2e_s"]) / reps[0]["reference_e2e_s"] - 1.0,
        "bench.missing_layers": len(missing),
    })
    extra = {"counts_repeat": all(c == counts[0] for c in counts),
             "accounting_within_5pct": layers["bench.accounting_error"] <= MAX_ACCOUNTING_ERROR}
    return reps, layers, {"missing_layers": missing, "counts": counts[0], "bench_checks": extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "keyshare", "__init__.py")):
        print(f"error: no keyshare sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed, write_inputs(args.workload, args.seed))
    try:
        if args.trace:
            reps, metrics, detail = run_traced(runner, [m["name"] for m in bench["per_layer"]])
        else:
            reps, metrics, detail = run_plain(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    bench_checks = detail.pop("bench_checks", {})
    if len(reps) > 1:
        bench_checks["outputs_repeat"] = all(r["fingerprint"] == reps[0]["fingerprint"] for r in reps)
    attempted += len(bench_checks)
    failed += sum(not ok for ok in bench_checks.values())
    failed_checks = sorted({c for r in reps for c in r["failed_checks"]}
                           | {c for c, ok in bench_checks.items() if not ok})
    if args.trace:
        metrics["bench.op_failure_rate"] = failed / attempted
    calls = {k: median([p[k] for r in reps for p in r["calls"]]) for k in reps[0]["calls"][0]}
    context = {"workload": args.workload, "why": why[args.workload], "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "repetitions": len(reps),
               "environment": environment(), "calls": calls, "failed_checks": failed_checks,
               **detail}
    result = {"correct": not failed_checks, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

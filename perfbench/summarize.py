"""Median and quartile spread of the results run.py has written.

    python3 perfbench/summarize.py [--baseline OUT.json --label TEXT]

Reads every .bench_build/perfbench/result-*.json in the checkout, groups the
runs by workload and by traced/untraced, and prints for each metric the run
count, the median and the spread (distance between the first and third
quartile as a share of the median).  With --baseline the same table is
written as JSON together with the environment of the runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

from run import OUT


def summarize(results: list[dict]) -> dict:
    table: dict = {}
    for res in results:
        ctx = res["context"]
        group = table.setdefault(ctx["workload"], {}).setdefault(
            "per_layer" if ctx["trace"] else "end_to_end", {})
        for name, metric in res["result"]["metrics"].items():
            group.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"])
    for groups in table.values():
        for group in groups.values():
            for entry in group.values():
                values = entry.pop("values")
                med = statistics.median(values)
                entry.update(runs=len(values), median=med)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    entry["spread"] = (q3 - q1) / med if med else 0.0
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=None, help="write the summary to this JSON file")
    ap.add_argument("--label", default="", help="what was measured, stored with --baseline")
    args = ap.parse_args(argv)
    results = []
    for path in sorted(glob.glob(os.path.join(OUT, "result-*.json"))):
        with open(path) as fh:
            results.append(json.load(fh))
    if not results:
        print(f"no results under {OUT}")
        return 1
    table = summarize(results)
    for workload, groups in sorted(table.items()):
        for kind, group in groups.items():
            print(f"{workload} ({kind})")
            for name, e in group.items():
                spread = f"{e['spread']:.3f}" if "spread" in e else "-"
                print(f"  {name:34s} n={e['runs']:<3d} median={e['median']:<14.6g}"
                      f" spread={spread} {e['unit']}")
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump({"label": args.label, "environment": results[0]["context"]["environment"],
                       "workloads": table}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

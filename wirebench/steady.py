#!/usr/bin/env python3
"""Steadiness self-check for the wirebench benchmark.

Runs the command in BENCHMARK.json once per seed on one workload and
reports, for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound. It also reads the full per-run records the
benchmark writes to wirebench/out/, so every per-op figure of the ledger
(exchange.p50_us, cdc_lag.p95_us, write_amp, ...) gets the same summary.

Run it from the repository root:

    python3 wirebench/steady.py --workload bulk_exchange --runs 10 --seed0 1
    python3 wirebench/steady.py --workload ingest_cdc --runs 5 --trace 1

Every run measures for run_seconds from BENCHMARK.json. Exits 1 if any
run fails, reports a wrong answer, or (with --trace 0) an end-to-end
metric spreads wider than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}

    results, records, ok = [], [], True
    for seed in range(args.seed0, args.seed0 + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        began = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        took = time.monotonic() - began
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        results.append(result)
        if not result["correct"] or result["failed"]:
            ok = False
        path = os.path.join(
            "wirebench", "out", f"{args.workload}-seed{seed}-trace{args.trace}.json")
        if os.path.exists(path):
            with open(path) as f:
                records.append(json.load(f))
        brief = "" if args.trace else ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({took:.1f} s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {brief}", flush=True)

    if not results:
        print("no successful runs")
        return 1

    print(f"\n{args.workload} over {len(results)} seeds "
          f"({args.seed0}..{args.seed0 + args.runs - 1}), {seconds} s each:")
    print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    names = list(results[0]["metrics"])
    for rec in records:
        for name in rec["metrics"]:
            if name not in names:
                names.append(name)
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < len(results):
            values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        if not values:
            continue
        med, q1, q3, spread = summarize(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  WIDER THAN BOUND"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {shown:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Spread report: run each workload K times, one seed per run, and print
every metric's median, quartiles and relative spread (q3 - q1) / median.

    python3 perfbench/spread.py [--runs K] [--first-seed N] [--trace 0|1]
                                [--workloads a,b,...]

Run it from the root of a checkout. The spread of an end-to-end metric is
compared with its bound in BENCHMARK.json: the benchmark is steady when
every spread, setup_s aside, is below a third of its bound. Each run's
result line and info line are also written to perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    return json.loads(lines[-1]), info


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    steady = True
    for workload in a.workloads.split(","):
        runs = []
        for k in range(a.runs):
            seed = a.first_seed + k
            result, info = run_once(workload, seed, bench["run_seconds"], a.trace)
            runs.append({"seed": seed, "result": result, "info": info})
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        with open(os.path.join(HERE, "out", "spread-%s.json" % workload), "w") as f:
            json.dump(runs, f, indent=1)
        info = runs[0]["info"]
        print("\n%s: %d runs, nproc %s, jobs %s, ocaml %s, n %s, hosts %s, seeds %d..%d" % (
            workload, len(runs), info.get("nproc"), info.get("jobs"), info.get("ocaml_version"),
            info.get("n"), info.get("hosts"), a.first_seed, a.first_seed + a.runs - 1))
        print("%-34s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print("%-34s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                name, med, q1, q3, spread, "" if bound is None else bound, flag))
        print()
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()

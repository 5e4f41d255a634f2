#!/usr/bin/env python3
"""Run each benchmark workload N times on one build and summarise.

    python3 perfbench/repeat.py [--runs N] [--sets K] [--first-seed S]
                                [--workload NAME ...] [--trace 0|1]
                                [--seconds S] [--out FILE] [--from FILE]

Run from the repository root. The command, run length, workloads and
metric bounds come from BENCHMARK.json. For every workload and metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread, (q3 - q1) / median, against the metric's bound: "ok" when the
spread is below a third of the bound, "within" when below the bound,
"WIDE" otherwise. With --sets K it runs K sets
of N runs on consecutive seeds, prints each set's spread (the verdict
takes the widest) and how far each later set's median moved from the
first set's, in the metric's worse direction, against the bound. The
share of failed operations is printed per set. --out saves the raw
results; --from summarises such a file again without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--from", dest="saved")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    saved = None
    if args.saved:
        with open(args.saved) as f:
            saved = json.load(f)
        workloads = args.workload or list(saved)
    raw = {}
    seed = args.first_seed
    for workload in workloads:
        if saved is not None:
            sets = saved[workload]
        else:
            sets = []
            for _ in range(args.sets):
                runs = []
                for _ in range(args.runs):
                    r = run_once(bench, workload, seed, seconds, args.trace)
                    seed += 1
                    print(f"  {workload} seed {r['seed']}: correct {r['correct']}, "
                          f"{r['failed']}/{r['attempted']} failed, {r['wall_s']:.1f} s",
                          file=sys.stderr)
                    runs.append(r)
                sets.append(runs)
        raw[workload] = sets

        n_sets, n_runs = len(sets), len(sets[0])
        print(f"\n## {workload} ({n_sets} x {n_runs} runs, {seconds} s each)")
        for i, runs in enumerate(sets):
            share = [r["failed"] / r["attempted"] for r in runs]
            walls = [r["wall_s"] for r in runs]
            print(f"set {i + 1}: seeds {runs[0]['seed']}-{runs[-1]['seed']}, "
                  f"all correct: {all(r['correct'] for r in runs)}, "
                  f"failed share {min(share):.6g}..{max(share):.6g}, "
                  f"wall {min(walls):.1f}-{max(walls):.1f} s")
        header = f"{'metric':<28} {'unit':<12} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
        if not args.trace:
            header += f" {'bound':>7}  verdict"
        if n_sets > 1:
            header += "   worst shift  spread per set"
        print(header)
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in sets[0]]
            median, q1, q3, spread = summarise(values)
            set_spreads = [summarise([r["metrics"][name]["value"] for r in runs])[3]
                           for runs in sets]
            line = f"{name:<28} {m['unit']:<12} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>7.1%}"
            if not args.trace:
                bound = m["bound"]
                widest = max(set_spreads)
                if widest < bound / 3:
                    verdict = "ok"
                elif widest <= bound:
                    verdict = "within"
                else:
                    verdict = "WIDE"
                line += f" {bound:>6.0%}  {verdict:<7}"
            if n_sets > 1 and median:
                shifts = []
                for later in sets[1:]:
                    m2 = statistics.median(r["metrics"][name]["value"] for r in later)
                    worse = (m2 - median) / median
                    shifts.append(-worse if m["better"] == "higher" else worse)
                line += f"   {max(shifts):>+10.1%}  " + " ".join(f"{x:.1%}" for x in set_spreads)
            print(line)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

Usage, from the repository root:
    python3 perfbench/spread.py --workload topology --seeds 1-10 [--seconds 20]
        [--against earlier.jsonl]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4). Raw result lines are appended to
--out (default .bench_build/spread-<workload>.jsonl). With --against,
each median is also compared with the median of the runs in that file
(an earlier --out), signed so that a positive change is worse.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--against")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    out = a.out or os.path.join(".bench_build", "spread-%s.jsonl" % a.workload)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    runs = []
    for s in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(s),
                                  "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (s, p.returncode, p.stderr))
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit("seed %d: incorrect result\n%s" % (s, p.stderr))
        with open(out, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": s, "result": res}) + "\n")
        runs.append(res)
        print("seed %d: %s" % (s, {k: v["value"] for k, v in res["metrics"].items()}), flush=True)
    before = []
    if a.against:
        with open(a.against) as f:
            before = [json.loads(line)["result"] for line in f
                      if json.loads(line)["workload"] == a.workload]
    worst = 0.0
    for m in bench["end_to_end"]:
        xs = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        worst = max(worst, spread / m["bound"])
        line = "%-20s median %-14.6g spread %6.2f%%  bound %4.0f%%  spread/bound %.2f" % (
            m["name"], med, 100 * spread, 100 * m["bound"], spread / m["bound"])
        if before:
            old = statistics.median(r["metrics"][m["name"]]["value"] for r in before)
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += "  vs earlier %+.2f%%" % (100 * worse)
        print(line)
    print("worst spread/bound: %.2f" % worst)

if __name__ == "__main__":
    main()

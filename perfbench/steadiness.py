#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of the same build agree.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the root of the repository. For every workload it makes two sets of
--runs untraced runs (set A with seeds 1..N, set B with seeds 101..100+N) and
reports, per end-to-end metric of BENCHMARK.json, each set's median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
The sets agree on a metric when each set's spread is within the metric's
bound and their medians differ by no more than the bound, |B - A| / A, in
either direction; they agree on a workload when, in addition, every run of
both sets failed the same share of its operations. Exits 0 when everything
agrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    steady = True
    for w in args.workloads.split(","):
        sets = []
        for base in (0, 100):
            sets.append([run_once(w, base + i + 1, args.seconds) for i in range(args.runs)])
        shares = [sorted({r["failed"] / r["attempted"] for r in s}) for s in sets]
        print("%s  failed share A=%s B=%s" % (w, shares[0], shares[1]))
        ok_w = shares[0] == shares[1] and len(shares[0]) == 1
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            diff = (b[0] - a[0]) / a[0]
            agree = a[3] <= bound and b[3] <= bound and abs(diff) <= bound
            ok_w = ok_w and agree
            print("  %-24s A med %10.4g [%10.4g %10.4g] spread %5.1f%% | "
                  "B med %10.4g [%10.4g %10.4g] spread %5.1f%% | B-A %+6.1f%% "
                  "bound %4.1f%% %s" %
                  (name, a[0], a[1], a[2], 100 * a[3], b[0], b[1], b[2], 100 * b[3],
                   100 * diff, 100 * bound, "agree" if agree else "DISAGREE"))
        print("  -> %s" % ("steady" if ok_w else "NOT steady"))
        steady = steady and ok_w
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the Plankton verifier and its serve daemon.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of the repository. The first run builds the library, the
plankton_serve daemon and the runner from source (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Each workload runs in its own runner process; the runner's JSON result is the
last line of standard output. Build output and diagnostics go to stderr.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ["verify-fattree-loop", "verify-as-failures", "verify-bgp-dpor",
             "serve-delta-stream"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configures (once) and builds; the lock keeps concurrent runs apart."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def run_workload(out, workload, seed, seconds, trace):
    """Runs one workload in its own runner process; returns (code, last line)."""
    work = os.path.join(out, "run")
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_runner"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           # Relative, so the daemon's Unix socket path stays short.
           "--work-dir", os.path.relpath(work),
           "--serve-bin", os.path.join(out, "plankton_serve"),
           "--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        code, line = run_workload(out, args.workload, args.seed, args.seconds, args.trace)
        if code != 0 or not line.startswith("{"):
            return code or 1
        print(line)
        return 0

    status = 0
    for w in WORKLOADS:
        code, line = run_workload(out, w, args.seed, args.seconds, args.trace)
        if code != 0 or not line.startswith("{"):
            print("%-22s FAILED (exit %d)" % (w, code))
            status = 1
            continue
        res = json.loads(line)
        print("%-22s correct=%s attempted=%d failed=%d" %
              (w, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
        if res["failed"] or not res["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the eTransform planning server.

Builds bin/etransform_server.exe and the load generator
(perfbench/main.exe) from source with dune, then runs one seeded workload
against the server binary and prints one JSON result line last on stdout:

    python3 perfbench/run.py --workload cold_plans --seed 1 --seconds 15 --trace 0

--trace 1 adds the open-loop diagnostics and the in-process traced replay
and reports per-layer metrics instead of end-to-end ones.  --workload all
runs every workload in turn and prints a table of the end-to-end metrics.

Run from the repository root.  Scratch files, the plan ledger and span
dumps go to .perfbench/ there.  See perfbench/README.md for the design.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["hot_hits", "tier_churn", "cold_plans", "estate_plans"]
SERVER = "_build/default/bin/etransform_server.exe"
GENERATOR = "_build/default/perfbench/main.exe"
RUN_TIMEOUT_S = 175


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/etransform_server.exe", "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def pin_to_one_cpu():
    # Generator, reactor and worker share one CPU: on a virtual machine,
    # waking a thread on another (idle) vCPU takes a hypervisor round trip
    # whose cost swings several-fold from run to run; on one CPU every
    # hand-off is a local context switch.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_one(workload, seed, seconds, trace):
    """Runs main.exe in its own process group; returns (exit code, stdout)."""
    cmd = [GENERATOR, "--server", SERVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", ".perfbench"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run timed out\n")
        return 3, ""
    finally:
        # The server is a child of main.exe in the same group: make sure
        # nothing outlives the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: run from the repository root\n")
        sys.exit(2)
    build()
    pin_to_one_cpu()
    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.exit(code)
    worst = 0
    rows = []
    for w in WORKLOADS:
        code, out = run_one(w, args.seed, args.seconds, args.trace)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
        rows.append((w, "correct", result["correct"], ""))
    for w, name, value, unit in rows:
        print(f"{w:13s} {name:28s} {value!s:>24s} {unit}")
    sys.exit(worst)


if __name__ == "__main__":
    main()

"""Run every workload once and print its end-to-end metrics, one row each.

    python3 perfbench/summary.py [--seed 0] [--seconds 20]

Run from the root of a source checkout.  Each workload gets an untraced
run (end-to-end metrics, output checks) and a traced run (per-layer
metrics); the table ends with where each per-layer trace was written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    trace_file = next((line.split(": ", 1)[1] for line in lines
                       if line.startswith("per-layer trace: ")), None)
    return {**json.loads(lines[-1]), "trace_file": trace_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    all_correct = True
    traces = []
    for workload in WORKLOADS:
        untraced = run_once(workload, args.seed, args.seconds, trace=0)
        traced = run_once(workload, args.seed, args.seconds, trace=1)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        all_correct &= untraced["correct"] and traced["correct"]
        cells = [f"{name}={m['value']:.6g} {m['unit']}"
                 for name, m in untraced["metrics"].items()]
        cells.append(f"fail_frac={failed}/{attempted} ratio")
        print(f"{workload:<18} " + "  ".join(cells), flush=True)
        traces.append((workload, traced["trace_file"]))
    for workload, trace_file in traces:
        print(f"per-layer trace of {workload}: {trace_file}")
    print("outputs correct" if all_correct else "OUTPUT CHECKS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

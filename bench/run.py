"""Query benchmark for qublogic.

    python3 bench/run.py --workload decide-valid --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1          # every workload, one row each

Each workload runs in its own fresh, single-threaded worker process
(``bench/worker.py``), as a closed loop with one query in flight.  Set-up
time is the median over SETUP_SAMPLES fresh processes: SETUP_SAMPLES - 1
that stop after set-up, then the measured worker itself.  For a single
workload the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Full results and traces are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decide-valid", "decide-refute", "models", "proofs-orders")
SETUP_SAMPLES = 5
BUDGET_S = 170  # every run of one workload ends within this


class WorkerError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker([*base, "--setup-only"], deadline)["setup_s"])
    result = worker([*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append(result["metrics"]["setup_s"][0])
        result["metrics"]["setup_s"][0] = statistics.median(setups)
        result["setup_samples"] = setups
    OUT.mkdir(exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))
    return result


def summary(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qublogic query benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qublogic").is_dir():
        print(f"no qublogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(summary(run_workload(args.workload, args.seed, args.seconds,
                                                  args.trace))))
            return 0
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            row = ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in result["metrics"].items())
            print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
                  f"rounds={result['rounds']} {row}", flush=True)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

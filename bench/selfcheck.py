"""Self-check of the benchmark's inputs and outputs.

    python3 bench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload it runs one round three times in fresh worker processes
and compares digests of every call the benchmark makes into qublogic:

* the same ``--seed`` under two values of PYTHONHASHSEED must give the same
  inputs and the same verdicts, witnesses and countermodels;
* another ``--seed`` must give other inputs.

The worker takes the seed only from its command line, builds the inputs
from it with its own generator, and passes qublogic nothing but those
inputs; the digests cover every argument of every call, so equal digests
show that nothing else reaches the program.  Exit code 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("decide-valid", "decide-refute", "models", "proofs-orders")


def dump(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dump"]
    proc = subprocess.run(cmd, cwd=HERE.parent, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark determinism self-check")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        a = dump(workload, args.seed, "1")
        b = dump(workload, args.seed, "2")
        c = dump(workload, args.seed + 1, "1")
        checks = {
            "no failed query": a["failed"] == b["failed"] == c["failed"] == 0,
            "same inputs across hash seeds": a["inputs"] == b["inputs"],
            "same outputs across hash seeds": a["outputs"] == b["outputs"],
            "other seed, other inputs": a["inputs"] != c["inputs"],
        }
        for what, good in checks.items():
            print(f"{workload}: {what}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

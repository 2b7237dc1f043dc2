"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload genus1-trace --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; voachain is imported from its src/.
With --trace 0 the run measures set-up (the median time a fresh
interpreter takes to import voachain.cli) and then starts a fresh
single-threaded worker process (worker.py) that times passes over the
workload's operations.  With --trace 1 the worker times each layer
instead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Exits non-zero without a
result when the program cannot be found or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
TIMEOUT_S = 170
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import voachain.cli; "
    "print(repr(time.perf_counter() - t))"
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # an installed CLI imports from bytecode caches; let the children write them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> float:
    """Median import time of voachain.cli over fresh interpreters; one
    unmeasured import first writes the bytecode caches."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip()))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="voachain benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "voachain" / "cli.py").is_file():
        print(f"no voachain sources under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()
    try:
        setup_s = None if args.trace else measure_setup(env)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.CalledProcessError as exc:
        print(f"import of voachain.cli failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as exc:
        print(f"{exc.cmd[1]} did not finish within {exc.timeout} s", file=sys.stderr)
        return 2
    if worker.returncode != 0:
        print(f"worker exited with code {worker.returncode}", file=sys.stderr)
        return 2
    result = json.loads(worker.stdout.splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

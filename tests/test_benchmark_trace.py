"""The benchmark's traced run against this checkout's package.

Under ``--trace 1`` the worker wraps every public function of the
package's layers, and some of its counters unpack the arguments of the
function they count: a traced name whose signature changes fails every
op that reaches it.  Each workload of BENCHMARK.json runs one traced
pass here, as the benchmark runs it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from references import child_env

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_runs_every_op(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["correct"] and report["failed"] == 0, proc.stderr

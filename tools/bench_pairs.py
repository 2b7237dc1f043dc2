"""Paired benchmark runs of a parent checkout and a changed one.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seed S --pairs N --seconds T [--out BENCH.json]

Each side runs its own, unchanged ``benchmarks/run.py`` from the root of
its checkout, one run at a time.  One run per checkout comes first and is
discarded: the first run in a fresh checkout compiles the bytecode and
reads a higher peak_rss_mb.  Then N pairs run, the parent first in the
first pair and the sides alternating after that.

The summary gives, per end-to-end metric of BENCHMARK.json, each side's
runs, median and quartiles (inclusive method), the change against the
parent in percent, the pairs in which the change read lower, the gap of
the medians, the parent's interquartile range, whether the change's
median is worse than the parent's by more than the metric's bound, and
whether a gain is shown (``gain_shown``): the change better in at least
nine tenths of the pairs, a tie better on neither side, and its median
better than the parent's by more than the parent's interquartile range;
and each run's failed operations.  Before the runs each side prints its
operations' stdout digests with its own ``benchmarks/worker.py
--digests``; the summary says whether they are identical and names the
operations whose digests differ.  With --out it is merged into that JSON
file under "<workload> seed <seed>", else printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the checkout's benchmark: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: benchmarks/run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def digests_of(checkout: Path, workload: str, seed: int) -> str:
    """The checkout's own ``benchmarks/worker.py --digests`` output."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/worker.py", "--workload", workload, "--seed", str(seed),
         "--digests"], cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: benchmarks/worker.py exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return proc.stdout


def compare_digests(parent: str, change: str) -> dict:
    """Whether two ``--digests`` outputs give every operation the same
    stdout digest.  Each line is "<sha256>  <op>  <argv>  <seconds>s";
    the timing is not compared, and an operation on one side only differs."""

    def by_op(text):
        ops = {}
        for line in text.splitlines():
            if line.strip():
                digest, op = line.split()[:2]
                ops[op] = digest
        return ops

    p, c = by_op(parent), by_op(change)
    differ = sorted(op for op in p.keys() | c.keys() if p.get(op) != c.get(op))
    if not p and not c:
        raise ValueError("no digest lines on either side")
    return {"digests_identical": not differ, "digests_differ": differ}


def _side(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"runs": [round(v, 5) for v in values], "median": round(statistics.median(values), 5),
            "q1": round(q1, 5), "q3": round(q3, 5)}


def summarize(parent_runs: list, change_runs: list, declared: list) -> dict:
    """The paired comparison of the runs, pair i being (parent_runs[i],
    change_runs[i]), for each end-to-end metric ``declared`` as in
    BENCHMARK.json (name, better, bound)."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one parent run and one change run per pair")
    out = {}
    for spec in declared:
        name = spec["name"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        before, after = statistics.median(parent), statistics.median(change)
        p, c = _side(parent), _side(change)
        lower = spec["better"] == "lower"
        worse = after - before if lower else before - after
        wins = sum((y < x) if lower else (y > x) for x, y in zip(parent, change))
        out[name] = {
            "parent": p, "change": c,
            "change_vs_parent": f"{100 * (after - before) / before:+.1f}%",
            "pairs_lower": f"{sum(x < y for x, y in zip(change, parent))} of {len(parent)}",
            "median_gap": round(after - before, 5),
            "parent_iqr": round(p["q3"] - p["q1"], 5),
            "beyond_bound": worse > spec["bound"] * before,
            "gain_shown": wins >= 0.9 * len(parent) and -worse > p["q3"] - p["q1"],
        }
    out["failed"] = {"parent": [run["failed"] for run in parent_runs],
                     "change": [run["failed"] for run in change_runs]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, help="JSON file to merge the summary into")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    digests = compare_digests(*(digests_of(path, args.workload, args.seed)
                                for path in sides.values()))
    if not digests["digests_identical"]:
        print(f"digests differ: {', '.join(digests['digests_differ'])}", file=sys.stderr)
    warmups = {side: run_once(path, args.workload, args.seed, args.seconds)["metrics"]
               for side, path in sides.items()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
            print(f"pair {i + 1} {side}: run_ref "
                  f"{runs[side][-1]['metrics']['run_ref']['value']:.4f}", file=sys.stderr)
    summary = summarize(runs["parent"], runs["change"], declared)
    summary.update(digests)
    summary["warmup_discarded"] = warmups
    key = f"{args.workload} seed {args.seed}"
    if args.out is None:
        print(json.dumps({key: summary}, indent=1))
        return 0
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("end_to_end", {})[key] = summary
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

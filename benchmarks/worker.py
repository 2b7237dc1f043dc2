"""Run one workload's passes in this (fresh, single-threaded) process.

Started by run.py, which adds the set-up time; it can also be run on its
own from the root of a checkout:

    python3 benchmarks/worker.py --workload genus1-trace --seed 1 --seconds 30 --trace 0
    python3 benchmarks/worker.py --workload genus1-trace --seed 1 --digests

The worker writes the workload's configs to a scratch directory under
benchmarks/out/, calls `voachain.cli.main` in process on each of them,
captures the JSON report it prints and checks it (workloads.py).  A
pass runs every operation once, starting from cold module caches (every
`lru_cache` in voachain is cleared); passes repeat while the next one
still fits in --seconds, and at least one runs.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def load_program():
    """Import voachain from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import voachain.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import voachain from {SRC}: {exc}")
    if Path(voachain.cli.__file__).resolve().parent != SRC.resolve() / "voachain":
        raise SystemExit(f"voachain imported from {voachain.cli.__file__}, not from {SRC}")
    return voachain.cli


def program_caches() -> list:
    """Every lru_cache in voachain, public or private."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("voachain."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


@dataclass
class OpRun:
    rc: object  # exit code, or None when the call raised
    stdout: str
    seconds: float
    error: str = ""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


@dataclass
class Pass:
    seconds: float
    runs: dict = field(default_factory=dict)  # op name -> OpRun
    reference: float = 0.0  # reference_seconds() around this pass


def _hilbert_inverse(n: int) -> list:
    aug = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return aug


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python exact computation (four exact
    inversions of the 16x16 Hilbert matrix in Fraction arithmetic).

    The host's speed drifts by a quarter or more over minutes, and this
    computation slows with it.  Timed just before and after each pass,
    it gives the unit of the end-to-end times: a pass that takes 20
    reference times does so whatever the host's speed at that moment.
    """
    t0 = time.perf_counter()
    for _ in range(4):
        _hilbert_inverse(16)
    return time.perf_counter() - t0


def run_op(cli, op: workloads.Op, config: Path) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([*op.argv, "--config", str(config)])
    except (Exception, SystemExit):
        rc = None
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if err.getvalue():
        error = (error + err.getvalue()).strip()
    return OpRun(rc, out.getvalue(), seconds, error)


def run_passes(cli, workload, configs, seconds, caches, tracer=None) -> list[Pass]:
    passes, rounds = [], []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        p = Pass(0.0)
        before = reference_seconds()
        t0 = time.perf_counter()
        for op in workload.ops:
            if tracer is None:
                p.runs[op.name] = run_op(cli, op, configs[op.name])
            else:
                with tracer.span(f"op.{op.name}"):
                    p.runs[op.name] = run_op(cli, op, configs[op.name])
        p.seconds = time.perf_counter() - t0
        p.reference = (before + reference_seconds()) / 2
        passes.append(p)
        print(f"pass {len(passes) - 1}: {p.seconds:.3f} s, {workload.top_op} "
              f"{p.runs[workload.top_op].seconds:.3f} s, reference {p.reference:.4f} s", file=sys.stderr)
        if tracer is not None:
            tracer.end_pass()
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - started + statistics.median(rounds) > seconds:
            return passes


def account(workload, passes) -> tuple[int, int]:
    """(attempted, failed); reasons go to stderr.  An op fails when it
    raises, exits non-zero, fails its check, or prints stdout that is
    not byte-identical to its first pass."""
    first = passes[0].runs
    reports, verdict = {}, {}
    for op in workload.ops:
        run = first[op.name]
        if run.rc != 0:
            reports[op.name] = None
            verdict[op.name] = [f"exit code {run.rc}: {run.error}"]
            continue
        try:
            reports[op.name] = json.loads(run.stdout)
        except json.JSONDecodeError as exc:
            reports[op.name] = None
            verdict[op.name] = [f"stdout is not JSON: {exc}"]
            continue
        verdict[op.name] = op.check(reports[op.name], reports)
    attempted = failed = 0
    for n, p in enumerate(passes):
        for op in workload.ops:
            run = p.runs[op.name]
            attempted += 1
            if n == 0 or run.rc != 0:
                problems = verdict[op.name] if n == 0 else [f"exit code {run.rc}: {run.error}"]
            elif run.digest != first[op.name].digest:
                problems = ["stdout differs from the first pass"]
            else:
                problems = verdict[op.name]
            if problems:
                failed += 1
                print(f"FAILED {workload.name} pass {n} {op.name}: {'; '.join(problems)}",
                      file=sys.stderr)
    return attempted, failed


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, passes, peak_rss_kb) -> dict:
    """Pass and top-op times in reference units (medians over passes);
    the wall-clock medians go to stderr."""
    wall = statistics.median(p.seconds for p in passes)
    top = statistics.median(p.runs[workload.top_op].seconds for p in passes)
    ref = statistics.median(p.reference for p in passes)
    print(f"wall medians: pass {wall:.3f} s, {workload.top_op} {top:.3f} s, reference {ref:.4f} s",
          file=sys.stderr)
    return {
        "run_ref": metric(statistics.median(p.seconds / p.reference for p in passes), "ref"),
        "top_op_ref": metric(statistics.median(p.runs[workload.top_op].seconds / p.reference
                                               for p in passes), "ref"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }


def per_layer(tracer, passes) -> tuple[dict, dict]:
    """Per-layer metrics and the full per-function table.  Counts come
    from the first pass (every pass must repeat them exactly); times
    are medians over passes."""
    bounds = [0] + tracer.pass_ends
    by_pass = [tracer.self_times(a, b) for a, b in zip(bounds, bounds[1:])]
    names = sorted({n for times in by_pass for n in times})
    self_s = {n: statistics.median(t.get(n, 0.0) for t in by_pass) for n in names}
    counts = tracer.pass_counts[0]
    for n, other in enumerate(tracer.pass_counts[1:], 1):
        if other != counts:
            diff = sorted(k for k in set(counts) | set(other) if counts.get(k) != other.get(k))
            print(f"WARNING counts of pass {n} differ from pass 0: {diff}", file=sys.stderr)
    metrics = {}
    for name in PER_LAYER_COUNTS:
        metrics[name] = metric(counts.get(name, 0), "count")
    metrics["schottky.handle_pairing.hit_ratio"] = metric(tracer.pass_hit_ratios[0], "ratio")
    for layer in TIMED_LAYERS:
        total = [sum(v for k, v in t.items() if k.startswith(f"{layer}.")) for t in by_pass]
        metrics[f"{layer}.self_s"] = metric(statistics.median(total), "s")
    for name in PER_LAYER_TIMES:
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    metrics["trace.run_s"] = metric(statistics.median(p.seconds for p in passes), "s")
    metrics["trace.run_ref"] = metric(statistics.median(p.seconds / p.reference for p in passes), "ref")
    table = {n: {"self_s": self_s[n], "calls": counts.get(f"{n}.calls", 0)} for n in names}
    return metrics, table


PER_LAYER_COUNTS = (
    "voa.sphere_matrix_element.calls",
    "voa.sphere_matrix_element.fields",
    "voa.apply_state_mode.calls",
    "voa.square_bracket_mode.calls",
    "correlators.torus_qseries.calls",
    "correlators.torus_qseries.states",
    "correlators.sphere_value.calls",
    "elliptic.pm_qseries.calls",
    "schottky.handle_pairing.calls",
    "schottky.handle_pairing.pairs",
    "series.mul.calls",
    "series.add.calls",
    "series.invert.calls",
    "complexes.apply_Dn.calls",
    "complexes.apply_Dg.calls",
)
# Self times are reported only for layers and functions that every
# workload calls, so that no time metric reads 0 by construction:
# elliptic is not called on genus2-sums (its pm_qseries calls are
# counted), and the per-function times of the rest are in the spans file.
TIMED_LAYERS = ("series", "voa", "correlators", "schottky", "complexes", "cli")
PER_LAYER_TIMES = (
    "voa.sphere_matrix_element",
    "correlators.sphere_value",
    "schottky.handle_pairing",
    "complexes.apply_Dg",
    "cli.main",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="run one pass and print each op's stdout digest")
    args = parser.parse_args(argv)

    cli = load_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"{workload.name} seed {args.seed}: points {json.dumps(workload.points)}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        configs = {}
        for op in workload.ops:
            configs[op.name] = scratch / f"{op.name}.cfg"
            configs[op.name].write_text(op.config)
        caches = program_caches()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        seconds = 0.0 if args.digests else args.seconds
        passes = run_passes(cli, workload, configs, seconds, caches, tracer)
        # read before the checks, whose own memory is not the program's
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = account(workload, passes)
    if args.digests:
        for op in workload.ops:
            run = passes[0].runs[op.name]
            print(f"{run.digest}  {op.name}  {' '.join(op.argv)}  {run.seconds:.3f}s")
        return 0
    if tracer is None:
        metrics = end_to_end(workload, passes, peak_rss_kb)
    else:
        metrics, table = per_layer(tracer, passes)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(spans, {"workload": workload.name, "seed": args.seed,
                             "passes": len(passes), "pass_ends": tracer.pass_ends,
                             "counts": tracer.pass_counts[0], "self_s": table})
        print(f"spans written to {spans}; self time by function:", file=sys.stderr)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"  {row['self_s']:9.4f} s {row['calls']:8d} calls  {name}", file=sys.stderr)
    print(f"{workload.name}: {len(passes)} passes of {len(workload.ops)} ops", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

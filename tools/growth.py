"""How one CLI command's cost grows with one config value.

    python3 tools/growth.py --checkout DIR --config FILE --command "npoint --oracle" \
        --key "truncation q_order" --values 14 28 40 [--runs 5] [--out BENCH.json --label NAME]

For each value the config is rewritten with ``[section] key = value``.
Each run starts a fresh interpreter that imports voachain from the
checkout's src/ and times one cold ``voachain.cli.main`` on it; the
import is outside the timed span.  Per value the summary gives the
median of the runs in ms, every run, the largest ru_maxrss in MB and
the sha256 of stdout, which must be the same in every run.  With --out
it is merged into that JSON file under "growth" / NAME, else printed.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 600

# one cold run in a fresh interpreter: argv[1] is the checkout's src/,
# the rest is the CLI's argv; prints seconds, ru_maxrss and the stdout
_RUN = """
import contextlib, hashlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import voachain.cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = voachain.cli.main(sys.argv[2:])
seconds = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": seconds,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


def rewrite_config(text: str, section: str, key: str, value: str) -> str:
    """The config ``text`` with ``[section] key = value``, the section
    added if it is missing; every other section and key is kept, with the
    case of its name."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def summarize(value: str, runs: list) -> dict:
    """One value's runs (dicts with seconds, maxrss_kb and stdout_sha256)
    as its summary row."""
    if not runs:
        raise ValueError("need at least one run")
    digests = sorted({run["stdout_sha256"] for run in runs})
    return {
        "value": value,
        "median_ms": round(1000 * statistics.median(run["seconds"] for run in runs), 3),
        "runs_ms": [round(1000 * run["seconds"], 3) for run in runs],
        "maxrss_mb": round(max(run["maxrss_kb"] for run in runs) / 1024, 2),
        "stdout_sha256": digests[0] if len(digests) == 1 else digests,
    }


def run_once(checkout: Path, argv: list) -> dict:
    proc = subprocess.run([sys.executable, "-c", _RUN, str(checkout / "src"), *argv],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the run exited {proc.returncode}:\n{proc.stderr}")
    run = json.loads(proc.stdout.splitlines()[-1])
    if run["code"] != 0:
        raise SystemExit(f"{checkout}: voachain exited {run['code']}:\n{proc.stderr}")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--command", required=True,
                        help='subcommand and flags, e.g. "npoint --oracle"')
    parser.add_argument("--key", required=True, help='"section key", e.g. "truncation q_order"')
    parser.add_argument("--values", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, help="JSON file to merge the summary into")
    parser.add_argument("--label", help="name of the summary in --out")
    args = parser.parse_args(argv)
    section, key = args.key.split()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.out is not None and not args.label:
        parser.error("--out needs --label")

    text = args.config.read_text()
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "growth.cfg"
        for value in args.values:
            config.write_text(rewrite_config(text, section, key, value))
            argv_value = [*shlex.split(args.command), "--config", str(config)]
            rows.append(summarize(value, [run_once(args.checkout.resolve(), argv_value)
                                          for _ in range(args.runs)]))
            print(f"{key} = {value}: {rows[-1]['median_ms']} ms, {rows[-1]['maxrss_mb']} MB",
                  file=sys.stderr)
    summary = {"command": args.command, "key": args.key, "config": text, "runs": args.runs,
               "rows": rows}
    if args.out is None:
        print(json.dumps(summary, indent=1))
        return 0
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("growth", {})[args.label] = summary
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

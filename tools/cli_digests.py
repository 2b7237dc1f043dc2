"""Digests of a fixed list of voachain CLI calls, to show that a change
leaves every printed byte and exit code as it was.

    python3 tools/cli_digests.py --checkout DIR [--against DIR]

Each call runs in a fresh interpreter that imports voachain from the
checkout's src/ and calls ``voachain.cli.main()`` on its argv, as the
``voachain`` script does, with ``COLUMNS=80`` so that argparse wraps
its messages alike on every terminal.  The working directory is a
fresh one holding a copy of the checkout's ``configs/`` and
``not-utf8.cfg``, a config whose points line ends in the byte 0xff, so
the paths that a message names are the same for every checkout.

The calls are every command named in the header comment of a
``configs/*.cfg`` file, ``ARGUMENT_ERRORS`` (the cases that
``tests/test_cli.py`` checks against the full parser's messages) and
``npoint`` on ``not-utf8.cfg``.  Each line gives the sha256 of stdout,
the sha256 of stderr, the exit code and the call.  With --against the
other checkout runs the same calls; the calls whose results differ are
named on stderr, and the exit code is 1 if any differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 600
SUBCOMMANDS = ("eval-eisenstein", "eval-weierstrass", "eval-pm", "eval-f0", "npoint", "sew",
               "partition", "reduce", "check-complex", "connection", "cohomology")
CONFIG_SUBCOMMANDS = SUBCOMMANDS[4:]
ARGUMENT_ERRORS = (
    [], ["--help"], ["-h"], ["no-such-command"],
    *([name, "--help"] for name in SUBCOMMANDS),
    *([name] for name in CONFIG_SUBCOMMANDS),
    ["npoint", "--config", "configs/vacuum.cfg", "--bogus"],
    ["eval-f0", "--m", "0"],
    ["eval-f0", "--n", "x", "--m", "0"],
)
NOT_UTF8 = b"[experiment]\ngenus = 0\n[insertions]\nstates = a, a\npoints = 3, 1\xff\n"
_MAIN = "import sys; from voachain.cli import main; sys.exit(main())"
_COMMAND = re.compile(r"^#\s+voachain\s+(.+)$", re.MULTILINE)


def config_calls(checkout: Path) -> list:
    """The argv of every command named in a shipped config's comments."""
    return [shlex.split(line) for path in sorted((checkout / "configs").glob("*.cfg"))
            for line in _COMMAND.findall(path.read_text(encoding="utf-8"))]


def calls(checkout: Path) -> list:
    return [*config_calls(checkout), *map(list, ARGUMENT_ERRORS),
            ["npoint", "--config", "not-utf8.cfg"]]


def call_name(argv: list) -> str:
    return shlex.join(argv) or "(no argument)"


def run_calls(checkout: Path, argvs: list) -> dict:
    """{call: (stdout sha256, stderr sha256, exit code)} of the
    checkout's CLI, each call in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"), "COLUMNS": "80"}
    results = {}
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(checkout / "configs", Path(work) / "configs")
        (Path(work) / "not-utf8.cfg").write_bytes(NOT_UTF8)
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=work, env=env,
                                  capture_output=True, timeout=RUN_TIMEOUT_S)
            results[call_name(argv)] = (hashlib.sha256(proc.stdout).hexdigest(),
                                        hashlib.sha256(proc.stderr).hexdigest(),
                                        proc.returncode)
    return results


def differing(ours: dict, theirs: dict) -> list:
    """The calls whose stdout, stderr or exit code differ between two
    results of ``run_calls``, a call on one side only included, in the
    order the calls ran."""
    return [name for name in dict.fromkeys([*ours, *theirs])
            if ours.get(name) != theirs.get(name)]


def format_results(results: dict) -> str:
    return "".join(f"{out}  {err}  {code}  {name}\n"
                   for name, (out, err, code) in results.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--against", type=Path, help="checkout to compare the results with")
    args = parser.parse_args(argv)

    argvs = calls(args.checkout)
    ours = run_calls(args.checkout, argvs)
    sys.stdout.write(format_results(ours))
    if args.against is None:
        return 0
    differ = differing(ours, run_calls(args.against, argvs))
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(differ)} of {len(argvs)} calls differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

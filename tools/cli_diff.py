"""Run a checked-in list of CLI commands in two source trees and compare the bytes.

    python tools/cli_diff.py PARENT_TREE [CHILD_TREE] [--show N]

A tree is a checkout (a `git archive` or `git worktree` of a commit, say)
holding src/cycosc; CHILD_TREE defaults to the checkout this script sits in.
Each tree runs every command of tools/cli_diff_commands.txt in one fresh
interpreter that imports cycosc from that tree's src/ and calls cli.main
in-process, from a scratch directory of its own holding the --params files
below.  For each command the exit code, stdout, stderr and the bytes of every
file the command wrote there (its --output) are compared.  Prints the number
of commands, how many differ and in what, and the first N differing commands
(default 10); exits 0 when none differ, 1 when some do, 2 when a tree cannot
be run.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "cli_diff_commands.txt"
# Stands for the 63 head entries of a lambda 64 algebra.
ZEROS63 = ",".join(["0"] * 63)

# The --params files the commands read, written into each run's scratch directory.
FILES = {
    "params.json": b'{"lambda": 3, "alpha": [0.5, 0.25]}',
    "params-full.json": b'{"lambda": 4, "alpha": [0.3, -0.2, 0.4, -0.5]}',
    "params-lam5.json": b'{"lambda": 5, "alpha": [0.3, -0.2, 0.4, 0.1, -0.6]}',
    "bad-lambda-float.json": b'{"lambda": 3.9, "alpha": [0.5, 0.25]}',
    "bad-alpha-string.json": b'{"lambda": 3, "alpha": "05"}',
    "bad-alpha-bool.json": b'{"lambda": 3, "alpha": [true, 0.1]}',
    "bad-missing-alpha.json": b'{"lambda": 3}',
    "bad-length.json": b'{"lambda": 3, "alpha": [1.0]}',
    "bad-nonzero-sum.json": b'{"lambda": 2, "alpha": [0.5, 0.0]}',
    "bad-overflow.json": b'{"lambda": 3, "alpha": [1e308, 1e308, -1e308]}',
    "bad-not-json.json": b'{"lambda": 3, "alpha": [0.5, ',
    "bad-not-utf8.json": b'{"lambda": 3, "alpha": [0.5, 0.25]}\xff',
    "bad-deep.json": b"[" * 100_000 + b"]" * 100_000,
    "bad-list.json": b"[3, [0.5, 0.25]]",
}

# Runs in the tree's interpreter: argv[1] is the tree's src, stdin the command
# list as JSON; prints one JSON result per command to the real stdout.
RUNNER = r"""
import base64, contextlib, io, json, os, sys, traceback
src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
from cycosc import cli
if not os.path.realpath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"cycosc.cli came from {cli.__file__}, not {src}")
before = set(os.listdir("."))
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "traceback"
            err.write(traceback.format_exc().splitlines()[-1] + "\n")
    files = {}
    for name in sorted(set(os.listdir(".")) - before):
        with open(name, "rb") as fh:
            files[name] = base64.b64encode(fh.read()).decode()
        os.remove(name)
    print(json.dumps([rc, out.getvalue(), err.getvalue(), files]), file=sys.__stdout__, flush=True)
"""


class TreeError(Exception):
    """A tree has no sources to run, or its run stopped short."""


def load_commands(path: Path = COMMANDS) -> list[list[str]]:
    """The command list: one argv per non-blank, non-comment line."""
    commands = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            commands.append([ZEROS63 if tok == "ZEROS63" else tok for tok in shlex.split(line)])
    return commands


def run_tree(tree: Path, commands: list[list[str]]) -> list:
    """One result [exit code, stdout, stderr, {file: base64 bytes}] per command."""
    src = tree / "src"
    if not (src / "cycosc" / "cli.py").is_file():
        raise TreeError(f"no src/cycosc/cli.py under {tree}")
    # Fixed help width and no bytecode written into the tree.
    env = dict(os.environ, COLUMNS="100", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as scratch:
        for name, data in FILES.items():
            Path(scratch, name).write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-c", RUNNER, str(src)],
            input=json.dumps(commands), cwd=scratch, env=env, capture_output=True, text=True,
        )
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    if proc.returncode != 0 or len(results) != len(commands):
        raise TreeError(
            f"{tree} ran {len(results)} of {len(commands)} commands,"
            f" exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    return results


def _first_change(a: str, b: str) -> str:
    """The first line where a and b differ, as 'line k: parent | child'."""
    la, lb = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {k}: {x[:100]!r} | {y[:100]!r}"
    k = min(len(la), len(lb))
    return f"line {k + 1}: {len(la)} lines | {len(lb)} lines"


def compare(commands, parent, child, show: int) -> int:
    parts = ("exit code", "stdout", "stderr", "output files")
    counts = dict.fromkeys(parts, 0)
    differing = []
    for argv, p, c in zip(commands, parent, child):
        diffs = [part for part, x, y in zip(parts, p, c) if x != y]
        for part in diffs:
            counts[part] += 1
        if diffs:
            differing.append((argv, p, c, diffs))
    summary = ", ".join(f"{part} {n}" for part, n in counts.items())
    print(f"{len(commands)} commands, {len(differing)} differ ({summary})")
    for argv, p, c, diffs in differing[:show]:
        print("  " + shlex.join(argv)[:160])
        for part in diffs:
            if part == "exit code":
                print(f"    exit code: {p[0]} | {c[0]}")
            elif part == "output files":
                for name in sorted(set(p[3]) | set(c[3])):
                    x, y = (base64.b64decode(r[3].get(name, "")).decode("utf-8", "replace") for r in (p, c))
                    if x != y:
                        print(f"    {name}: {_first_change(x, y)}")
            else:
                k = parts.index(part)
                print(f"    {part}: {_first_change(p[k], c[k])}")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("child", type=Path, nargs="?", default=HERE.parent,
                        help="source tree of the change (default: this checkout)")
    parser.add_argument("--show", type=int, default=10, help="differing commands to print")
    args = parser.parse_args(argv)
    commands = load_commands()
    # The two trees run side by side, each in its own interpreter.
    try:
        with ThreadPoolExecutor(2) as pool:
            parent, child = pool.map(lambda tree: run_tree(tree.resolve(), commands), (args.parent, args.child))
    except TreeError as exc:
        print(f"cli_diff: {exc}", file=sys.stderr)
        return 2
    return compare(commands, parent, child, args.show)


if __name__ == "__main__":
    sys.exit(main())

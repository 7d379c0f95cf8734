#!/usr/bin/env python3
"""Compare what two source trees write on one fixed list of commands.

Usage: python scripts/compare_outputs.py PARENT CHANGE [--expect-moved FIELD]...

PARENT and CHANGE are checkouts of this repository.  Every command of
`COMMANDS` runs once in each, in a fresh interpreter with
PYTHONPATH=<tree>/src: `triqes.cli.main` with the command's arguments, or
a script of <tree>/scripts.  An `{out}` argument becomes a file in a
temporary directory.  The `timestamp` of every manifest is blanked.

Per command the script reports any difference in exit code, stderr,
stdout, the output file, and the number of `fdoracle.eigh_tridiagonal`
calls.  Where both outputs are JSON it names each field that moved (its
last key, e.g. `schrodinger_residual`), with how many values moved and
the largest change, and each key that only one of them holds, as that
field added or removed.  `--expect-moved FIELD` (repeatable) names a field
the change is meant to move; `exit_code`, `stderr`, `stdout` and
`eigh_tridiagonal_calls` can be named too.  The exit code is 0 when
every difference is expected, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

NAMED_W = ["1,1,1", "2,0.5,-1", "0.3,-1.2,0.7", "-1.5,0.8,1.9"]
ALL_B = ["--b", "1,1/2,3/2,2"]

# (name, argv): argv[0] "script" runs <tree>/scripts/argv[1]
COMMANDS = (
    # the four named sweeps and their no-oracle twins
    [(f"named w={w}", ["sweep", "--lmax", "4", "--mmax", "4", *ALL_B, f"--w={w}",
                       "--out", "{out}"]) for w in NAMED_W]
    + [(f"twin w={w}", ["sweep", "--no-oracle", "--lmax", "6", "--mmax", "6", *ALL_B,
                        f"--w={w}", "--out", "{out}"]) for w in NAMED_W]
    + [
        # the benchmark's three workloads, certify-wide near its anchor
        ("sweep-oracle", ["sweep", "--lmax", "3", "--mmax", "3", "--b", "1,1/2",
                          "--out", "{out}"]),
        ("oracle-border", ["sweep", "--lmax", "2", "--mmax", "2", "--b", "3/2,2",
                           "--w=2,0.5,-1", "--out", "{out}"]),
        ("certify-wide", ["sweep", "--no-oracle", "--lmax", "6", "--mmax", "6", *ALL_B,
                          "--w=2.0003,0.4995,-1.0002", "--out", "{out}"]),
        ("largest sweep", ["sweep", "--no-oracle", "--lmax", "20", "--mmax", "20", *ALL_B,
                           "--out", "{out}"]),
        # defect (f): fails "bhe" on 72 tuples; the oracle run exits on an error
        ("w=1e150", ["sweep", "--no-oracle", "--lmax", "3", "--mmax", "3", *ALL_B,
                     "--w=1e150,-1e150,3", "--out", "{out}"]),
        ("w=-3e80", ["sweep", "--lmax", "0", "--mmax", "0", "--b", "1",
                     "--w=0,-1e20,-3e80", "--out", "{out}"]),
        ("w=-3e80 no oracle", ["sweep", "--no-oracle", "--lmax", "0", "--mmax", "0",
                               "--b", "1", "--w=0,-1e20,-3e80", "--out", "{out}"]),
        ("verify", ["verify", "--l", "2", "--m", "3", "--b", "1/2", "--out", "{out}"]),
        ("verify energy-override", ["verify", "--l", "2", "--m", "3", "--b", "1/2",
                                    "--energy-override", "0.37", "--out", "{out}"]),
        # lambda 1.5 tol above the lowest b = 1/2 level: the grid ladder
        # hands the check to the 2000-node check, which misses
        ("verify energy-override near a level",
         ["verify", "--l", "2", "--m", "3", "--b", "1/2", "--energy-override", "0.777155",
          "--out", "{out}"]),
        # defect (a): a zero mode at its limit-circle left end
        ("verify defect (a)", ["verify", "--l", "0", "--m", "0", "--b", "2", "--branch", "minus",
                               "--w=-1.5,0.8,1.9", "--out", "{out}"]),
        ("verify find-b2-zero", ["verify", "--l", "2", "--m", "3", "--b", "2",
                                 "--no-oracle", "--find-b2-zero", "--out", "{out}"]),
        # defect (d): one eigenpair fails "bhe" at the label cap
        ("verify defect (d)", ["verify", "--l", "24", "--m", "40",
                               "--w=2.994,-0.885,-0.316", "--b", "1", "--no-oracle",
                               "--out", "{out}"]),
        # the spectrum, basis and curve writers behind the paper's figures
        ("spectrum", ["spectrum", "--l", "3", "--m", "2", "--out", "{out}"]),
        ("basis", ["basis", "--l", "3", "--m", "2", "--out", "{out}"]),
        ("potential csv", ["potential", "--l", "3", "--m", "2", "--b", "1", "--p", "2",
                           "--out", "{out}"]),
        ("wavefunction shifted json", ["wavefunction", "--l", "3", "--m", "2", "--b", "1/2",
                                       "--p", "2", "--shifted", "--format", "json",
                                       "--out", "{out}"]),
        ("worked examples", ["script", "certify_worked_examples.py"]),
    ]
)

# Runs one command; argv: the file for the kernel call count, then the
# command.  The count is written at exit, whatever the exit.
RUNNER = """
import atexit, runpy, sys
import triqes.cli, triqes.fdoracle
calls = 0
kernel = triqes.fdoracle.eigh_tridiagonal
def counting(*args, **kwargs):
    global calls
    calls += 1
    return kernel(*args, **kwargs)
triqes.fdoracle.eigh_tridiagonal = counting
count_path, *argv = sys.argv[1:]
atexit.register(lambda: open(count_path, "w").write(str(calls)))
if argv[0] == "script":
    sys.argv = argv[1:]
    runpy.run_path(argv[1], run_name="__main__")
else:
    sys.exit(triqes.cli.main(argv))
"""

TIMESTAMP = re.compile(r'"timestamp": ?"[^"]*"')


def run(tree: Path, argv: list[str], workdir: Path) -> dict:
    """Exit code, stderr, stdout, output file and kernel calls of `argv`
    run in `tree`; the tree's path is blanked in stderr, each timestamp
    in stdout and the file."""
    tree = tree.resolve()
    out = workdir / "out"
    count = workdir / "kernel_calls"
    for path in (out, count):
        path.unlink(missing_ok=True)
    argv = [str(out) if a == "{out}" else a for a in argv]
    if argv[0] == "script":
        argv = ["script", str(tree / "scripts" / argv[1])]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(count), *argv],
        env=env, capture_output=True, text=True, cwd=workdir,
    )
    return {
        "exit_code": proc.returncode,
        "stderr": proc.stderr.replace(str(tree), "<tree>"),
        "stdout": TIMESTAMP.sub('"timestamp": ""', proc.stdout),
        "file": TIMESTAMP.sub('"timestamp": ""', out.read_text()) if out.exists() else None,
        "eigh_tridiagonal_calls": int(count.read_text()) if count.exists() else None,
    }


def run_all(tree: Path, commands) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run(tree, argv, Path(tmp)) for _, argv in commands]


# the side of a key that one of two dicts lacks
MISSING = object()


def moved_values(a, b, path=""):
    """(path, a, b) for every JSON value that differs, NaN equal to NaN.
    Dicts are compared key by key: a key that only one of them holds is
    one value, MISSING on the other side; a list whose length differs
    counts as one value."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in {**a, **b}:
            yield from moved_values(
                a.get(k, MISSING), b.get(k, MISSING), f"{path}.{k}" if path else k
            )
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from moved_values(x, y, f"{path}[{i}]")
    elif not (a == b and type(a) is type(b)) and not (
        isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    ):
        yield path, a, b


def field_of(path: str) -> str:
    """The last key of a JSON path: `tuples[3].worst.x` -> `x`."""
    return re.sub(r"\[\d+\]", "", path).rsplit(".", 1)[-1]


def _json(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def first_change(a: str | None, b: str | None) -> str:
    """The first line that differs between two different texts (None for
    no file), as `old -> new`."""
    if a is None or b is None:
        return f"{a!r:.60} -> {b!r:.60}"
    lines = zip_longest(a.split("\n"), b.split("\n"))
    return next(f"{x!r} -> {y!r}" for x, y in lines if x != y)


def differences(a: dict, b: dict) -> list[tuple[str, str]]:
    """(field, what) for every way run `b` differs from run `a`."""
    diffs = []
    for key in ("exit_code", "eigh_tridiagonal_calls"):
        if a[key] != b[key]:
            diffs.append((key, f"{key} {a[key]} -> {b[key]}"))
    if a["stderr"] != b["stderr"]:
        diffs.append(("stderr", f"stderr {first_change(a['stderr'], b['stderr'])}"))
    for key in ("stdout", "file"):
        if a[key] == b[key]:
            continue
        ja, jb = _json(a[key]), _json(b[key])
        if ja is None or jb is None:
            diffs.append((key, f"{key} {first_change(a[key], b[key])}"))
            continue
        by_field: dict[tuple[str, str], list] = {}
        for path, x, y in moved_values(ja, jb):
            how = "removed" if y is MISSING else "added" if x is MISSING else "moved"
            by_field.setdefault((field_of(path), how), []).append((x, y))
        if not by_field:
            diffs.append((key, f"{key} bytes differ, values equal"))
        for (field, how), pairs in by_field.items():
            if how != "moved":
                diffs.append((field, f"{key}: {field} ({how}) in {len(pairs)} values"))
                continue
            deltas = [
                abs(x - y) for x, y in pairs
                if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            ]
            size = f", max |change| {max(deltas):.3g}" if deltas else ""
            diffs.append((field, f"{key}: {field} moved in {len(pairs)} values{size}"))
    return diffs


def compare(parent: list[dict], change: list[dict], commands, expect_moved=()):
    """Report lines, and whether every difference is expected."""
    lines, ok = [], True
    for (name, _), a, b in zip(commands, parent, change):
        diffs = differences(a, b)
        unexpected = [what for field, what in diffs if field not in expect_moved]
        expected = [what for field, what in diffs if field in expect_moved]
        ok &= not unexpected
        calls = f"eigh_tridiagonal {a['eigh_tridiagonal_calls']}/{b['eigh_tridiagonal_calls']}"
        tag = "DIFF" if unexpected else "ok"
        lines.append(f"{tag:4} {name} (exit {a['exit_code']}/{b['exit_code']}, {calls})")
        lines += [f"     unexpected: {what}" for what in unexpected]
        lines += [f"     expected:   {what}" for what in expected]
    return lines, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--expect-moved", action="append", default=[], metavar="FIELD")
    args = parser.parse_args()
    for tree in (args.parent, args.change):
        if not (tree / "src" / "triqes").is_dir():
            parser.error(f"{tree} has no src/triqes")
    lines, ok = compare(
        run_all(args.parent, COMMANDS), run_all(args.change, COMMANDS), COMMANDS,
        set(args.expect_moved),
    )
    print("\n".join(lines))
    print("outputs identical apart from timestamp and expected fields" if ok
          else "UNEXPECTED DIFFERENCES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

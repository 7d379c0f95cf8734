#!/usr/bin/env python3
"""Run the `run:` steps of a GitHub Actions workflow here, with bash.

Usage: python scripts/run_workflow.py [WORKFLOW]

WORKFLOW defaults to .github/workflows/tier1.yml.  The working tree is
copied to a fresh temporary directory (the files git tracks or would
track, in a new repository, as a checkout of the tree would hold them),
and every job's steps run there in order, each under `bash -e` as on a
runner.  The steps see `RUNNER_TEMP` (a second temporary directory), the
workflow's, job's and step's `env`, and a PATH whose `triqes` runs
`python -m triqes.cli` from the copy and whose `python` is this
interpreter, with PYTHONPATH=<copy>/src.  A matrix is not expanded: every
job runs once, on this interpreter.

`uses:` steps (actions) and pip steps (installs) are skipped, and each skip
is printed.  The first step that fails stops the run: its job and name are
printed and the exit code is 1.  Otherwise the exit code is 0.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
PIP = re.compile(r"^(python\d* -m )?pip\d* ")


def _lines(script: str) -> list[str]:
    """The commands of `script`: its lines stripped, blank and comment
    lines dropped."""
    lines = (ln.strip() for ln in script.splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def skip_reason(step: dict) -> str | None:
    """Why `step` does not run here, or None when it does."""
    if "uses" in step:
        return f"uses {step['uses']}: actions do not run here"
    if all(PIP.match(ln) for ln in _lines(step["run"])):
        return "pip: nothing is installed here; the tree runs from its src/"
    return None


def copy_tree(dest: Path) -> None:
    """The files of the working tree that git tracks or would track, copied
    to `dest` and added to a new repository there, as a checkout is one."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = ROOT / rel
        if src.is_file():  # a tracked file deleted in the working tree is gone
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)
    for git in (["init", "-q"], ["add", "-A"]):
        subprocess.run(["git", *git], cwd=dest, check=True)


def shims(bindir: Path) -> None:
    """`python` (this interpreter) and `triqes` (its `-m triqes.cli`) in
    `bindir`."""
    bindir.mkdir()
    (bindir / "python").symlink_to(sys.executable)
    triqes = bindir / "triqes"
    triqes.write_text(f'#!/usr/bin/env bash\nexec "{sys.executable}" -m triqes.cli "$@"\n')
    triqes.chmod(0o755)


def run_workflow(path: Path) -> int:
    workflow = yaml.safe_load(path.read_text())
    with tempfile.TemporaryDirectory(prefix="workflow-") as tmp:
        tmp = Path(tmp)
        tree, runner_temp, bindir = tmp / "tree", tmp / "runner_temp", tmp / "bin"
        for directory in (tree, runner_temp):
            directory.mkdir()
        copy_tree(tree)
        shims(bindir)
        base_env = dict(
            os.environ,
            PATH=f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}",
            PYTHONPATH=str(tree / "src"),
            RUNNER_TEMP=str(runner_temp),
            **{k: str(v) for k, v in (workflow.get("env") or {}).items()},
        )
        for job_name, job in workflow["jobs"].items():
            job_env = {k: str(v) for k, v in (job.get("env") or {}).items()}
            for number, step in enumerate(job["steps"], 1):
                name = step.get("name") or step.get("uses") or _lines(step["run"])[0]
                title = f"job {job_name}, step {number}: {name}"
                reason = skip_reason(step)
                if reason is not None:
                    print(f"== skipped {title} ({reason})", flush=True)
                    continue
                if "${{" in step["run"]:
                    print(f"== FAILED {title}: its run text holds an expression,"
                          " which is not evaluated here", flush=True)
                    return 1
                print(f"== running {title}", flush=True)
                env = {**base_env, **job_env,
                       **{k: str(v) for k, v in (step.get("env") or {}).items()}}
                script = tmp / f"step-{job_name}-{number}.sh"
                script.write_text(step["run"])
                cwd = tree / step.get("working-directory", ".")
                code = subprocess.run(["bash", "-e", str(script)], cwd=cwd, env=env).returncode
                if code:
                    print(f"== FAILED {title} (exit {code})", flush=True)
                    return 1
    print("== every run step passed", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "workflow", nargs="?", type=Path, default=ROOT / ".github" / "workflows" / "tier1.yml"
    )
    return run_workflow(parser.parse_args(argv).workflow)


if __name__ == "__main__":
    sys.exit(main())

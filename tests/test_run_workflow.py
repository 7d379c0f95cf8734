"""`scripts/run_workflow.py` on the CI workflow's steps and on small
workflows written here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_workflow.py"
SPEC = importlib.util.spec_from_file_location("run_workflow", SCRIPT)
run_workflow = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run_workflow)

STEPS = """\
name: t
on: push
env:
  FROM_WORKFLOW: w
jobs:
  one:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - run: python -m pip install --upgrade pip
      - name: shim, runner temp and env
        env:
          FROM_STEP: s
        run: |
          test "$FROM_WORKFLOW$FROM_STEP" = ws
          triqes spectrum --l 1 --m 1 --out "$RUNNER_TEMP/spectrum.json"
          python -c "import json, os; json.load(open(os.environ['RUNNER_TEMP'] + '/spectrum.json'))"
          test -f scripts/run_workflow.py
"""

PLANTED = """\
      - name: planted
        run: |
          true
          false
          touch "$RUNNER_TEMP/after"
      - name: never reached
        run: echo reached
"""


def run(tmp_path, text):
    path = tmp_path / "workflow.yml"
    path.write_text(text)
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(path)], capture_output=True, text=True,
        timeout=120,
    )


def test_ci_workflow_skips_actions_and_installs_alone():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    skipped = [run_workflow.skip_reason(step) is not None for step in job["steps"]]
    assert skipped == [True] * 4 + [False] * 3


def test_steps_run_and_skips_are_said(tmp_path):
    done = run(tmp_path, STEPS)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("== ")]
    assert lines == [
        "== skipped job one, step 1: actions/checkout@v4 (uses actions/checkout@v4:"
        " actions do not run here)",
        "== skipped job one, step 2: python -m pip install --upgrade pip (pip: nothing"
        " is installed here; the tree runs from its src/)",
        "== running job one, step 3: shim, runner temp and env",
        "== every run step passed",
    ]


def test_failing_line_names_its_step(tmp_path):
    done = run(tmp_path, STEPS + PLANTED)
    assert done.returncode == 1
    assert "== FAILED job one, step 4: planted (exit 1)" in done.stdout
    assert "reached" not in done.stdout

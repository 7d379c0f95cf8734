"""The verdicts of the CLI commands of `scripts/compare_outputs.py`, pinned.

`verdicts.json` holds, for each of those commands by name, its exit code
and, from the file it writes, `count`, `pass` and the failed stages of
each sweep tuple or verify check, in order; a command that writes no
file, or a file with no tuples or checks (a spectrum or a curve), has its
exit code alone.  No float is pinned: `eigh` bits vary with
the BLAS.  The corpus was recorded from the outputs of the pipeline that
still ran the standard-form BHE residual beside the operator form.  A
change that moves a verdict edits the corpus and says so in CHANGES.md,
as a change to test data.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from triqes.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_outputs)

CORPUS = json.loads((Path(__file__).with_name("verdicts.json")).read_text())
COMMANDS = [(name, argv) for name, argv in compare_outputs.COMMANDS if argv[0] != "script"]


def verdicts(argv, workdir):
    """The exit code of `argv` run in process, its output file written to
    `workdir`, and the file's verdicts."""
    out = workdir / "out"
    code = main([str(out) if a == "{out}" else a for a in argv])
    text = out.read_text() if out.exists() else ""
    # a curve's CSV opens with its manifest comment
    payload = json.loads(text) if text.startswith("{") else {}
    rows = payload.get("tuples", payload.get("checks"))
    if rows is None:
        return {"exit_code": code}
    return {
        "exit_code": code,
        **{k: payload[k] for k in ("count", "pass") if k in payload},
        "failed": [row["failed"] for row in rows],
    }


def test_corpus_covers_every_command():
    assert list(CORPUS) == [name for name, _ in COMMANDS]


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_verdicts_match_the_corpus(tmp_path, name, argv):
    assert verdicts(argv, tmp_path) == CORPUS[name]

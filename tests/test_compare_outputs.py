import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_outputs)

# one sweep that writes a file, and one that exits 1 on ||H||_F before
# writing any
COMMANDS = [
    ("writes", ["sweep", "--no-oracle", "--lmax", "2", "--mmax", "1", "--b", "1,1/2",
                "--out", "{out}"]),
    ("fails", ["sweep", "--no-oracle", "--lmax", "1", "--mmax", "1", "--w=0,1e308,1e308",
               "--out", "{out}"]),
]
RESIDUALS = {"bhe_operator_residual", "schrodinger_residual"}


def copy_tree(dest):
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_compare_outputs_flags_a_planted_writer_fault(tmp_path):
    parent, change = copy_tree(tmp_path / "parent"), copy_tree(tmp_path / "change")
    before = compare_outputs.run_all(parent, COMMANDS)
    assert [r["exit_code"] for r in before] == [0, 1]
    assert before[0]["file"] and before[1]["file"] is None
    lines, ok = compare_outputs.compare(before, compare_outputs.run_all(change, COMMANDS), COMMANDS)
    assert ok, lines

    # the sweep writer's floats rounded to 14 digits instead of 15
    cli = change / "src" / "triqes" / "cli.py"
    text = cli.read_text()
    assert text.count('f"{x:.15g}"') == 1
    cli.write_text(text.replace('f"{x:.15g}"', 'f"{x:.14g}"'))
    after = compare_outputs.run_all(change, COMMANDS)
    lines, ok = compare_outputs.compare(before, after, COMMANDS)
    assert not ok
    assert [line.split()[:2] for line in lines if not line.startswith(" ")] == [
        ["DIFF", "writes"], ["ok", "fails"],
    ]
    moved = {field for field, _ in compare_outputs.differences(before[0], after[0])}
    assert moved and moved <= RESIDUALS, moved
    # a change meant to move those fields passes
    assert compare_outputs.compare(before, after, COMMANDS, RESIDUALS)[1]


def test_dropped_key_and_moved_value_in_one_dict():
    # a dict that loses a key is compared over its other keys: the dropped
    # key and a value that moved beside it are each their own field
    def result(worst, failed, passed):
        run = {"exit_code": 0, "stderr": "", "stdout": "", "eigh_tridiagonal_calls": 0}
        tuples = [{"failed": failed, "pass": passed, "worst": worst}]
        return {**run, "file": json.dumps({"tuples": tuples, "pass": passed})}

    before = result({"x": 1.0, "y": 2e-12, "z": 3.0}, [], True)
    after = result({"x": 1.0, "z": 2.5}, ["bhe"], False)
    diffs = dict(compare_outputs.differences(before, after))
    assert diffs == {
        "y": "file: y (removed) in 1 values",
        "z": "file: z moved in 1 values, max |change| 0.5",
        "failed": "file: failed moved in 1 values",
        "pass": "file: pass moved in 2 values",
    }
    assert dict(compare_outputs.differences(after, before))["y"] == (
        "file: y (added) in 1 values"
    )
    commands = [("one", [])]
    assert not compare_outputs.compare([before], [after], commands, {"y"})[1]
    assert compare_outputs.compare([before], [after], commands, {"y", "z", "failed", "pass"})[1]

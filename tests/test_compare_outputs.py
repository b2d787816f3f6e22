"""The output comparer in tools/compare_outputs.py: a source tree compared
with itself reads no difference, and a tree whose printed output moves by
one byte shows in every run that prints and in the exit status."""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

def test_config_set_covers_every_system_and_command():
    labels = [label for label, _, _ in compare_outputs.runs(3, 3)]
    assert len(labels) == len(set(labels)) == 7 * 5 + 1
    for name in compare_outputs.STARTS:
        for kind in ("simulate-csv", "simulate-json", "momentum", "check-seed0", "check-seed7"):
            assert f"{kind}/{name}" in labels
    assert labels[-1] == "simulate/readme-ball"


def test_a_tree_compared_with_itself_reads_no_difference(capsys):
    src = str(ROOT / "src")
    assert compare_outputs.compare(src, src, steps=3, ball_steps=3) == 0
    assert capsys.readouterr().out.splitlines() == ["36 runs, 0 differ"]


def test_a_moved_byte_of_stdout_shows_in_every_run_that_prints(tmp_path, capsys):
    # a momentum run of a system with no momentum maps exits 2 before it prints
    from nhmech import models

    silent = {f"momentum/{name}" for name in compare_outputs.STARTS
              if not models.FACTORIES[name]().momentum_specs}
    assert len(silent) == 5
    moved = tmp_path / "src"
    shutil.copytree(ROOT / "src", moved, ignore=shutil.ignore_patterns("__pycache__"))
    cli = moved / "nhmech" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    line = "print(_RUNNERS[args.command](cfg, args.out, verbose=args.verbose))"
    assert line in text
    cli.write_text(text.replace(line, line[:-1] + ' + " ")'), encoding="utf-8")
    assert compare_outputs.compare(str(ROOT / "src"), str(moved), steps=3, ball_steps=3) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1] == "36 runs, 31 differ"
    labels = [label for label, _, _ in compare_outputs.runs(3, 3)]
    assert rows[:-1] == [f"{label}: stdout differ" for label in labels if label not in silent]

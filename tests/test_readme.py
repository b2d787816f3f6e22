"""The README's examples run as written: the "Library use" block executes and
the JSON config of the command-line section passes the config validator."""

import json
import pathlib
import re

from nhmech import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ```lang fenced block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(_block("## Library use", "python"), "README.md", "exec"), {})
    # iterations, residual, multipliers / regularity / reversibility verdicts
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split()[0] == "True"
    assert lines[2] == "True True"


def test_command_line_config_is_valid():
    data = json.loads(_block("## Command line", "json"))
    cfg = cli.parse_config(data)
    assert cfg.system == "rolling_ball"

"""The README's examples run as written: the "Library use" block executes,
the JSON config of the command-line section passes the config validator, and
the config-key table states the defaults the validator fills in."""

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
    assert cfg["system"]["name"] == "rolling_ball"
    assert cli.parse_config(cfg) == cfg


def test_config_key_table_matches_the_parser():
    section = README.split("\n## Command line\n", 1)[1]
    block = section.split("\n| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([a-z_.]+)` \| (.*?) \|", block, re.M)
    table = dict(rows)
    assert len(table) == len(rows)
    # every key of the schema has a row
    sections = {"system": cli._SYSTEM_KEYS, "solver": cli._SOLVER_KEYS,
                "outputs": cli._OUTPUT_KEYS, "momentum": cli._MOMENTUM_KEYS,
                "check": cli._CHECK_KEYS}
    keys = {f"{name}.{key}" for name, group in sections.items() for key in group}
    assert set(table) == keys | (cli._TOP_KEYS - set(sections))
    # a default written as one JSON value is the one parse_config fills in
    stated = {key: json.loads(cell[1:-1]) for key, cell in table.items()
              if re.fullmatch(r"`[^`]+`", cell)}
    filled = {}
    for name, value in cli.parse_config({"system": {"name": "suslov"}}).items():
        if name in sections:
            filled.update({f"{name}.{key}": v for key, v in value.items()})
        else:
            filled[name] = value
    del filled["system.name"]
    assert stated == filled

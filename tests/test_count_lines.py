"""The line counter in tools/count_lines.py: one hand-counted source."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os


class A:
    """Class docstring."""

    x = "not a docstring"

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is code"""
        return s  # trailing comment is code
'''


def test_counts_by_the_ast_method():
    # total, code (import, class, x, def, the 2-line s, return),
    # docstring (2 + 1 + 2), comment
    assert count_lines.count(SOURCE) == (18, 7, 5, 1)


def test_main_prints_one_row_per_file_and_the_sum(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("# not python\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows] == ["file", str(tmp_path / "a.py"),
                                            str(tmp_path / "b.py"), "total"]
    assert rows[-1].split()[1:] == ["36", "14", "10", "2"]

"""Count total, code, docstring and comment lines of Python files.

Usage: python tools/count_lines.py PATH [PATH ...]

A PATH may be a file or a directory (its ``*.py`` files, recursively).  The
count follows the AST method: docstring lines are the lines of the
first-statement string of each module, class or function; comment lines are
the other lines whose first non-blank character is ``#``; code lines are the
rest, blank lines excluded.  One row per file, then the sum.  Standard
library only.
"""

import ast
import os
import sys

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(total, code, docstring, comment) line counts of one source text."""
    text = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = comment = 0
    for number, line in enumerate(text, start=1):
        stripped = line.strip()
        if number in docs or not stripped:
            continue
        if stripped.startswith("#"):
            comment += 1
        else:
            code += 1
    return len(text), code, len(docs), comment


def python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
        else:
            yield path


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    rows = []
    for path in python_files(paths):
        with open(path, encoding="utf-8") as fh:
            rows.append((path, count(fh.read())))
    width = max([len("total")] + [len(path) for path, _ in rows])
    print(f"{'file':<{width}}  {'total':>6} {'code':>6} {'doc':>6} {'comment':>7}")
    for path, (total, code, doc, comment) in rows:
        print(f"{path:<{width}}  {total:>6} {code:>6} {doc:>6} {comment:>7}")
    sums = [sum(r[1][i] for r in rows) for i in range(4)]
    print(f"{'total':<{width}}  {sums[0]:>6} {sums[1]:>6} {sums[2]:>6} {sums[3]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

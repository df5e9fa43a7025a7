"""tools/line_count.py: each module's lines split into code, docstring, comment and blank, and a total."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_count", ROOT / "tools" / "line_count.py")
line_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_count)

FIRST = '''"""Module docstring,

on three lines."""

import os  # a line with code and a comment is code

# a comment line


def f():
    """One line."""
    text = """a string that is not
a docstring"""
    return text
'''

SECOND = '''class C:
    # an indented comment
    x = 1

    def g(self):
        """Two
        lines."""
'''


def test_each_module_and_the_total_split_into_four_columns(tmp_path, capsys):
    (tmp_path / "first.py").write_text(FIRST)
    (tmp_path / "second.py").write_text(SECOND)
    (tmp_path / "notes.txt").write_text("not a module\n")
    columns = ("lines", "code", "docstring", "comment", "blank")
    want = [("first.py", (14, 5, 4, 1, 4)), ("second.py", (7, 3, 2, 1, 1)), ("total", (21, 8, 6, 2, 5))]
    assert line_count.package_counts(tmp_path) == [(name, dict(zip(columns, n))) for name, n in want]
    line_count.main([str(tmp_path)])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == [*columns, "module"]
    assert [row.split() for row in rows] == [[*map(str, n), name] for name, n in want]

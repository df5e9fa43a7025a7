"""Source lines of each module of a Python package, split into code, docstring, comment and blank.

Run from the repository root:

    python3 tools/line_count.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/mculora``. The tool prints one line
``<lines> <code> <docstring> <comment> <blank>  <module>`` per ``.py`` file
of the directory, sorted by name, and last the same columns summed over them
with the name ``total``. Each line of a file falls in exactly one column:

* docstring: a line of a module, class or function docstring, from its
  opening quotes to its closing ones, blank lines inside it included;
* code: any other line that holds a token of the program, including a line
  of a string that is not a docstring and a line with code and a comment;
* comment: a line that holds only a comment;
* blank: a line that holds only whitespace.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("lines", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The counts of `source`, one Python module's text, keyed by ``COLUMNS``."""
    docstring, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        counts["lines"] += 1
        if number in docstring:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def package_counts(package: Path) -> list[tuple[str, dict[str, int]]]:
    """(module file name, counts) for each ``.py`` file of `package`, sorted by name, then ("total", sums)."""
    rows = [(path.name, count_lines(path.read_text(encoding="utf-8"))) for path in sorted(package.glob("*.py"))]
    return rows + [("total", {c: sum(counts[c] for _, counts in rows) for c in COLUMNS})]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "mculora")
    args = parser.parse_args(argv)
    print(" ".join(f"{c:>9}" for c in COLUMNS) + "  module")
    for name, counts in package_counts(args.package):
        print(" ".join(f"{counts[c]:>9}" for c in COLUMNS) + f"  {name}")


if __name__ == "__main__":
    main()

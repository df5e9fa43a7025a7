"""Every name imported in the package and its tests is used in the same file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads; __future__ imports are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names_only():
    source = "from __future__ import annotations\nimport os.path\nimport json as j\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == [(2, "os"), (3, "j"), (4, "b")]


def test_no_unused_imports():
    files = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []

"""Every top-level function and class of the package is used by the package or the benchmark.

A definition that only tests reach is an API kept alive for its tests. The
package itself and bench/ count as users: attribute and imported names, and
for bench/ also string constants, since bench/tracing.py names the functions
it traces as strings. A definition's references to itself do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def references(tree: ast.Module, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names the module reads outside the top-level node `skip`; with `strings`, string constants too."""
    found = set()
    for top in tree.body:
        if top is skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def unused_definitions(package: dict[str, str], users: dict[str, str]) -> list[tuple[str, str]]:
    """(file, name) of each top-level function or class in `package` (file -> source)
    that no other package code and no file of `users` refers to."""
    trees = {path: ast.parse(source) for path, source in package.items()}
    outside = set().union(*(references(ast.parse(source), strings=True) for source in users.values()))
    unused = []
    for path, tree in trees.items():
        others = outside.union(*(references(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in others
                    and node.name not in references(tree, skip=node)):
                unused.append((path, node.name))
    return sorted(unused)


def test_scan_finds_definitions_no_user_reaches():
    package = {
        "a.py": "def used(): pass\ndef tested(): return tested()\nclass Kept: pass\ndef _local(): pass\n"
                "def caller(): return _local()\n",
        "b.py": "from a import Kept\nimport a\ndef uses(): return a.used(), Kept\n",
    }
    users = {"bench.py": "TRACED = (('a', 'caller', 'span'),)\nfrom a import uses\n"}
    assert unused_definitions(package, users) == [("a.py", "tested")]
    assert unused_definitions(package, {}) == [("a.py", "caller"), ("a.py", "tested"), ("b.py", "uses")]


def test_every_package_definition_has_a_user_outside_tests():
    def sources(folder):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in sorted(ROOT.glob(f"{folder}/**/*.py"))}
    package = sources("src/mculora")
    assert package
    assert unused_definitions(package, sources("bench")) == []

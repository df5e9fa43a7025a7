"""Every cross-reference in the package's docstrings names something that exists.

A docstring points to the code that owns a statement with a role such as
``:func:`save_container``` or ``:meth:`read```. A renamed or deleted target
leaves the pointer dangling, and nothing else fails. Each target is tried, in
turn, relative to the docstring's module, relative to its enclosing class,
under ``mculora.``, and among the builtins (``:class:`IndexError```). A
leading ``~`` only shortens how the name is shown, so it is dropped.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mculora"
ROLE = re.compile(r":(func|class|meth|mod|attr):`~?([\w.]+)`")


def docstrings(tree: ast.Module):
    """(enclosing class name or None, docstring) of the module and of each class and function in it."""
    def walk(node, owner):
        text = ast.get_docstring(node, clean=False)
        if text:
            yield owner, text
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, owner)
    yield from walk(tree, None)


def references():
    """(module name, enclosing class name or None, target) of every role in the package's docstrings."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "mculora" if path.stem == "__init__" else f"mculora.{path.stem}"
        for owner, text in docstrings(ast.parse(path.read_text(encoding="utf-8"))):
            found += [(module, owner, target) for _, target in ROLE.findall(text)]
    return found


def lookup(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(module_name: str, owner: str | None, target: str) -> bool:
    module = importlib.import_module(module_name)
    if lookup(module, target) or (owner is not None and lookup(getattr(module, owner), target)):
        return True
    parts = target.split(".")
    if parts[0] != "mculora":
        parts = ["mculora", *parts]
    for cut in range(len(parts), 0, -1):
        try:
            base = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        if not parts[cut:] or lookup(base, ".".join(parts[cut:])):
            return True
    return lookup(builtins, target)


def test_every_cross_reference_resolves():
    found = references()
    assert len(found) >= 50  # the scan sees the roles at all
    assert [ref for ref in found if not resolves(*ref)] == []


def test_a_missing_target_does_not_resolve():
    assert resolves("mculora.synthgen", "DatasetFile", "read")
    assert resolves("mculora.serialize", None, "IndexError")
    assert not resolves("mculora.synthgen", "DatasetFile", "no_such_method")
    assert not resolves("mculora.trainer", None, "mculora.synthgen.no_such_function")

"""Only mculora/serialize.py creates files.

Every artifact is written atomically and hashed from the bytes written by
the writers of the serialize module, so no other package module may call
what creates or replaces a file: ``os.open``, ``os.replace`` or
``os.rename``, a ``write_text`` or ``write_bytes`` method (a path's), or
``open`` in a mode that writes. ``serialize.write_text``, the module's text
writer, is what the others call instead. An ``open`` whose mode is not a
string constant counts as writing, since the scan cannot tell. The one
temporary-file rename of the package is the single ``os.replace`` call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRITER = "src/mculora/serialize.py"


def _writes(mode: ast.expr | None) -> bool:
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or any(c in mode.value for c in "wax+")


def file_creating_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, call) of each call in the module that may create or replace a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        keyword_mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
        if isinstance(func, ast.Name) and func.id == "open":
            if _writes(keyword_mode or (node.args[1] if len(node.args) > 1 else None)):
                found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute):
            receiver = func.value.id if isinstance(func.value, ast.Name) else None
            if receiver == "os" and func.attr in ("open", "replace", "rename"):
                found.append((node.lineno, f"os.{func.attr}"))
            elif func.attr in ("write_text", "write_bytes") and receiver != "serialize":
                found.append((node.lineno, func.attr))
            elif func.attr == "open" and _writes(keyword_mode or (node.args[0] if node.args else None)):
                found.append((node.lineno, "open"))  # a path's open(mode)
    return sorted(found)


def test_scan_finds_every_kind_of_file_creating_call():
    source = ("import os\n"
              "from .serialize import write_text\n"
              "def f(path, mode):\n"
              "    os.replace(path, path)\n"
              "    os.rename(path, path)\n"
              "    os.open(path, os.O_RDONLY)\n"
              "    path.write_text('x')\n"
              "    path.write_bytes(b'x')\n"
              "    open(path, 'w')\n"
              "    open(path, mode='ab')\n"
              "    path.open('r+')\n"
              "    path.open(mode)\n"
              "    open(path)\n"
              "    open(path, 'rb')\n"
              "    path.open()\n"
              "    path.open('rb')\n"
              "    write_text(path, 'x')\n"
              "    serialize.write_text(path, 'x')\n"
              "    text.replace('a', 'b')\n")
    assert file_creating_calls(ast.parse(source)) == [
        (4, "os.replace"), (5, "os.rename"), (6, "os.open"), (7, "write_text"), (8, "write_bytes"),
        (9, "open"), (10, "open"), (11, "open"), (12, "open")]


def test_only_the_serialize_module_creates_files():
    calls = {str(p.relative_to(ROOT)): file_creating_calls(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(ROOT.glob("src/mculora/**/*.py"))}
    assert WRITER in calls
    assert {path: found for path, found in calls.items() if found and path != WRITER} == {}
    assert [call for _, call in calls[WRITER]].count("os.replace") == 1

"""Every optional parameter of the package is passed by the program.

An optional parameter that no call in src/, bench/ or tools/ ever passes only
ever takes its default in use, so it is a constant dressed up as an option;
a call in tests/ does not count, since an option only tests pass is a path
kept alive for its tests. Calls are matched to definitions by name (a method
by its attribute name, a class's ``__init__`` by the class name, a name
imported with ``from ... import x as y`` by x), so a call to another callable
of the same name counts too; a call that splats ``*args`` or ``**kwargs``
counts as passing every parameter. ``_EXCEPTIONS`` names the options that
only tests pass, each with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, callable, parameter) -> why the option stays although only tests pass it
_EXCEPTIONS = {
    ("src/mculora/autodiff.py", "tmean", "axis"):
        "the fused encoder's bit-identity test builds its reference chain with a mean over positions",
    ("src/mculora/synthgen.py", "generate_dataset", "root_rng"):
        "only tests call generate_dataset (the benchmark's tracing names it), until it moves out of the package",
}


def optional_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callable name, parameter, positional slot or None) of each parameter with a default
    of a top-level function or a method of a top-level class. The slot counts the
    arguments a call writes, so a method's bound first argument takes none."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            defs = [(top.name, top, 0)]
        elif isinstance(top, ast.ClassDef):
            defs = [(top.name if f.name == "__init__" else f.name, f,
                     0 if any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list) else 1)
                    for f in top.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for name, func, bound in defs:
            args = func.args
            positional = args.posonlyargs + args.args
            for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                    start=len(positional) - len(args.defaults)):
                found.append((name, arg.arg, i - bound))
            found += [(name, arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def passed(trees: list[ast.Module]) -> tuple[set[tuple[str, str]], dict[str, int], set[str]]:
    """Keywords passed per callable name, the most positional arguments any call
    passes, and the names called with a splat; a name a module imported under
    an alias is the imported name."""
    keywords, most, splatted = set(), {}, set()
    for tree in trees:
        aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (aliases.get(func.id, func.id) if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                splatted.add(name)
            keywords |= {(name, k.arg) for k in node.keywords}
            most[name] = max(most.get(name, 0), len(node.args))
    return keywords, most, splatted


def unpassed_options(package: dict[str, str], users: dict[str, str]) -> list[tuple[str, str, str]]:
    """(file, callable, parameter) of each optional parameter in `package` (file -> source)
    that no call in `package` or `users` passes."""
    trees = {path: ast.parse(source) for path, source in package.items()}
    keywords, most, splatted = passed(list(trees.values()) + [ast.parse(s) for s in users.values()])
    unpassed = []
    for path, tree in trees.items():
        for name, param, slot in optional_parameters(tree):
            by_position = slot is not None and most.get(name, 0) > slot
            if name not in splatted and (name, param) not in keywords and not by_position:
                unpassed.append((path, name, param))
    return sorted(unpassed)


def test_scan_finds_optional_parameters_no_call_passes():
    package = {
        "a.py": "def f(x, y=1, z=2, *, k=3): pass\n"
                "class C:\n"
                "    def __init__(self, p, q=0): pass\n"
                "    def m(self, r=0, s=0): pass\n"
                "    @staticmethod\n"
                "    def st(u=0): pass\n"
                "def splat(w=0): pass\n",
        "b.py": "from a import f, C\nf(0, 1)\nC(1).m(2)\n",
    }
    users = {"tool.py": "from a import f, C, splat\nfrom a import st as static\nf(0, k=4)\nstatic(5)\nsplat(**{})\n"}
    assert unpassed_options(package, users) == [("a.py", "C", "q"), ("a.py", "f", "z"), ("a.py", "m", "s")]
    assert unpassed_options(package, {}) == [("a.py", "C", "q"), ("a.py", "f", "k"), ("a.py", "f", "z"),
                                             ("a.py", "m", "s"), ("a.py", "splat", "w"), ("a.py", "st", "u")]


def test_every_optional_package_parameter_is_passed_somewhere():
    def sources(folder):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in sorted(ROOT.glob(f"{folder}/**/*.py"))}
    package = sources("src/mculora")
    assert package
    assert unpassed_options(package, {**sources("bench"), **sources("tools")}) == sorted(_EXCEPTIONS)

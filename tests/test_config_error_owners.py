"""Only config.py and cli.py raise ConfigError.

``ExperimentConfig.validate()`` is the package's only range check of a
setting, and the CLI's own input checks (its --out directory, its run names)
are the only other input errors: both exit 2. Every other module takes a
validated config and checks no setting again, so a ``raise ConfigError`` in
it would be a second range check. The scan finds a raise of the name
``ConfigError`` or of an attribute of that name, called or bare.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OWNERS = {"src/mculora/config.py", "src/mculora/cli.py"}


def config_error_raises(tree: ast.Module) -> list[int]:
    """The line of each ``raise`` of ConfigError in the module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (isinstance(exc, ast.Name) and exc.id == "ConfigError") or \
                (isinstance(exc, ast.Attribute) and exc.attr == "ConfigError"):
            found.append(node.lineno)
    return sorted(found)


def test_scan_finds_every_kind_of_config_error_raise():
    source = ("from . import errors\n"
              "from .errors import ConfigError, ContractError\n"
              "def f(x):\n"
              "    raise ConfigError(f'bad {x}')\n"
              "    raise errors.ConfigError('bad')\n"
              "    raise ConfigError\n"
              "    raise ContractError('fine')\n"
              "    raise\n"
              "    raise ValueError('fine') from ConfigError('cause')\n")
    assert config_error_raises(ast.parse(source)) == [4, 5, 6]


def test_only_config_and_cli_raise_config_error():
    raises = {str(p.relative_to(ROOT)): config_error_raises(ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(ROOT.glob("src/mculora/**/*.py"))}
    assert OWNERS <= set(raises) and all(raises[owner] for owner in OWNERS)
    assert {path: lines for path, lines in raises.items() if lines and path not in OWNERS} == {}

"""Every option of the pipeline commands has a caller outside the tests.

The pipeline commands (gen-data, pretrain, finetune, eval) are run by two
argv builders, ``bench/pipeline.py`` and ``tools/artifact_digest.py``. An
option that neither of them writes is one that no run ever sets; when it
also sets a config value, it lets a run's settings differ from the config
file its manifest names. So each option of those four subcommands, bar
argparse's own ``--help``, must appear as a string constant in one of the
two builders. ``report`` is left out: no caller outside the tests runs it.
"""

import argparse
import ast
from pathlib import Path

from mculora.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("bench/pipeline.py", "tools/artifact_digest.py")
PIPELINE_COMMANDS = ("gen-data", "pretrain", "finetune", "eval")


def string_constants(path: Path) -> set[str]:
    return {node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def options(parser: argparse.ArgumentParser) -> list[str]:
    return [flag for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings]


def test_every_pipeline_option_is_written_by_an_argv_builder():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    written = set().union(*(string_constants(ROOT / path) for path in CALLERS))
    uncalled = [f"{command} {flag}" for command in PIPELINE_COMMANDS for flag in options(commands[command])
                if flag not in written]
    assert not uncalled, f"options that no argv builder writes: {uncalled}"

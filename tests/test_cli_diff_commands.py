"""The byte-diff command list covers the whole CLI surface.

tools/cli_diff.py compares two trees only on the commands of
tools/cli_diff_commands.txt, so a subcommand, flag or choice missing there
could change its output unnoticed.  These tests read cli.build_parser() and
require every subcommand, every flag of each, every --suite, --kind and
--format choice, and every suite in both formats to appear in the list.
"""

import argparse
import importlib.util
from pathlib import Path

import pytest

from cycosc import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMMANDS = _load_tool().load_commands()


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


SUBPARSERS = _subparsers(cli.build_parser())


def _values(argv: list[str], flag: str) -> list[str]:
    """Every value given to flag in argv, as `flag value` or `flag=value`."""
    out = []
    for i, tok in enumerate(argv):
        if tok == flag and i + 1 < len(argv):
            out.append(argv[i + 1])
        elif tok.startswith(flag + "="):
            out.append(tok.split("=", 1)[1])
    return out


def _of(name: str) -> list[list[str]]:
    return [argv for argv in COMMANDS if argv and argv[0] == name]


def test_root_help_is_listed():
    assert ["--help"] in COMMANDS


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
def test_every_flag_of_each_subcommand_is_listed(name):
    commands = _of(name)
    assert commands, f"no {name} command"
    flags = {s for a in SUBPARSERS[name]._actions for s in a.option_strings if s.startswith("--")}
    missing = sorted(f for f in flags if not any(f in argv or _values(argv, f) for argv in commands))
    assert not missing, f"{name} flags never used: {missing}"


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
def test_every_choice_of_each_subcommand_is_listed(name):
    commands = _of(name)
    for action in SUBPARSERS[name]._actions:
        if action.choices is None:
            continue
        (flag,) = [s for s in action.option_strings if s.startswith("--")]
        given = {v for argv in commands for v in _values(argv, flag)}
        missing = sorted(set(action.choices) - given)
        assert not missing, f"{name} {flag} choices never used: {missing}"


def test_every_suite_is_listed_in_both_formats():
    for suite in cli.SUITES:
        runs = [argv for argv in _of("verify") if _values(argv, "--suite") == [suite]]
        formats = {(_values(argv, "--format") or ["csv"])[-1] for argv in runs}
        assert formats == {"csv", "json"}, f"verify --suite {suite}: formats {formats}"


"""Every command-line flag is passed by something that runs.

The flag-level sibling of ``tests/test_src_reach.py``. The flags are
every option of the ``[project.scripts]`` commands, read off the
parsers their functions build (a subcommand's options belong to
``COMMAND SUB``). A flag is reached
when a root passes it to *its own* command — ``--seed`` given to
``repro-run`` does nothing for ``repro-service bench``. The roots:

* a command in a ``run:`` step of ``.github/workflows/ci.yml``;
* a call of a command's function in a file under ``benchmarks/`` or
  ``examples/``, with the string literals of its arguments (an argument
  that is a variable contributes the literals assigned to it in that
  file);
* a README line that ``tests/test_readme_commands.py`` runs.

A flag no root passes is code only tests run: delete it with what only
it reaches, or give it a line in ``ALLOWED`` that says why it stays.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import shlex
from pathlib import Path
from unittest import mock

from tests.test_readme_commands import readme_commands, scripts

ROOT = Path(__file__).resolve().parents[1]

#: Command -> ``module:function``: the console scripts.
COMMANDS = scripts()

ALLOWED: dict[str, str] = {}

_FLAG = re.compile(r"--?[A-Za-z][\w-]*(=.*)?")


class _Parsed(Exception):
    def __init__(self, parser: argparse.ArgumentParser) -> None:
        self.parser = parser


def parser_of(target: str) -> argparse.ArgumentParser:
    """The parser ``module:function`` builds, caught as it is used."""
    module, function = target.split(":")

    def catch(parser, args=None, namespace=None):
        raise _Parsed(parser)

    with mock.patch.object(argparse.ArgumentParser, "parse_args", catch):
        try:
            getattr(importlib.import_module(module), function)([])
        except _Parsed as parsed:
            return parsed.parser
    raise AssertionError(f"{target} never parsed its arguments")


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _name(action: argparse.Action) -> str:
    return "/".join(action.option_strings)


PARSERS = {command: parser_of(target) for command, target in COMMANDS.items()}


def all_flags() -> set[str]:
    """Every ``COMMAND FLAG`` (``-h`` aside)."""
    found = set()
    for command, parser in PARSERS.items():
        for sub, subparser in [("", parser), *_subparsers(parser).items()]:
            for action in subparser._actions:
                if action.option_strings and not isinstance(
                        action, argparse._HelpAction):
                    found.add(f"{command}{' ' + sub if sub else ''} {_name(action)}")
    return found


def passed(command: str, argv: list[str]) -> set[str]:
    """The ``COMMAND FLAG`` names ``argv`` passes to ``command``; a
    subparser command's first argument that names a subcommand picks
    whose flags they are. An option the command does not have is an
    ``AssertionError``: the root is broken."""
    parser = PARSERS[command]
    subparsers = _subparsers(parser)
    sub = next((arg for arg in argv if arg in subparsers), None)
    if sub is not None:
        parser, command = subparsers[sub], f"{command} {sub}"
    found = set()
    for arg in argv:
        if _FLAG.fullmatch(arg):
            action = parser._option_string_actions.get(arg.split("=")[0])
            assert action is not None, f"{command} has no option {arg}"
            found.add(f"{command} {_name(action)}")
    return found


def _shell_commands(script: str) -> list[list[str]]:
    """The simple commands of a shell script, each as its argv."""
    commands = []
    for line in script.replace("\\\n", " ").splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        current: list[str] = []
        for token in [*lexer, ";"]:
            if token in ("&&", "||", ";", "|", "(", ")"):
                if current:
                    commands.append(current)
                current = []
            else:
                current.append(token)
    return commands


def ci_scripts() -> list[str]:
    """The ``run:`` steps of the CI workflow, ``>`` blocks folded."""
    found = []
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    for i, line in enumerate(lines):
        step = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if step is None:
            continue
        indent, value = len(step.group(1)), step.group(2)
        if value[:1] not in ("|", ">"):
            found.append(value)
            continue
        body = []
        for following in lines[i + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            body.append(following.strip())
        found.append((" " if value[0] == ">" else "\n").join(body))
    return found


def _invocation(argv: list[str]) -> tuple[str, list[str]] | None:
    if argv[0] in COMMANDS:
        return argv[0], argv[1:]
    return None


def python_calls(source: str) -> list[tuple[str, list[str]]]:
    """``(command, literals)`` for each call of a command's function."""
    tree = ast.parse(source)
    functions = {target: command for command, target in COMMANDS.items()}
    called = {}
    assigned: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                command = functions.get(f"{node.module}:{alias.name}")
                if command is not None:
                    called[alias.asname or alias.name] = command
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).extend(
                        _literals(node.value, {}))
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in called):
            literals = []
            for arg in node.args:
                literals += _literals(arg, assigned)
            calls.append((called[node.func.id], literals))
    return calls


def _literals(node: ast.AST, assigned: dict[str, list[str]]) -> list[str]:
    """The string literals in ``node``; a variable in it contributes the
    literals assigned to it."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.append(n.value)
        elif isinstance(n, ast.Name):
            found += assigned.get(n.id, [])
    return found


def root_invocations() -> list[tuple[str, list[str]]]:
    """Every ``(command, argv)`` a root runs."""
    found = []
    for script in ci_scripts():
        for argv in _shell_commands(script):
            invocation = _invocation(argv)
            if invocation is not None:
                found.append(invocation)
    for path in [*(ROOT / "benchmarks").rglob("*.py"),
                 *(ROOT / "examples").glob("*.py")]:
        found += python_calls(path.read_text())
    for line in readme_commands():
        if not line.skipped and line.argv[0] in COMMANDS:
            found.append((line.argv[0], line.argv[1:]))
    return found


def reached() -> set[str]:
    found: set[str] = set()
    for command, argv in root_invocations():
        found |= passed(command, argv)
    return found


def test_every_flag_is_reached_or_allowed():
    unreached = all_flags() - reached()
    missing = sorted(unreached - ALLOWED.keys())
    assert not missing, "no root passes:\n" + "\n".join(missing)
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, "allowed but reached or gone:\n" + "\n".join(stale)


def test_every_allowed_flag_says_why():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_roots_are_found():
    commands = {command for command, _ in root_invocations()}
    assert {"repro-lint", "repro-plan", "repro-run", "repro-report"} <= commands
    assert {"repro-plan --submit-dir", "repro-run --journal",
            "repro-plan --retries"} <= reached()


def test_a_flag_counts_for_its_own_command_only():
    assert passed("repro-run", ["--submit-dir", "d", "--seed", "3"]) == {
        "repro-run --submit-dir", "repro-run --seed"}
    assert passed("repro-service", ["bench", "--seed", "3"]) == {
        "repro-service bench --seed"}
    assert passed("repro-report", ["compare", "a", "b", "--json", "x"]) == {
        "repro-report compare --json"}
    assert passed("repro-lint", ["-n", "3", "--site=osg"]) == {
        "repro-lint -n/--clusters", "repro-lint --site"}


def test_the_rule_sees_what_it_is_for():
    source = (
        "from repro.wms.cli import main_plan, main_run as run\n"
        "def op(d):\n"
        "    args = ['--submit-dir', d]\n"
        "    args += ['--journal', 'j']\n"
        "    main_plan(['--submit-dir', d, '-n', '3'])\n"
        "    return run(args)\n"
    )
    assert sorted(python_calls(source)) == [
        ("repro-plan", ["--submit-dir", "-n", "3"]),
        ("repro-run", ["--submit-dir", "--journal", "j"]),
    ]
    script = 'repro-run --submit-dir "$d" --seed 1 || rc=$?  # note --fix\nls'
    assert _shell_commands(script) == [
        ["repro-run", "--submit-dir", "$d", "--seed", "1"], ["rc=$?"], ["ls"]]

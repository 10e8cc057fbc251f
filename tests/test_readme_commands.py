"""README's shell examples run as written.

Every ``repro-*`` line of a fenced ``bash`` block in ``README.md`` runs
verbatim, in README order, in one scratch directory: ``\\``
continuations are joined, ``&&`` separates two lines, and the command's
``[project.scripts]`` function is called in-process with
``shlex.split`` of the rest. A line passes when it exits 0, or with the
code its own comment states (``... -> exit 1``); the comment runs on
over the ``#`` lines below it. An ``echo 'TEXT' > FILE`` line writes
its file, so a later line can read it.

A line that SIGKILLs its own process (its comment says ``exit 137``,
128 + 9) runs in a child interpreter instead. A line that reads one of
``MISSING_INPUTS`` — files the README leaves to the reader — is
skipped.

These lines are the README root of ``tests/test_flag_reach.py``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]

#: Inputs of the "your own files" examples; nothing in the README makes them.
MISSING_INPUTS = ("t.fasta", "a.out")

_SIGKILL_EXIT = 128 + 9


def scripts() -> dict[str, str]:
    """``[project.scripts]``: command name -> ``module:function``."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    table = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^([\w-]+)\s*=\s*"([\w.]+:\w+)"', table, re.M))


@dataclass
class Command:
    """One README command line, continuations joined."""

    line: str
    comment: str = ""

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.line)

    @property
    def exit(self) -> int:
        stated = re.search(r"\bexit (\d+)", self.comment)
        return int(stated.group(1)) if stated else 0

    @property
    def skipped(self) -> bool:
        return any(arg in MISSING_INPUTS for arg in self.argv)


def readme_commands(text: str | None = None) -> list[Command]:
    """The ``repro-*`` and ``echo … > FILE`` lines of README's bash blocks."""
    if text is None:
        text = (ROOT / "README.md").read_text()
    commands: list[Command] = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, re.S | re.M):
        last: Command | None = None
        for line in block.replace("\\\n", " ").splitlines():
            code, comment = _split_comment(line)
            if not code:
                if last is not None and comment:
                    last.comment += " " + comment
                continue
            last = None
            for part in code.split("&&"):
                part = part.strip()
                if part.startswith("repro-") or part.startswith("echo "):
                    last = Command(part)
                    commands.append(last)
            if last is not None:
                last.comment = comment
    return commands


def _split_comment(line: str) -> tuple[str, str]:
    """One shell line's code and its ``#`` comment."""
    found = re.search(r"(?:^|\s)#", line)
    if found is None:
        return line.strip(), ""
    return line[:found.start()].strip(), line[found.end():].strip()


def run(command: Command, cwd: Path) -> tuple[int, str]:
    """Run one line in ``cwd``: its exit code and what it printed."""
    argv = command.argv
    if argv[0] == "echo":
        assert argv[2:3] == [">"] and len(argv) == 4, command.line
        (cwd / argv[3]).write_text(argv[1] + "\n")
        return 0, ""
    module, function = scripts()[argv[0]].split(":")
    if command.exit == _SIGKILL_EXIT:
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {function}; "
             f"sys.exit({function}(sys.argv[1:]))", *argv[1:]],
            cwd=cwd, env={"PYTHONPATH": str(SRC)}, capture_output=True,
            text=True,
        )
        code = done.returncode
        return (128 - code if code < 0 else code), done.stdout + done.stderr
    printed = io.StringIO()
    main = getattr(importlib.import_module(module), function)
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            code = main(argv[1:])
        except SystemExit as exit:
            code = exit.code
    return code, printed.getvalue()


def test_every_readme_command_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command in readme_commands():
        if command.skipped:
            continue
        code, printed = run(command, tmp_path)
        assert code == command.exit, (
            f"{command.line}\nexit {code}, README says {command.exit}:\n"
            f"{printed[-2000:]}"
        )


def test_only_the_readers_own_files_are_skipped():
    commands = readme_commands()
    skipped = [c.argv[0] for c in commands if c.skipped]
    assert skipped == ["repro-blast2cap3", "repro-blast2cap3"]
    written = {c.argv[3] for c in commands if c.argv[0] == "echo"}
    assert not written & set(MISSING_INPUTS)


def test_the_reader_sees_what_it_is_for():
    text = (
        "```bash\n"
        "repro-plan --submit-dir d -n 3 && repro-run --submit-dir d \\\n"
        "    --seed 2   # a comment\n"
        "#   ... -> exit 1\n"
        "ls d/\n"
        "echo '{\"osg\": {}}' > pools.json\n"
        "```\n"
        "```python\nrepro-status --submit-dir d\n```\n"
    )
    commands = readme_commands(text)
    assert [c.argv for c in commands] == [
        ["repro-plan", "--submit-dir", "d", "-n", "3"],
        ["repro-run", "--submit-dir", "d", "--seed", "2"],
        ["echo", '{"osg": {}}', ">", "pools.json"],
    ]
    assert [c.exit for c in commands] == [0, 1, 0]

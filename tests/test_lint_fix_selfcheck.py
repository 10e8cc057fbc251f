"""The event taxonomy, enforced by AST over this repository's emit sites.

The event bus is stringly-typed at its edges — a ``RunEvent`` built
with a mis-spelled kind, or an ``_emit`` helper handed a raw string,
publishes events no subscriber ever matches, and the bug is silent:
nothing crashes, a metric just quietly flatlines. This checker walks
``src/repro`` and verifies that every event-publishing call site names
a registered :class:`~repro.observe.events.EventKind` member:

* ``RunEvent(<kind>, ...)`` constructions (which is what every
  ``bus.emit(...)`` wraps), and
* calls to ``emit``/``_emit`` methods whose first argument is the kind
  (the simulators' and scheduler's internal emit helpers).

The kind expression must be ``EventKind.<member>`` with a real member,
a conditional whose branches both are, or a local name assigned from
one. Dynamically computed kinds (parameters, comprehensions) pass —
the checker is deliberately conservative: it flags only provable
typos, never style.

It also audits the taxonomy's own documentation: every registered
``EventKind`` member must appear in the table in
``repro.observe.events``' module docstring, so adding a kind (the
``trace.*`` / ``anomaly.*`` families included) without documenting
what it means and what its ``detail`` carries fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import pytest

from repro.observe.events import EventKind

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Method names whose first argument is an event kind.
EMIT_NAMES = frozenset({"_emit", "emit"})


def _kind_problem(node: ast.expr, resolved: dict[str, ast.expr]) -> str | None:
    """Why ``node`` is not a valid EventKind expression (None = fine).

    ``resolved`` maps local names to their most recent assigned value
    expression, for the ``terminal = EventKind.A if ... else B`` idiom.
    """
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "EventKind":
            if node.attr not in EventKind.__members__:
                return (
                    f"EventKind.{node.attr} is not a registered event "
                    "kind"
                )
            return None
        return None  # e.g. self.kind / record.kind: not statically known
    if isinstance(node, ast.IfExp):
        return _kind_problem(node.body, resolved) or _kind_problem(
            node.orelse, resolved
        )
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return (
                f"string literal {node.value!r} where an EventKind "
                "member is required"
            )
        return None
    if isinstance(node, ast.Name):
        assigned = resolved.get(node.id)
        if assigned is not None:
            return _kind_problem(assigned, resolved)
        return None  # parameter or non-trivial flow: assume fine
    return None


def _local_assignments(tree: ast.AST) -> dict[str, ast.expr]:
    """Simple ``name = <expr>`` bindings, last writer wins."""
    out: dict[str, ast.expr] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                out[target.id] = node.value
    return out


def _kind_argument(call: ast.Call) -> ast.expr | None:
    """The event-kind expression of an emit/RunEvent call, if present."""
    if call.args:
        first = call.args[0]
        return None if isinstance(first, ast.Starred) else first
    for kw in call.keywords:
        if kw.arg == "kind":
            return kw.value
    return None


def _emit_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "RunEvent":
            yield node
        elif isinstance(func, ast.Attribute) and func.attr in EMIT_NAMES:
            first = _kind_argument(node)
            # bus.emit(RunEvent(...)) is covered by the RunEvent match;
            # only direct-kind helpers are checked here.
            if first is not None and not (
                isinstance(first, ast.Call)
                and isinstance(first.func, ast.Name)
                and first.func.id == "RunEvent"
            ):
                yield node


def check_source(source: str, path: str = "<string>") -> list[str]:
    """``file:line: problem`` strings for unregistered event kinds."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno or 0}: cannot parse: {exc.msg}"]
    resolved = _local_assignments(tree)
    problems: list[str] = []
    for call in _emit_calls(tree):
        kind = _kind_argument(call)
        if kind is None:
            continue
        problem = _kind_problem(kind, resolved)
        if problem is not None:
            problems.append(f"{path}:{call.lineno}: {problem}")
    return problems


def check_paths(paths: list[str | Path]) -> list[str]:
    """Check every ``.py`` file under the given files/directories."""
    problems: list[str] = []
    for root in paths:
        root = Path(root)
        files = (
            sorted(root.rglob("*.py")) if root.is_dir() else [root]
        )
        for file in files:
            problems.extend(
                check_source(file.read_text(), str(file))
            )
    return problems


def check_kind_docs() -> list[str]:
    """Registered kinds missing from the taxonomy docstring table.

    :mod:`repro.observe.events` documents every kind in a table
    (``kind value`` → meaning + ``detail`` payload); a member whose
    value never appears there is an undocumented event family.
    """
    import repro.observe.events as events_module

    doc = events_module.__doc__ or ""
    return [
        f"repro/observe/events.py: EventKind.{member.name} "
        f"({member.value!r}) is not documented in the module "
        "docstring's taxonomy table"
        for member in EventKind
        if member.value not in doc
    ]


GOOD_SOURCE = '''
from repro.observe.events import EventKind, RunEvent

def go(bus, record, ok):
    bus.emit(RunEvent(kind=EventKind.SUBMIT, time=0.0, job_name="a"))
    terminal = EventKind.FINISH if ok else EventKind.EVICT
    bus.emit(RunEvent(kind=terminal, time=1.0, job_name="a",
                      record=record))
    self._emit(EventKind.MATCH, job)
'''

BAD_KIND = '''
from repro.observe.events import EventKind, RunEvent

def go(bus):
    bus.emit(RunEvent(kind=EventKind.SUBMITTED, time=0.0))
'''

BAD_STRING = '''
def go(self, job):
    self._emit("job.submit", job)
'''

BAD_ASSIGNED = '''
from repro.observe.events import EventKind, RunEvent

def go(bus, ok):
    kind = EventKind.FINISH if ok else EventKind.EVICTED
    bus.emit(RunEvent(kind=kind, time=0.0))
'''


class TestSelfcheck:
    def test_good_source_passes(self):
        assert check_source(GOOD_SOURCE) == []

    def test_misspelled_member_flagged(self):
        problems = check_source(BAD_KIND, "x.py")
        assert len(problems) == 1
        assert "SUBMITTED" in problems[0]
        assert problems[0].startswith("x.py:")

    def test_string_literal_kind_flagged(self):
        problems = check_source(BAD_STRING)
        assert len(problems) == 1
        assert "job.submit" in problems[0]

    def test_assigned_name_resolved(self):
        problems = check_source(BAD_ASSIGNED)
        assert len(problems) == 1
        assert "EVICTED" in problems[0]

    def test_dynamic_kinds_pass(self):
        source = (
            "def go(self, kind, job):\n"
            "    self._emit(kind, job)\n"
        )
        assert check_source(source) == []

    def test_syntax_error_reported_not_raised(self):
        problems = check_source("def broken(:", "b.py")
        assert problems and "cannot parse" in problems[0]

    def test_whole_tree_is_clean(self):
        # the real codebase must satisfy its own taxonomy check
        assert check_paths([SRC]) == []

    def test_every_kind_is_in_the_taxonomy_table(self):
        assert check_kind_docs() == []


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))

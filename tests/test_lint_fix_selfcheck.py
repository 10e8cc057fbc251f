"""The emit-site selfcheck (``python -m repro.lint.selfcheck``)."""

from __future__ import annotations

import pytest

from repro.lint.selfcheck import check_paths, check_source
from repro.lint.selfcheck import main as selfcheck_main


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
        assert check_paths(["src/repro"]) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        assert selfcheck_main([]) == 2
        good = tmp_path / "good.py"
        good.write_text(GOOD_SOURCE)
        assert selfcheck_main([str(good)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_KIND)
        assert selfcheck_main([str(bad)]) == 1
        assert "SUBMITTED" in capsys.readouterr().err


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))

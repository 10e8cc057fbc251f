"""The hot enums hash by identity (``object.__hash__``, a C slot)
instead of ``Enum.__hash__``'s Python-level ``hash(self._name_)``.

Sound only while a member is the one object of its value in the
process: every way a member can be copied or rebuilt must hand back
the singleton, or a dict keyed by the original would miss the copy.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.dagman.events import JobStatus
from repro.dagman.scheduler import NodeState
from repro.observe.events import TERMINAL_KINDS, EventKind

HOT_ENUMS = (EventKind, NodeState, JobStatus)


@pytest.mark.parametrize("enum", HOT_ENUMS, ids=lambda e: e.__name__)
class TestIdentityHash:
    def test_hash_is_the_c_slot(self, enum) -> None:
        assert enum.__hash__ is object.__hash__
        for member in enum:
            assert type(member).__hash__ is object.__hash__
            assert hash(member) == object.__hash__(member)

    def test_members_key_dicts_and_sets(self, enum) -> None:
        table = {member: member.name for member in enum}
        assert len(table) == len(frozenset(enum)) == len(list(enum))
        for member in enum:
            assert table[member] == member.name
            assert table[enum(member.value)] == member.name  # by value
            assert table[enum[member.name]] == member.name  # by name
            assert member in frozenset(enum)

    def test_copies_are_the_same_object(self, enum) -> None:
        for member in enum:
            assert copy.copy(member) is member
            assert copy.deepcopy(member) is member
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(member, protocol)) is member

    def test_a_pickled_table_still_finds_its_keys(self, enum) -> None:
        table = pickle.loads(pickle.dumps({m: m.value for m in enum}))
        assert copy.deepcopy(table) == table
        assert all(table[m] == m.value for m in enum)


def test_terminal_kinds_membership() -> None:
    assert EventKind.FINISH in TERMINAL_KINDS
    assert EventKind("job.evict") in TERMINAL_KINDS
    assert EventKind.SUBMIT not in TERMINAL_KINDS

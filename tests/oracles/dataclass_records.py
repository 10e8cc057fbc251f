"""The four per-job records as stock frozen dataclasses.

``RunEvent``, ``JobAttempt``, ``ResourceProfile`` and ``DagJob`` are
built through :func:`repro.dagman.events.one_step_init`, which replaces
the ``__init__`` ``@dataclass`` generates with one that sets each slot
once. The classes here are what they were before: the same name, the
same fields (taken from :func:`dataclasses.fields`, with their defaults,
``compare`` / ``repr`` flags and factories), the same ``__post_init__``,
and the generated ``__init__``. ``tests/test_slotted_records.py``
holds the real constructors to these call for call.
"""

from __future__ import annotations

from dataclasses import field, fields, make_dataclass

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, ResourceProfile
from repro.observe.events import RunEvent

__all__ = ["STOCK"]


def stock(cls: type) -> type:
    """``cls`` declared again with the stock ``__init__``."""
    return make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, field(
                default=f.default, default_factory=f.default_factory,
                init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
                metadata=f.metadata, kw_only=f.kw_only,
            ))
            for f in fields(cls)
        ],
        namespace={"__post_init__": cls.__post_init__},
        frozen=True,
        slots=True,
    )


#: real class -> its stock twin
STOCK = {cls: stock(cls) for cls in (RunEvent, JobAttempt, ResourceProfile, DagJob)}

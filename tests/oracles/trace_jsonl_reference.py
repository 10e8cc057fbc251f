"""The ``trace.jsonl`` writer as ``repro.wms.monitor`` had it: one
``json.dumps(attempt.to_json())`` per record.

:func:`repro.wms.monitor.write_trace` now prints each line from a
template; for any attempts the file must be, byte for byte,
:func:`reference_text`.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.dagman.events import JobAttempt

__all__ = ["reference_text"]


def reference_text(attempts: Iterable[JobAttempt]) -> str:
    return "".join(json.dumps(a.to_json()) + "\n" for a in attempts)

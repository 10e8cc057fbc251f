"""The journal's replay path as it was before its CRC was chained and
its attempts were built positionally.

``decode_record`` checked the CRC over a fresh copy of the checksummed
text ``{"seq":N,…}`` and parsed that copy through ``raw_decode``;
``JobAttempt.from_json`` built the record by keyword with its status
from ``JobStatus(value)``, and ``ResourceProfile.from_json`` by keyword
too. By construction the definition of what a replayed line decodes to
and what an attempt mapping builds (or which error it raises):
``tests/test_journal_bytes.py`` and ``tests/test_attempt_codec.py``
hold :func:`repro.resilience.journal.decode_record` and
:meth:`repro.dagman.events.JobAttempt.from_json` to these.

One deliberate difference: this decoder takes ``"seq":true`` for seq 1
(``isinstance(True, int)`` holds); the one in ``src/`` refuses it.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Mapping

from repro.dagman.events import JobAttempt, JobStatus, ResourceProfile

__all__ = ["attempt_from_json_keywords", "decode_record_copying"]

_parse_object = json.JSONDecoder().raw_decode


def decode_record_copying(line: bytes | str) -> dict | None:
    """Verify and parse one WAL line through a copy of its text."""
    try:
        if isinstance(line, str):
            line = line.encode()
        line = line.rstrip(b"\n")
        canonical = b"{" + line[18:]
        if not line.startswith(
            b'{"crc":"%08x","seq":' % zlib.crc32(canonical)
        ):
            return None
        text = canonical.decode()
        data, end = _parse_object(text)
    except ValueError:
        return None
    if end != len(text) or not isinstance(data["seq"], int):
        return None
    return data


def _profile_from_json(data: Mapping[str, Any]) -> ResourceProfile:
    return ResourceProfile(
        cpu_user_s=float(data.get("cpu_user_s", 0.0)),
        cpu_sys_s=float(data.get("cpu_sys_s", 0.0)),
        max_rss_kb=int(data.get("max_rss_kb", 0)),
        read_ops=int(data.get("read_ops", 0)),
        write_ops=int(data.get("write_ops", 0)),
        source=str(data.get("source", "measured")),
    )


def attempt_from_json_keywords(data: Mapping[str, Any]) -> JobAttempt:
    """The attempt record of ``data``, built by keyword."""
    profile = data.get("profile")
    return JobAttempt(
        job_name=data["job_name"],
        transformation=data["transformation"],
        site=data["site"],
        machine=data["machine"],
        attempt=data["attempt"],
        submit_time=data["submit_time"],
        setup_start=data["setup_start"],
        exec_start=data["exec_start"],
        exec_end=data["exec_end"],
        status=JobStatus(data["status"]),
        error=data.get("error"),
        profile=(
            _profile_from_json(profile) if isinstance(profile, dict) else None
        ),
    )

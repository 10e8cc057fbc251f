"""Human-readable durations.

The workflow statistics reports (:mod:`repro.wms.statistics`) and the
benchmark harnesses print wall times in the same style as
``pegasus-statistics`` (``11 hrs, 33 mins``), so every report renders
them one way.
"""

from __future__ import annotations

__all__ = ["format_duration"]


def format_duration(seconds: float, *, precision: int = 0) -> str:
    """Render ``seconds`` as a compact ``pegasus-statistics`` style string.

    >>> format_duration(41593)
    '11 hrs, 33 mins'
    >>> format_duration(59.4, precision=1)
    '59.4 secs'
    >>> format_duration(360000)
    '4 days, 4 hrs'
    """
    if seconds < 0:
        return "-" + format_duration(-seconds, precision=precision)
    if seconds < 60:
        return f"{seconds:.{precision}f} secs"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        if secs >= 1:
            return f"{int(minutes)} mins, {int(secs)} secs"
        return f"{int(minutes)} mins"
    hours, minutes = divmod(int(minutes), 60)
    if hours < 24:
        if minutes:
            return f"{hours} hrs, {minutes} mins"
        return f"{hours} hrs"
    days, hours = divmod(hours, 24)
    if hours:
        return f"{days} days, {hours} hrs"
    return f"{days} days"

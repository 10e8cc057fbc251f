"""The DAG-free critical chain as ``observe/analysis.py`` walked it
until PR 24.

Per hop it rebuilt the set of chain members for every candidate and, to
learn when each job was first submitted, scanned the whole trace once
per job — cubic on a serial chain (2 000 single-attempt jobs: 113.6 s).
:func:`repro.observe.analysis._chain_from_timeline` sorts the jobs by
first submit once and reads each hop off a prefix arg-max; it must
return this chain, ties on ``exec_end`` included (``max()`` keeps the
job seen first in the trace).

One thing is not as it was: a job's *final* attempt used to be its
highest-numbered one, which is wrong as soon as a rescue round restarts
the numbering. The rule is no longer the chain walk's to decide — both
sides take :meth:`~repro.dagman.events.WorkflowTrace.final_attempts`.
"""

from __future__ import annotations

from repro.dagman.events import JobAttempt, WorkflowTrace

__all__ = ["chain_from_timeline_reference"]

_EPS = 1e-9


def chain_from_timeline_reference(trace: WorkflowTrace) -> list[JobAttempt]:
    final = trace.final_attempts()
    if not final:
        return []
    first_submit = {
        name: min(a.submit_time for a in trace if a.job_name == name)
        for name in final
    }
    current = max(final.values(), key=lambda a: a.exec_end)
    chain = [current]
    while True:
        cutoff = first_submit[current.job_name]
        candidates = [
            a for name, a in final.items()
            if name not in {c.job_name for c in chain}
            and first_submit[name] < cutoff - _EPS
        ]
        if not candidates:
            break
        current = max(candidates, key=lambda a: a.exec_end)
        chain.append(current)
    chain.reverse()
    return chain

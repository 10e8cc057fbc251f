"""Real execution backends.

:mod:`repro.execution.local` runs DAG jobs' Python payloads on the local
machine (thread pool), emitting the same :class:`repro.dagman.events.JobAttempt`
records as the platform simulators — so statistics, the analyzer, and
DAGMan behave identically over real and simulated runs.
:mod:`repro.execution.kickstart` wraps each payload invocation to
capture timing and errors, like Pegasus' kickstart wrapper.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# Shares its name with the submodule, which the import system binds
# under that name without ever asking __getattr__: stays eager.
from repro.execution.kickstart import kickstart

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.kickstart import KickstartRecord
    from repro.execution.local import LocalEnvironment

_EXPORTS = {
    "KickstartRecord": ("repro.execution.kickstart", "KickstartRecord"),
    "LocalEnvironment": ("repro.execution.local", "LocalEnvironment"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["KickstartRecord", "kickstart", "LocalEnvironment"]

"""Real execution backends.

:mod:`repro.execution.local` runs DAG jobs' Python payloads on the local
machine (thread pool), emitting the same :class:`repro.dagman.events.JobAttempt`
records as the platform simulators — so statistics, the analyzer, and
DAGMan behave identically over real and simulated runs.
:mod:`repro.execution.kickstart` wraps each payload invocation to
capture timing and errors, like Pegasus' kickstart wrapper.
"""

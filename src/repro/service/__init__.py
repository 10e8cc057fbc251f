"""Multi-tenant Workflow-as-a-Service layer.

The paper runs one blast2cap3 workflow at a time; the ROADMAP
north-star is a service that runs thousands of them concurrently for
many users. This package is that front-end over the existing engine
stack: tenants submit DAGs to a
:class:`~repro.service.service.WorkflowService`, admission control
proves them feasible against the modeled pools (the PR 6 preflight),
and a weighted fair-share scheduler releases their jobs to one shared
:class:`~repro.dagman.scheduler.ExecutionEnvironment` under per-tenant
quotas, with per-tenant SLO distributions flowing through the event bus
into ``repro-report``.

Layering: ``service`` sits above ``dagman`` (one private
:class:`~repro.dagman.scheduler.DagmanScheduler` per workflow) and
above ``sim`` (one shared platform); it never reaches into either's
internals — jobs cross the boundary through the same
``ExecutionEnvironment`` protocol DAGMan already uses, via a
per-workflow gate that parks submissions in the service's fair-share
queue.
"""

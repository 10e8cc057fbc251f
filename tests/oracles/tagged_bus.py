"""Tenant tags as they were applied before the scheduler stamped them.

Each workflow's scheduler got a private bus whose only subscriber
copied every event (``dataclasses.replace``) with ``tenant`` /
``workflow`` merged into ``detail`` and emitted the copy on the service
bus: two constructions and two emits per scheduler event. By
construction the definition of what a tagged event looks like —
``tests/test_service_tags.py`` holds ``DagmanScheduler(tags=...)`` to
it field for field, ``detail`` key order included.
"""

from __future__ import annotations

import dataclasses

from repro.dagman.scheduler import DagmanScheduler
from repro.observe.bus import EventBus
from repro.observe.events import RunEvent

__all__ = ["tagged_bus", "ForwardingScheduler"]


def tagged_bus(service_bus: EventBus, tenant: str, workflow: str) -> EventBus:
    """A private bus whose whole stream is re-emitted onto
    ``service_bus`` with tenant/workflow merged into ``detail``."""
    private = EventBus()
    tags = {"tenant": tenant, "workflow": workflow}

    def forward(event: RunEvent) -> None:
        if not service_bus.active:
            return
        service_bus.emit(
            dataclasses.replace(event, detail={**event.detail, **tags})
        )

    private.subscribe(forward)
    return private


class ForwardingScheduler(DagmanScheduler):
    """What ``WorkflowService.submit`` used to build: an untagged
    scheduler on a private :func:`tagged_bus`. Patch it over
    ``repro.service.service.DagmanScheduler`` to get the old service."""

    def __init__(self, dag, environment, *, bus, tags, **kwargs) -> None:
        super().__init__(
            dag,
            environment,
            bus=tagged_bus(bus, tags["tenant"], tags["workflow"]),
            **kwargs,
        )


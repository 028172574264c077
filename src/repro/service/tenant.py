"""Tenant model for the multi-tenant campaign service.

A *tenant* is one user of the shared substrate: a fair-share weight, a
priority class, and resource quotas.  The paper's campaign owned the
whole machine; the service shape (ROADMAP: "millions of users") instead
multiplexes many tenants' campaigns over one pilot, so who-gets-what
must be explicit, deterministic, and enforced — never an accident of
submission order.

Quota semantics (see DESIGN.md "Multi-tenant campaign service"):

``max_concurrent_tasks``
    Ceiling on a tenant's simultaneously *placed* tasks.  Counted
    against work the service starts; retries of an already-started task
    re-use its claim (in-flight work keeps its slot entitlement while
    it waits out backoff), so a flaky task cannot deadlock its tenant.

``node_seconds_budget``
    Lifetime node-seconds across all the tenant's task attempts,
    charged as each attempt finishes
    (:meth:`~repro.rct.task.TaskRecord.node_seconds`).  A
    tenant crossing the budget stops receiving placements; queued work
    is dropped and the submission lands in ``quota_exhausted``.  Work
    already running is allowed to finish (and is charged).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.config import FrozenConfig, validate_positive

__all__ = ["Quota", "Tenant", "SUBMISSION_STATES"]

#: lifecycle states of one submission
SUBMISSION_STATES = (
    "queued",  # accepted, no unit driven yet
    "running",  # units in flight
    "done",  # all units completed, result available
    "cancelled",  # cancel() took effect; checkpoints remain resumable
    "failed",  # the submission's own science raised
    "quota_exhausted",  # node-seconds budget crossed mid-run
)


@dataclass(frozen=True)
class Quota(FrozenConfig):
    """Per-tenant resource limits (``None`` = unlimited)."""

    max_concurrent_tasks: int | None = None
    node_seconds_budget: float | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent_tasks is not None:
            validate_positive("max_concurrent_tasks", self.max_concurrent_tasks)
        if self.node_seconds_budget is not None:
            validate_positive("node_seconds_budget", self.node_seconds_budget)


@dataclass(frozen=True)
class Tenant(FrozenConfig):
    """One user of the shared substrate.

    Attributes
    ----------
    name:
        Unique label; namespaces task uids, telemetry spans, and
        checkpoint directories.
    weight:
        Fair-share weight.  Long-run node-second shares under
        contention converge to the weight ratio (stride scheduling;
        the service benchmark holds a 4:2:1 split to ≤5%).
    priority:
        Priority class; a higher class jumps *queued-not-running* work
        of lower classes, bounded by the scheduler's preemption bound
        (aging) so nothing starves.  Running tasks are never revoked.
    quota:
        Resource limits, see :class:`Quota`.
    """

    name: str = ""
    weight: int = 1
    priority: int = 0
    quota: Quota = Quota()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if "/" in self.name:
            raise ValueError("tenant name must not contain '/'")
        validate_positive("weight", self.weight)

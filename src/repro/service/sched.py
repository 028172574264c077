"""Deterministic fair-share scheduling for the campaign service.

Stride scheduling (Waldspurger & Weihl, OSDI '94) over tenant weights:
every tenant carries a *pass* value; each placement grant advances the
granted tenant's pass by ``cost · STRIDE1 / weight``, and the next grant
goes to the eligible tenant with the minimum pass.  Long-run resource
shares under contention converge to the weight ratio, and — unlike
lottery scheduling — the policy is completely deterministic, which is
what the service's replay contract needs: same submissions, same event
order, same grants, bit-identical traces.

Priorities ride on top: a higher priority class jumps queued work of
lower classes.  Preemption is *bounded* by aging — every time a tenant
with backlog is bypassed by a higher-priority grant it accumulates one
starvation credit, and at ``preempt_bound`` credits it is served ahead
of the higher class (then the credits reset).  Running tasks are never
revoked; only queued-not-running work is jumped.

Tie-breaks are total and deterministic: starvation boost, then priority
(descending), then pass (ascending), then join sequence (ascending).
:meth:`StrideScheduler.pick` is pure — state moves only in
:meth:`StrideScheduler.commit`, which the manager calls once a grant
actually placed, so a failed placement attempt never skews shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StrideScheduler", "ShareEntry"]


@dataclass
class ShareEntry:
    """Book-keeping for one tenant in the share ledger."""

    name: str
    weight: int
    priority: int
    join_seq: int
    pass_value: float = 0.0
    served_cost: float = 0.0  # total cost committed (inspection/benchmarks)
    starve_credits: int = 0
    n_grants: int = 0


class StrideScheduler:
    """Weighted fair-share with priorities and bounded preemption."""

    #: stride numerator; large so integer weights give well-separated strides
    STRIDE1 = float(1 << 20)

    def __init__(self, preempt_bound: int = 8) -> None:
        if preempt_bound < 1:
            raise ValueError("preempt_bound must be >= 1")
        self.preempt_bound = preempt_bound
        self._entries: dict[str, ShareEntry] = {}
        #: lowest priority class among the entries: a grant to it ages no one
        self._lowest = 0
        #: served cost of tenants already retired from the ledger — kept
        #: so end-of-run share reports cover the whole campaign
        self._retired_cost: dict[str, float] = {}
        self._join_seq = 0

    # ------------------------------------------------------------ membership
    def add(self, name: str, weight: int = 1, priority: int = 0) -> None:
        """Register a tenant; joins at the current minimum pass.

        Joining at min-pass (not zero) keeps a late arrival from
        monopolizing the substrate until it "catches up" with tenants
        that have been running for a long virtual time.
        """
        if name in self._entries:
            raise ValueError(f"tenant {name!r} already registered")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        floor = min(
            (e.pass_value for e in self._entries.values()), default=0.0
        )
        self._entries[name] = ShareEntry(
            name=name,
            weight=weight,
            priority=priority,
            join_seq=self._join_seq,
            pass_value=floor,
        )
        self._join_seq += 1
        self._lowest = min(e.priority for e in self._entries.values())

    def remove(self, name: str) -> None:
        """Drop a tenant from the ledger (done/cancelled submissions).

        Its served cost is retained for end-of-run :meth:`shares`; a
        re-:meth:`add` of the same name resumes accumulating onto it.
        """
        entry = self._entries.pop(name, None)
        self._lowest = min((e.priority for e in self._entries.values()), default=0)
        if entry is not None:
            self._retired_cost[name] = (
                self._retired_cost.get(name, 0.0) + entry.served_cost
            )

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def entry(self, name: str) -> ShareEntry:
        """The ledger entry for ``name`` (inspection/benchmarks)."""
        return self._entries[name]

    # -------------------------------------------------------------- decision
    def _key(self, entry: ShareEntry) -> tuple:
        starved = entry.starve_credits >= self.preempt_bound
        return (not starved, -entry.priority, entry.pass_value, entry.join_seq)

    def pick(self, eligible: list[str]) -> str | None:
        """Choose the next tenant to serve among ``eligible`` (pure).

        Order: starved tenants first (aged past ``preempt_bound``), then
        highest priority, then minimum stride pass, then earliest join.
        Returns ``None`` on an empty candidate list.  No state changes —
        call :meth:`commit` once the grant actually placed.
        """
        if not eligible:
            return None
        return min(map(self._entries.__getitem__, eligible), key=self._key).name

    def commit(self, name: str, eligible: list[str], cost: float) -> None:
        """Charge a successful grant of ``cost`` (node-seconds) to ``name``.

        Advances the tenant's pass by ``cost · STRIDE1 / weight`` and
        ages every bypassed lower-priority tenant by one starvation
        credit, so a stream of high-priority grants can jump the queue
        at most ``preempt_bound`` consecutive times per victim.
        """
        entries = self._entries
        entry = entries[name]
        cost = max(cost, 0.0)
        entry.pass_value += cost * self.STRIDE1 / entry.weight
        entry.served_cost += cost
        entry.n_grants += 1
        entry.starve_credits = 0
        priority = entry.priority
        if priority > self._lowest:
            for other in eligible:
                victim = entries[other]
                if victim.priority < priority:  # never the winner itself
                    victim.starve_credits += 1

    # ------------------------------------------------------------ inspection
    def shares(self) -> dict[str, float]:
        """Fraction of total committed cost served to each tenant.

        Covers live *and* retired tenants, so the report is whole-run.
        """
        cost = dict(self._retired_cost)
        for name, e in self._entries.items():
            cost[name] = cost.get(name, 0.0) + e.served_cost
        total = sum(cost.values())
        if total <= 0:
            return {name: 0.0 for name in cost}
        return {name: c / total for name, c in cost.items()}

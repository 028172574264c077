"""Simulated cluster: nodes and slots.

The substitution for Summit (4608 nodes × 6 V100 × 42 usable cores):
resource *shapes* and allocation semantics are modelled exactly; time is
virtual and driven by the executor's event loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.util.config import FrozenConfig, validate_positive

__all__ = ["NodeSpec", "SUMMIT_NODE", "Allocation", "Cluster"]


@dataclass(frozen=True)
class NodeSpec(FrozenConfig):
    """Per-node resource shape."""

    cpus: int = 42
    gpus: int = 6

    def __post_init__(self) -> None:
        validate_positive("cpus", self.cpus)
        if self.gpus < 0:
            raise ValueError("gpus must be non-negative")


#: Summit's node shape (§6: 6 NVIDIA V100 per node)
SUMMIT_NODE = NodeSpec(cpus=42, gpus=6)


@dataclass
class Allocation:
    """A contiguous block of nodes granted to a pilot."""

    node_ids: list[int]
    spec: NodeSpec
    granted_at: float

    @property
    def n_nodes(self) -> int:
        """Number of nodes in this allocation."""
        return len(self.node_ids)

    @property
    def total_gpus(self) -> int:
        """Total GPU slots in this allocation."""
        return self.n_nodes * self.spec.gpus


class Cluster:
    """A fixed pool of identical nodes.

    Free nodes live in an indexed min-heap rather than a boolean mask,
    so granting an allocation pops the ``n`` lowest free ids in
    O(n log nodes) instead of scanning all nodes — the same
    lowest-id-first grants as the original ``np.where`` scan, cheap
    enough to call inside a simulated scheduling loop.
    """

    def __init__(self, n_nodes: int, spec: NodeSpec = SUMMIT_NODE) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.n_nodes = n_nodes
        self.spec = spec
        self._free_heap = list(range(n_nodes))  # already heap-ordered
        self._is_free = bytearray(b"\x01" * n_nodes)

    def allocate(self, n_nodes: int, now: float) -> Allocation:
        """Grab the ``n_nodes`` lowest free nodes; raises if unavailable."""
        if n_nodes < 1:
            raise ValueError("allocation must request at least one node")
        if len(self._free_heap) < n_nodes:
            raise RuntimeError(
                f"cluster has {len(self._free_heap)} free nodes, "
                f"requested {n_nodes}"
            )
        chosen = [heapq.heappop(self._free_heap) for _ in range(n_nodes)]
        for node in chosen:
            self._is_free[node] = 0
        return Allocation(node_ids=chosen, spec=self.spec, granted_at=now)

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's nodes to the free pool."""
        for node in allocation.node_ids:
            if not self._is_free[node]:
                heapq.heappush(self._free_heap, node)
                self._is_free[node] = 1

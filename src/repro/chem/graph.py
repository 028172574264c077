"""Graph algorithms on small molecular graphs.

Every function takes ``adj``, the neighbour lists of nodes ``0 … n-1``
(:meth:`Molecule.neighbor_lists`, or :func:`adjacency` over an edge
list), and visits neighbours in list order.  Lists are in bond-insertion
order, the order networkx keeps a graph's adjacency in, so the results —
including the order and rotation of each ring — are what networkx
returns for the same graph; ``tests/chem/oracle.py`` holds those calls.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["adjacency", "components", "cycle_basis", "hop_counts", "reachable"]


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Neighbour lists of nodes ``0 … n-1``, in edge order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def cycle_basis(adj: list[list[int]]) -> list[list[int]]:
    """Fundamental cycle basis: one ring per non-tree edge of a DFS forest.

    Paton's stack walk, as ``networkx.cycle_basis`` runs it: each tree is
    rooted at the highest-numbered node not yet visited, the stack pops
    last-in, and a ring starts at the node whose edge closes it.  It is
    *a* basis, not a smallest one.  Self-loops are not handled (molecules
    have none).
    """
    cycles: list[list[int]] = []
    pred: dict[int, int] = {}
    used: dict[int, set[int]] = {}
    for root in reversed(range(len(adj))):
        if root in used:
            continue
        stack = [root]
        pred[root] = root
        used[root] = set()
        while stack:
            z = stack.pop()
            zused = used[z]
            for nbr in adj[z]:
                if nbr not in used:
                    pred[nbr] = z
                    stack.append(nbr)
                    used[nbr] = {z}
                elif nbr not in zused:
                    pn = used[nbr]
                    cycle = [nbr, z]
                    p = pred[z]
                    while p not in pn:
                        cycle.append(p)
                        p = pred[p]
                    cycle.append(p)
                    cycles.append(cycle)
                    pn.add(z)
    return cycles


def reachable(
    adj: list[list[int]], start: int, cut: tuple[int, int] | None = None
) -> set[int]:
    """Nodes connected to ``start``, walking every edge except ``cut``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen and cut not in ((v, w), (w, v)):
                seen.add(w)
                stack.append(w)
    return seen


def components(adj: list[list[int]]) -> list[set[int]]:
    """Connected components, ordered by their lowest node."""
    comps: list[set[int]] = []
    seen: set[int] = set()
    for v in range(len(adj)):
        if v not in seen:
            comp = reachable(adj, v)
            seen |= comp
            comps.append(comp)
    return comps


def hop_counts(adj: list[list[int]], cutoff: int | None = None) -> np.ndarray:
    """``(n, n)`` shortest-path edge counts; -1 if unreachable or past ``cutoff``.

    Level-synchronous BFS from every node at once: one boolean matrix
    product per level.
    """
    n = len(adj)
    step = np.zeros((n, n), dtype=bool)
    for v, nbrs in enumerate(adj):
        step[v, nbrs] = True
    hops = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(hops, 0)
    seen = np.eye(n, dtype=bool)
    frontier = seen
    level = 0
    while frontier.any() and (cutoff is None or level < cutoff):
        level += 1
        frontier = (frontier @ step) & ~seen
        hops[frontier] = level
        seen |= frontier
    return hops

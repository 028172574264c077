"""Unit constants and conversions used across the pipeline.

Internal conventions:

* energies are kcal/mol (the unit the paper reports binding affinities in),
* distances are angstroms,
* MD time is picoseconds; protocol durations are quoted in nanoseconds,
* cluster accounting uses node-hours (Table 2's unit).
"""

from __future__ import annotations

__all__ = [
    "BOLTZMANN_KCAL",
    "node_hours",
]

#: Boltzmann constant in kcal/(mol K)
BOLTZMANN_KCAL = 0.0019872041


def node_hours(nodes: float, seconds: float) -> float:
    """Node-hours consumed by ``nodes`` nodes busy for ``seconds`` seconds."""
    if nodes < 0 or seconds < 0:
        raise ValueError("nodes and seconds must be non-negative")
    return nodes * seconds / 3600.0

"""Unit constants and conversions used across the pipeline.

Internal conventions:

* energies are kcal/mol (the unit the paper reports binding affinities in),
* distances are angstroms,
* MD time is picoseconds; protocol durations are quoted in nanoseconds,
* cluster accounting uses node-hours (Table 2's unit).
"""

from __future__ import annotations

__all__ = [
    "KCAL_PER_MOL",
    "NS_PER_PS",
    "PS_PER_FS",
    "BOLTZMANN_KCAL",
    "node_hours",
]

#: symbolic tag — energies in this library are already kcal/mol
KCAL_PER_MOL = 1.0

#: nanoseconds per picosecond
NS_PER_PS = 1e-3

#: picoseconds per femtosecond
PS_PER_FS = 1e-3

#: Boltzmann constant in kcal/(mol K)
BOLTZMANN_KCAL = 0.0019872041


def node_hours(nodes: float, seconds: float) -> float:
    """Node-hours consumed by ``nodes`` nodes busy for ``seconds`` seconds."""
    if nodes < 0 or seconds < 0:
        raise ValueError("nodes and seconds must be non-negative")
    return nodes * seconds / 3600.0

"""Unit constants and conventions used across the pipeline.

Internal conventions:

* energies are kcal/mol (the unit the paper reports binding affinities in),
* distances are angstroms,
* MD time is picoseconds; protocol durations are quoted in nanoseconds,
* cluster accounting uses node-hours (Table 2's unit).
"""

from __future__ import annotations

__all__ = ["BOLTZMANN_KCAL"]

#: Boltzmann constant in kcal/(mol K)
BOLTZMANN_KCAL = 0.0019872041

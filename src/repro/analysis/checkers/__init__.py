"""Checker registry: every rule, one list.

The engine runs the selected checkers over each file in one walk;
``--rules`` on the CLI selects any subset by rule name.
"""

from __future__ import annotations

from repro.analysis.checkers.atomic_write import AtomicWriteChecker
from repro.analysis.checkers.base import Checker
from repro.analysis.checkers.clock import ClockPurityChecker
from repro.analysis.checkers.lockset import LocksetChecker
from repro.analysis.checkers.vectorization import VectorizationChecker

__all__ = [
    "AtomicWriteChecker",
    "Checker",
    "ClockPurityChecker",
    "LocksetChecker",
    "VectorizationChecker",
    "CHECKER_CLASSES",
    "all_checkers",
    "checkers_for",
]

#: the full registry, in ``--list-rules`` order
CHECKER_CLASSES: tuple[type[Checker], ...] = (
    ClockPurityChecker,
    VectorizationChecker,
    LocksetChecker,
    AtomicWriteChecker,
)


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered checker."""
    return [cls() for cls in CHECKER_CLASSES]


def checkers_for(rules: list[str]) -> list[Checker]:
    """Fresh instances for the named rules (unknown names raise)."""
    by_rule = {cls.rule: cls for cls in CHECKER_CLASSES}
    unknown = [r for r in rules if r not in by_rule]
    if unknown:
        raise ValueError(
            f"unknown rules {unknown}; available: {sorted(by_rule)}"
        )
    return [by_rule[r]() for r in rules]

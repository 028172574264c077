"""The benchmark's own span recorder.

Deliberately not ``repro.telemetry``: the instrument must not move when
the program's tracing is refactored.  Spans live in memory and are
written out once, after measuring, as JSONL and as Chrome-trace JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Recorder"]


class Recorder:
    """Nested spans on the wall clock: name, layer, start, end, parent."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, layer: str, start: float, end: float) -> dict:
        """Record a span whose bounds were measured by the caller."""
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "workload": self.workload,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str):
        """Time the body as a child of the innermost open span."""
        span = self.add(name, layer, time.perf_counter(), float("nan"))
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        """Duration minus the part covered by direct children."""
        children = sum(
            self.duration(s) for s in self.spans if s["parent"] == span["id"]
        )
        return self.duration(span) - children

    def total(self, layer: str, name: str | None = None) -> float:
        """Summed duration of a layer's spans (optionally one name)."""
        return sum(
            self.duration(s)
            for s in self.spans
            if s["layer"] == layer and (name is None or s["name"] == name)
        )

    def write(self, directory: Path, stem: str) -> None:
        """Dump ``<stem>.spans.jsonl`` and ``<stem>.trace.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (s["start"] - origin) * 1e6,
                "dur": self.duration(s) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"]},
            }
            for s in self.spans
        ]
        with open(directory / f"{stem}.trace.json", "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""Resource-utilization tracking — the data behind Fig 7.

Every task start/end event updates per-stage busy-slot counters; the
tracker reconstructs the utilization time series ("A time-series of node
utilization … the integrated execution of three GPU-intensive
workflows") and quantifies the scheduling overhead (the light-coloured
vertical gaps the paper shows are invariant to scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["UtilizationTracker", "UtilizationSeries"]


@dataclass
class UtilizationSeries:
    """Step-function utilization over time, per stage and total."""

    times: np.ndarray  # (E,) event times
    busy_gpus: np.ndarray  # (E,) total busy GPU slots after each event
    per_stage: dict[str, np.ndarray]  # stage → (E,) busy gpu slots
    total_gpus: int

    def average_utilization(self) -> float:
        """Time-weighted mean busy fraction over the series span."""
        if len(self.times) < 2 or self.total_gpus == 0:
            return 0.0
        dt = np.diff(self.times)
        if dt.sum() == 0:
            return 0.0
        return float((self.busy_gpus[:-1] * dt).sum() / (dt.sum() * self.total_gpus))

    def ascii_plot(self, width: int = 70, height: int = 12) -> str:
        """Terminal rendering of total utilization vs time."""
        if len(self.times) < 2:
            return "(no utilization data)"
        t0, t1 = self.times[0], self.times[-1]
        grid = np.linspace(t0, t1, width)
        levels = np.interp(grid, self.times, self.busy_gpus)
        frac = levels / max(self.total_gpus, 1)
        lines = []
        for row in range(height, 0, -1):
            threshold = row / height
            lines.append(
                f"{threshold:4.0%} |"
                + "".join("#" if f >= threshold else " " for f in frac)
            )
        lines.append("     +" + "-" * width)
        lines.append(f"      t={t0:.0f}s{' ' * (width - 18)}t={t1:.0f}s")
        return "\n".join(lines)


@dataclass
class UtilizationTracker:
    """Start/end events of a pilot run, rebuilt from its trace."""

    total_gpus: int
    total_cpus: int
    _events: list[tuple[float, int, int, str]] = field(default_factory=list)
    # each event: (time, gpu_delta, cpu_delta, stage)
    _backoffs: list[tuple[float, float, str]] = field(default_factory=list)
    # each backoff: (time, seconds, stage)

    @classmethod
    def from_trace(
        cls, tracer, total_gpus: int, total_cpus: int, tenant: str | None = None
    ) -> "UtilizationTracker":
        """Rebuild the tracker from a telemetry trace (Fig 7 as a view).

        ``pilot.task`` spans contribute a start (+slots) and end
        (-slots) event; still-open spans contribute only their start.
        ``pilot.backoff`` spans carry the exact policy-drawn ``seconds``
        attribute, so backoff totals reconcile with the retry policy
        without float round-off.  Events are replayed in tracer sequence
        order — program order — reproducing exactly the event list the
        pilot used to record inline.

        With ``tenant`` set, only spans carrying that tenant attribute
        contribute — the per-tenant utilization view of a shared pilot
        (``total_gpus``/``total_cpus`` stay the whole pilot's capacity,
        so the average reads as *share of the machine*).
        """
        tracker = cls(total_gpus=total_gpus, total_cpus=total_cpus)
        events: list[tuple[int, float, int, int, str]] = []
        backoffs: list[tuple[int, float, float, str]] = []
        spans = list(tracer.finished) + tracer.active_spans()
        for span in spans:
            if tenant is not None and span.attrs.get("tenant") != tenant:
                continue
            if span.category == "pilot.task":
                gpus = int(span.attrs.get("gpus", 0))
                cpus = int(span.attrs.get("cpus", 0))
                stage = span.attrs.get("stage", "")
                events.append((span.seq_start, span.start, gpus, cpus, stage))
                if span.end is not None:
                    events.append((span.seq_end, span.end, -gpus, -cpus, stage))
            elif span.category == "pilot.backoff":
                backoffs.append(
                    (
                        span.seq_start,
                        span.start,
                        float(span.attrs.get("seconds", span.end - span.start)),
                        span.attrs.get("stage", ""),
                    )
                )
        events.sort(key=lambda e: e[0])
        backoffs.sort(key=lambda b: b[0])
        tracker._events = [(t, dg, dc, s) for _, t, dg, dc, s in events]
        tracker._backoffs = [(t, sec, s) for _, t, sec, s in backoffs]
        return tracker

    def backoff_by_stage(self) -> dict[str, float]:
        """Backoff seconds aggregated per stage label."""
        out: dict[str, float] = {}
        for _, seconds, stage in self._backoffs:
            key = stage or "(unlabelled)"
            out[key] = out.get(key, 0.0) + seconds
        return out

    def series(self) -> UtilizationSeries:
        """Materialize the utilization time series."""
        if not self._events:
            return UtilizationSeries(
                times=np.zeros(0),
                busy_gpus=np.zeros(0),
                per_stage={},
                total_gpus=self.total_gpus,
            )
        events = sorted(self._events, key=lambda e: e[0])
        stages = sorted({e[3] for e in events})
        times = []
        totals = []
        per_stage = {s: [] for s in stages}
        busy = 0
        stage_busy = {s: 0 for s in stages}
        for t, dg, _dc, stage in events:
            busy += dg
            stage_busy[stage] += dg
            times.append(t)
            totals.append(busy)
            for s in stages:
                per_stage[s].append(stage_busy[s])
        return UtilizationSeries(
            times=np.array(times),
            busy_gpus=np.array(totals),
            per_stage={s: np.array(v) for s, v in per_stage.items()},
            total_gpus=self.total_gpus,
        )

    def overhead_fraction(self, launch_overhead: float, n_tasks: int) -> float:
        """Fraction of the makespan spent in per-task launch overhead.

        With overhead charged per task and tasks running concurrently,
        this stays flat as the node count grows — the Fig 7 claim the
        scaling bench checks.
        """
        s = self.series()
        if len(s.times) < 2:
            return 0.0
        span = s.times[-1] - s.times[0]
        if span <= 0:
            return 0.0
        # overheads overlap across concurrent tasks; estimate the serial
        # exposure as overhead per scheduling "wave"
        concurrency = max(1.0, s.busy_gpus.max() / max(1, self.total_gpus) * n_tasks)
        waves = max(1.0, n_tasks / concurrency)
        return float(min(1.0, waves * launch_overhead / span))

"""Fault model, retry policy and failure accounting for the workflow stack.

At leadership scale task failures are routine: the paper's EnTK/RP layers
"isolate the execution of each task" precisely so a crashed docking run or
a hung MD replica cannot sink a campaign.  This module makes failure a
first-class, *testable* part of the execution model:

* :class:`FaultModel` — seeded, per-(task, attempt) fault injection for the
  simulated backend: crash probability, straggler slowdowns, and hangs.
  Deterministic under a root seed, so thousand-node campaigns can be
  simulated under realistic failure rates and replayed bit-identically.
* :class:`FaultDraws` — a simulator run's memo that draws first attempts
  in bulk, bit-identical to :meth:`FaultModel.draw`.
* :class:`RetryPolicy` — max retries, exponential backoff with jitter
  (charged on whichever clock the executor runs), and a per-task timeout
  that cancels/abandons hung tasks.
* :class:`FailureSummary` — the reconciliation ledger: every observed
  failure is either retried or dropped, never silently lost.  Attached to
  pilot, RAPTOR and campaign results.
* :class:`TaskFailedError` — raised by ``fail_fast`` propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.util.config import FrozenConfig, validate_positive, validate_range
from repro.util.rng import first_draws, rng_stream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (task → fault)
    from repro.rct.task import TaskRecord

__all__ = [
    "FaultDraws",
    "FaultModel",
    "FaultOutcome",
    "FailureSummary",
    "RetryPolicy",
    "TaskFailedError",
]

#: propagation policies understood by the pilot and campaign layers
FAILURE_POLICIES = ("fail_fast", "drop_and_continue")

#: first-attempt fault draws are computed in aligned blocks of this many uids
_BLOCK_BITS = 10
_BLOCK = 1 << _BLOCK_BITS


class TaskFailedError(RuntimeError):
    """A task exhausted its retries under ``fail_fast`` propagation."""

    def __init__(self, message: str, record: "TaskRecord | None" = None) -> None:
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class FaultOutcome:
    """One fault draw: what happens to a single execution attempt.

    ``busy`` is the time the attempt occupies its slots: the full task
    duration for clean/straggler runs, a partial duration for crashes,
    ``inf`` for hangs (bounded later by the retry policy's timeout).
    """

    kind: str  # "ok" | "fail" | "straggle" | "hang"
    busy: float

    @property
    def failed(self) -> bool:
        """Whether the attempt ends in failure (before timeout handling)."""
        return self.kind in ("fail", "hang")


@dataclass(frozen=True)
class FaultModel(FrozenConfig):
    """Seeded per-attempt fault injection for :class:`~repro.rct.backends.SimExecutor`.

    Each execution attempt of each task draws independently from a stream
    keyed on ``(seed, task uid, attempt)`` — so a retried task re-rolls the
    dice, and adding tasks never perturbs other tasks' draws.

    Attributes
    ----------
    failure_rate:
        Probability an attempt crashes partway through (uniformly drawn
        fraction of its duration is still charged to the slots it held).
    straggler_rate / straggler_factor:
        Probability an attempt runs ``straggler_factor`` times slower but
        still succeeds — the long-tail stragglers of production runs.
    hang_rate:
        Probability an attempt never completes on its own.  Hung tasks
        require a :class:`RetryPolicy` timeout to be reaped.
    """

    failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_factor: float = 4.0
    hang_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        validate_range("failure_rate", self.failure_rate, 0.0, 1.0)
        validate_range("straggler_rate", self.straggler_rate, 0.0, 1.0)
        validate_range("hang_rate", self.hang_rate, 0.0, 1.0)
        total = self.failure_rate + self.straggler_rate + self.hang_rate
        if total > 1.0:
            raise ValueError(f"fault rates sum to {total}, must be <= 1")
        if not self.straggler_factor >= 1.0:
            raise ValueError("straggler_factor must be >= 1")

    def draw(self, uid: int, attempt: int, duration: float) -> FaultOutcome:
        """Decide the fate of one execution attempt (deterministic).

        The scalar reference: :class:`FaultDraws` serves first attempts in
        bulk and must agree with this bit for bit.
        """
        # exactness fact 5: only a crash reads the second uniform, but it is
        # the stream's second output either way, so drawing it always (here
        # and in bulk) changes no value
        u, v = rng_stream(self.seed, f"fault/{uid}/{attempt}").random(2).tolist()
        return self.outcome(u, v, duration)

    def outcome(self, u: float, v: float, duration: float) -> FaultOutcome:
        """The fate an attempt's first two uniforms ``u``, ``v`` decide.

        ``u`` picks crash / hang / straggle / ok by the cumulative rates;
        ``v`` is the fraction of ``duration`` a crash still charges.
        """
        if u < self.failure_rate:
            return FaultOutcome(kind="fail", busy=duration * v)
        u -= self.failure_rate
        if u < self.hang_rate:
            return FaultOutcome(kind="hang", busy=math.inf)
        u -= self.hang_rate
        if u < self.straggler_rate:
            return FaultOutcome(kind="straggle", busy=duration * self.straggler_factor)
        return FaultOutcome(kind="ok", busy=duration)


class FaultDraws:
    """One run's memo of a :class:`FaultModel`'s first-attempt draws.

    Nearly every attempt is a first attempt, and its draw depends on its
    uid alone, so first attempts are drawn in bulk: on first touch of an
    aligned block of 1,024 uids (``uid >> 10``), one
    :func:`~repro.util.rng.first_draws` call yields the first two uniforms
    of every ``fault/{uid}/0`` stream in it, and the block is freed once
    each of its uids was served.  Retries (attempt ≥ 1, sparse) go to the
    scalar :meth:`FaultModel.draw`.  Both decide through
    :meth:`FaultModel.outcome`, so outcomes do not depend on the order in
    which uids are drawn.
    """

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        #: block → [u per slot, v per slot, served flag per slot, unserved count]
        self._blocks: dict[int, list] = {}

    def draw(self, uid: int, attempt: int, duration: float) -> FaultOutcome:
        """Same as ``model.draw(uid, attempt, duration)``, bit for bit."""
        if attempt:
            return self.model.draw(uid, attempt, duration)
        block, slot = uid >> _BLOCK_BITS, uid & (_BLOCK - 1)
        entry = self._blocks.get(block)
        if entry is None:
            base = block << _BLOCK_BITS
            keys = [f"fault/{u}/0" for u in range(base, base + _BLOCK)]
            # float64 memoryviews: 8 bytes a value, and indexing gives floats
            us, vs = map(memoryview, first_draws(self.model.seed, keys, 2).T.copy())
            entry = self._blocks[block] = [us, vs, bytearray(_BLOCK), _BLOCK]
        us, vs, served, _ = entry
        if not served[slot]:
            served[slot] = 1
            entry[3] -= 1
            if not entry[3]:
                del self._blocks[block]
        return self.model.outcome(us[slot], vs[slot], duration)


@dataclass(frozen=True)
class RetryPolicy(FrozenConfig):
    """How failed attempts are re-driven.

    Attributes
    ----------
    max_retries:
        Re-submissions allowed per task after its first attempt
        (0 disables retrying).
    backoff_base / backoff_factor / backoff_jitter:
        Attempt ``k``'s backoff is ``base * factor**k``, inflated by a
        deterministic jitter drawn uniformly from ``[0, jitter]`` (a
        fraction) to de-synchronize retry storms.  Charged to the
        failure ledger (``time_lost_backoff``); the pilot idles its
        executor to the earliest retry only when nothing else is
        running (a virtual-clock jump on the simulated backend, a sleep
        on the real ones).
    timeout:
        Per-attempt ceiling in clock seconds.  An attempt still running at
        the deadline is cancelled (simulated backend) or abandoned (thread
        backend: the worker thread is left to finish, its result
        discarded) and counted as a failure.
    """

    max_retries: int = 3
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    timeout: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        validate_positive("backoff_base", self.backoff_base, strict=False)
        if not self.backoff_factor >= 1.0:
            raise ValueError("backoff_factor must be >= 1")
        validate_range("backoff_jitter", self.backoff_jitter, 0.0, 1.0)
        if self.timeout is not None:
            validate_positive("timeout", self.timeout)

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) may be re-driven."""
        return attempt < self.max_retries

    def backoff(self, uid: int, attempt: int) -> float:
        """Backoff seconds before re-submitting after failed ``attempt``."""
        base = self.backoff_base * self.backoff_factor**attempt
        if base == 0.0:
            return 0.0
        jitter = float(rng_stream(self.seed, f"backoff/{uid}/{attempt}").random())
        return base * (1.0 + self.backoff_jitter * jitter)


@dataclass
class FailureSummary:
    """The failure ledger: counts, retry histogram, and time lost.

    The reconciliation invariant — checked by :meth:`reconciles` and the
    fault-tolerance bench — is that every observed failure was either
    retried or dropped: ``n_failures == n_retries + n_dropped``.  Nothing
    is silently lost.
    """

    n_failures: int = 0  # failed attempts observed (injected, real, or timeout)
    n_retries: int = 0  # re-submissions issued
    n_dropped: int = 0  # tasks permanently failed (retries exhausted/disabled)
    n_timeouts: int = 0  # failures that were timeout cancellations
    retry_histogram: dict[int, int] = field(default_factory=dict)
    # ^ attempts-used → number of tasks that *succeeded* on that attempt
    dropped_by_stage: dict[str, int] = field(default_factory=dict)
    time_lost_failures: float = 0.0  # clock seconds burned by failed attempts
    time_lost_backoff: float = 0.0  # clock seconds spent waiting to retry

    # ------------------------------------------------------------ recording
    def record_failure(self, wall_time: float, timed_out: bool = False) -> None:
        """Log one failed attempt and the slot time it burned."""
        self.n_failures += 1
        if timed_out:
            self.n_timeouts += 1
        if math.isfinite(wall_time):
            self.time_lost_failures += wall_time

    def record_retry(self, backoff: float) -> None:
        """Log one re-submission and its backoff charge."""
        self.n_retries += 1
        self.time_lost_backoff += backoff

    def record_drop(self, stage: str = "") -> None:
        """Log one permanently failed task."""
        self.n_dropped += 1
        key = stage or "(unlabelled)"
        self.dropped_by_stage[key] = self.dropped_by_stage.get(key, 0) + 1

    def cancel_retry(self, stage: str = "") -> None:
        """Turn one retry still in backoff into a drop: it will never run.

        Its failure was counted as a retry when the backoff was drawn, so
        moving it keeps ``n_failures == n_retries + n_dropped``.
        """
        self.n_retries -= 1
        self.record_drop(stage)

    def record_success(self, attempt: int) -> None:
        """Log a task completing on its ``attempt``-th try (0-based)."""
        self.retry_histogram[attempt] = self.retry_histogram.get(attempt, 0) + 1

    # ----------------------------------------------------------- inspection
    @property
    def time_lost(self) -> float:
        """Total clock seconds lost to failures and backoff."""
        return self.time_lost_failures + self.time_lost_backoff

    def reconciles(self) -> bool:
        """Every failure accounted for: retried or dropped."""
        return self.n_failures == self.n_retries + self.n_dropped

    def summary(self) -> str:
        """One-line human rendering."""
        hist = ", ".join(
            f"attempt {a}: {n}" for a, n in sorted(self.retry_histogram.items())
        )
        return (
            f"failures={self.n_failures} (timeouts={self.n_timeouts}) "
            f"retries={self.n_retries} dropped={self.n_dropped} "
            f"time_lost={self.time_lost:.1f}s [{hist}]"
        )

"""Streamed, checkpointed ML1 → S1 screen over an on-disk sharded library.

This is §6.1.1 at campaign scale: the library lives on disk as gzip
NDJSON shards, ML1 streams them through the compiled surrogate one
shard at a time, the top predicted compounds go to S1
docking in :class:`~repro.docking.ligand.LigandBeads` packs via the fused
LGA, and every completed shard — scored or docked — is durably recorded
in a checkpoint manifest.  Kill the process anywhere; rerunning the same
command resumes from the last completed shard without rescoring or
redocking, and the final output is byte-for-byte identical to an
uninterrupted run.

Memory is bounded by construction: one shard of records, one padded
feature batch, one packed docking shard, and a fixed-size top-K
selection heap are the only per-run state that scales with anything —
and none of it scales with library size.

Determinism ties the streamed path to the materialized one:

* padded fixed-size ML1 batches make scores split-invariant (PR 4), so
  per-shard scoring equals whole-library scoring bit-for-bit;
* per-compound docking RNG streams make the shard cut invisible (PR 3);
* top-K selection uses the key ``(-score, arrival index)``, which is
  exactly a stable descending sort — the same compounds, in the same
  order, as ``InferenceEngine.top_fraction`` over the full score table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.docking.batch import dock_stream
from repro.docking.engine import DockingEngine, DockingResult
from repro.surrogate.infer import InferenceEngine, ScoredCompound
from repro.surrogate.train import TrainedSurrogate
from repro.telemetry import NULL_TRACER, Tracer
from repro.util.checkpoint import CheckpointManifest
from repro.util.log import get_logger

__all__ = ["StreamedScreenResult", "run_streamed_screen"]

_log = get_logger("core.streaming")


@dataclass
class StreamedScreenResult:
    """Everything a streamed screen produced, plus resume accounting."""

    selected: list[ScoredCompound]  # ML1 top-K, rank order
    docked: list[DockingResult]  # S1 results, selection order
    records_streamed: int = 0
    shards_total: int = 0
    shards_resumed: int = 0  # ML1 shards reloaded from the checkpoint
    dock_shards_total: int = 0
    dock_shards_resumed: int = 0
    stats: dict = field(default_factory=dict)


class _TopK:
    """Bounded top-K selection equal to a stable descending sort.

    Keeps the K best ``(score, -arrival)`` pairs in a min-heap; ties on
    score resolve to earliest arrival, exactly like
    ``sorted(key=score, reverse=True)`` over the full stream.  Memory is
    O(K) however many records flow past.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("keep_top must be positive")
        self.k = k
        self._heap: list[tuple[float, int, ScoredCompound]] = []
        self._n = 0

    def offer(self, item: ScoredCompound) -> None:
        key = (item.score, -self._n)
        self._n += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (*key, item))
        elif key > self._heap[0][:2]:
            heapq.heapreplace(self._heap, (*key, item))

    def ranked(self) -> list[ScoredCompound]:
        """Best first; equal scores in arrival order."""
        return [
            item
            for _score, _neg, item in sorted(
                self._heap, key=lambda t: t[:2], reverse=True
            )
        ]


def run_streamed_screen(
    engine: DockingEngine,
    surrogate: TrainedSurrogate,
    shard_paths: Sequence[Path | str],
    keep_top: int,
    checkpoint_dir: Path | str | None = None,
    dock_shard_size: int = 16,
    batch_size: int = 64,
    tracer: Tracer | None = None,
    on_shard: Callable[[str, str], None] | None = None,
) -> StreamedScreenResult:
    """Run the streamed ML1 → S1 screen; resumable when checkpointed.

    Parameters
    ----------
    engine:
        Docking engine for S1 (its seed fixes every pose).
    surrogate:
        Trained ML1 surrogate used for ranking.
    shard_paths:
        On-disk library shards, in library order.
    keep_top:
        How many top-predicted compounds S1 docks.
    checkpoint_dir:
        When set, holds ``ml1-manifest.jsonl`` / ``s1-manifest.jsonl``
        and per-shard result artifacts; reruns resume from the last
        completed shard.  ``None`` streams without checkpoints.
    on_shard:
        Optional ``callback(stage, shard_id)`` invoked after each shard
        completes (``stage`` is ``"ml1"`` or ``"s1"``) — progress
        reporting, and the hook the kill/resume tests use to die
        mid-run.

    Scores and poses are bit-identical to the materialized path
    (``score_shards`` over everything, stable sort, one big
    ``dock_entries``) and to any interrupted-and-resumed execution.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    result = StreamedScreenResult(selected=[], docked=[])

    ml1_ckpt = s1_ckpt = None
    ml1_art = s1_art = None
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        ml1_art = checkpoint_dir / "ml1"
        s1_art = checkpoint_dir / "s1"
        ml1_ckpt = CheckpointManifest(checkpoint_dir / "ml1-manifest.jsonl")
        s1_ckpt = CheckpointManifest(checkpoint_dir / "s1-manifest.jsonl")

    # ---------------------------------------------------------------- ML1
    inference = InferenceEngine(surrogate, batch_size=batch_size, tracer=tracer)
    top = _TopK(keep_top)
    with tracer.span("stage:ML1-stream", category="campaign.stage"):
        for shard_id, scored in inference.iter_score_shards(
            shard_paths, checkpoint=ml1_ckpt, artifact_dir=ml1_art
        ):
            for item in scored:
                top.offer(item)
            result.records_streamed += len(scored)
            result.shards_total += 1
            if on_shard is not None:
                on_shard("ml1", shard_id)
    result.shards_resumed = inference.shards_resumed
    result.selected = top.ranked()
    _log.info(
        "ML1 stream: %d records in %d shards (%d resumed), keeping top %d",
        result.records_streamed,
        result.shards_total,
        result.shards_resumed,
        len(result.selected),
    )

    # ----------------------------------------------------------------- S1
    entries = [(s.smiles, s.compound_id) for s in result.selected]
    shards = [
        entries[start : start + dock_shard_size]
        for start in range(0, len(entries), dock_shard_size)
    ]
    pre_done = set(s1_ckpt.completed()) if s1_ckpt is not None else set()
    with tracer.span("stage:S1-stream", category="campaign.stage"):
        for shard_id, docked in dock_stream(
            engine, shards, checkpoint=s1_ckpt, artifact_dir=s1_art, tracer=tracer
        ):
            result.docked.extend(docked)
            result.dock_shards_total += 1
            if shard_id in pre_done:
                result.dock_shards_resumed += 1
            if on_shard is not None:
                on_shard("s1", shard_id)
    result.stats = {
        "records_streamed": result.records_streamed,
        "shards_total": result.shards_total,
        "shards_resumed": result.shards_resumed,
        "dock_shards_total": result.dock_shards_total,
        "dock_shards_resumed": result.dock_shards_resumed,
    }
    _log.info(
        "S1 stream: %d compounds docked in %d shards",
        len(result.docked),
        result.dock_shards_total,
    )
    return result

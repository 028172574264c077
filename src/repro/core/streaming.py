"""Streamed, checkpointed ML1 → S1 screen over an on-disk sharded library.

This is §6.1.1 at campaign scale: the library lives on disk as gzip
NDJSON shards, ML1 scores them through the compiled surrogate one shard
at a time, and the top predicted compounds go to S1 docking in
:class:`~repro.docking.ligand.LigandBeads` packs via the fused LGA.
Every shard — scored or docked — is one task on the screen's resident
worker processes: §6.1.1's inference ranks and §6.1.2's RAPTOR workers,
many small function calls on long-lived workers.  The parent commits
shards in shard order: it writes the shard's artifact, records it in a
checkpoint manifest, then selects and accounts.  Kill the process
anywhere; rerunning the same command resumes from the last committed
shard without rescoring or redocking, and the final output is
byte-for-byte identical to an uninterrupted run.

Workers.  Each stage's not-yet-checkpointed shards are one
:func:`~repro.rct.pilot.run_in_order` stream; the parent walks the
stage's shards in order, reloading a checkpointed shard and taking the
stream's next record for any other.  The pool
(:func:`~repro.rct.pilot.resident_pilot`, one worker per usable cpu)
forks at the first shard that is not already checkpointed, so a fully
resumed run forks nothing; both stages share it, and it is shut down on
every way out.  Its initializer installs the surrogate and the docking
engine once per worker; each worker compiles its own inference engine on
its first ML1 shard.  A shard that failed in a worker raises naming the
shard; a worker that died raises the runner's one dead-worker error.
Worker-side science is untraced: a traced screen records the parent's
stage, shard and checkpoint spans and counters, not the workers' kernel
spans.

Memory is bounded by construction: at most 2 × workers shards are
placed but not yet committed; a worker holds one shard of records and
one padded feature batch, or one packed docking shard; the parent holds a
fixed-size top-K selection heap.  None of it scales with library size.

Determinism ties the streamed path to the materialized one:

* padded fixed-size ML1 batches make scores split-invariant (PR 4), so
  per-shard scoring equals whole-library scoring bit-for-bit, whichever
  worker scores a shard;
* per-compound docking RNG streams make the shard cut invisible (PR 3);
* top-K selection uses the key ``(-score, arrival index)``, which is
  exactly a stable descending sort — the same compounds, in the same
  order, as the first K of ``sorted(table, key=score, reverse=True)``
  over the full score table, the ranking the campaign's ML1 stage
  applies — and shards arrive in shard order, not completion order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.docking.engine import DockingEngine, DockingResult
from repro.rct.fault import TaskFailedError
from repro.rct.pilot import Pilot, resident_pilot, run_in_order
from repro.rct.task import TaskRecord, TaskState
from repro.surrogate.infer import InferenceEngine, ScoredCompound
from repro.surrogate.train import TrainedSurrogate
from repro.telemetry import NULL_TRACER, Tracer
from repro.util.blas import BLAS_UNPINNED, pin_blas_threads
from repro.util.checkpoint import (
    CheckpointManifest,
    load_artifact,
    save_artifact,
    shard_fingerprint,
)
from repro.util.log import get_logger
from repro.util.shardio import read_shard

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
    #: :data:`~repro.util.blas.BLAS_PINNED`, or ``BLAS_UNPINNED`` when the
    #: scores may depend on the host's BLAS thread count
    blas: str = ""


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


# ------------------------------------------------------------ worker side

#: the science state :func:`_install_worker` puts in each worker process
_WORKER: dict = {}


def _install_worker(
    surrogate: TrainedSurrogate, batch_size: int, engine: DockingEngine
) -> None:
    """Pool initializer: the screen's science state, once per worker."""
    # the worker's forked copy of the engine: untracing it leaves the
    # parent's tracer alone
    engine.tracer = NULL_TRACER
    _WORKER.update(
        surrogate=surrogate, batch_size=batch_size, engine=engine, inference=None
    )


def score_shard(path: str) -> list[tuple[str, str, float]]:
    """ML1 task: ``(id, smiles, score)`` for every record of one shard."""
    inference = _WORKER["inference"]
    if inference is None:  # compiled on the worker's first ML1 shard
        inference = _WORKER["inference"] = InferenceEngine(
            _WORKER["surrogate"], batch_size=_WORKER["batch_size"]
        )
    return [(s.compound_id, s.smiles, s.score) for s in inference.score_shard(Path(path))]


def dock_shard_entries(entries: list[tuple[str, str]]) -> list[DockingResult]:
    """S1 task: dock one shard of ``(smiles, compound_id)`` pairs."""
    return _WORKER["engine"].dock_entries(entries)


# ------------------------------------------------------------ parent side


def _shard_output(stage: str, shard_id: str, record: TaskRecord):
    """A computed shard's output, or raise naming the shard that failed."""
    if record.state is not TaskState.DONE:
        raise TaskFailedError(
            f"{stage} shard {shard_id} failed in a worker: {record.error}", record
        )
    return record.result


def _checkpoint(
    tracer: Tracer, manifest: CheckpointManifest, artifact: Path, rows: list[dict],
    shard_id: str, **payload,
) -> None:
    """Durably record one committed shard: its artifact, then its manifest line."""
    save_artifact(artifact, rows)
    with tracer.span(
        f"checkpoint:{shard_id}", category="stream.checkpoint", shard=shard_id
    ):
        manifest.mark_done(shard_id, **payload)


def _result_to_row(result: DockingResult) -> dict:
    """DockingResult → JSON row (exact float round-trip via ``repr``)."""
    return {
        "id": result.compound_id,
        "smiles": result.smiles,
        "score": float(result.score),
        "n_evals": int(result.n_evals),
        "translation": [float(v) for v in result.pose_translation],
        "quaternion": [float(v) for v in result.pose_quaternion],
        "conformer": int(result.conformer),
        "torsions": [float(v) for v in result.torsion_angles],
    }


def _row_to_result(row: dict) -> DockingResult:
    return DockingResult(
        compound_id=row["id"],
        smiles=row["smiles"],
        score=row["score"],
        n_evals=row["n_evals"],
        pose_translation=tuple(row["translation"]),
        pose_quaternion=tuple(row["quaternion"]),
        conformer=row["conformer"],
        torsion_angles=tuple(row["torsions"]),
    )


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
        is committed (``stage`` is ``"ml1"`` or ``"s1"``) — progress
        reporting, and the hook the kill/resume tests use to die
        mid-run.

    Scores and poses are bit-identical to the materialized path
    (``score_shards`` over everything, stable sort, one big
    ``dock_entries``), to any worker count, and to any
    interrupted-and-resumed execution.  A resumed shard whose content
    fingerprint no longer matches its manifest line raises: a stale
    checkpoint directory cannot silently corrupt a screen.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    counter = tracer.metrics.counter
    result = StreamedScreenResult(selected=[], docked=[], blas=pin_blas_threads())
    if result.blas == BLAS_UNPINNED:
        _log.warning("%s: the screen's scores follow the host default", BLAS_UNPINNED)

    ml1_ckpt = s1_ckpt = None
    ml1_art = s1_art = Path()
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        ml1_art = checkpoint_dir / "ml1"
        s1_art = checkpoint_dir / "s1"
        ml1_ckpt = CheckpointManifest(checkpoint_dir / "ml1-manifest.jsonl")
        s1_ckpt = CheckpointManifest(checkpoint_dir / "s1-manifest.jsonl")

    pilot: Pilot | None = None

    def workers() -> Pilot:
        nonlocal pilot
        if pilot is None:
            pilot = resident_pilot(_install_worker, (surrogate, batch_size, engine))
        return pilot

    try:
        # ------------------------------------------------------------ ML1
        paths = [Path(p) for p in shard_paths]
        top = _TopK(keep_top)
        reload = [ml1_ckpt is not None and ml1_ckpt.is_done(p.name) for p in paths]
        computed = run_in_order(
            "ML1", score_shard,
            [(f"ML1/{p.name}", (str(p),)) for p, r in zip(paths, reload) if not r],
            workers,
        )
        with tracer.span("stage:ML1-stream", category="campaign.stage"):
            for path, resumed in zip(paths, reload):
                shard_id = path.name
                artifact = ml1_art / f"{shard_id}.scores.jsonl.gz"
                if resumed:
                    scored = [
                        ScoredCompound(r["id"], r["smiles"], r["score"])
                        for r in load_artifact(artifact)
                    ]
                    recorded = ml1_ckpt.payload(shard_id).get("fingerprint")
                    if recorded is not None and recorded != shard_fingerprint(
                        read_shard(path)
                    ):
                        raise RuntimeError(
                            f"checkpoint fingerprint mismatch for shard {shard_id}: "
                            "stale checkpoint directory?"
                        )
                else:
                    rows = _shard_output("ML1", shard_id, next(computed))
                    scored = [ScoredCompound(*row) for row in rows]
                    if ml1_ckpt is not None:
                        _checkpoint(
                            tracer, ml1_ckpt, artifact,
                            [{"id": s.compound_id, "smiles": s.smiles, "score": s.score}
                             for s in scored],
                            shard_id,
                            n_records=len(scored),
                            fingerprint=shard_fingerprint(
                                (s.compound_id, s.smiles) for s in scored
                            ),
                        )
                for item in scored:
                    top.offer(item)
                result.records_streamed += len(scored)
                result.shards_total += 1
                result.shards_resumed += resumed
                if on_shard is not None:
                    on_shard("ml1", shard_id)
                with tracer.span(
                    f"shard:{shard_id}", category="stream.shard",
                    shard=shard_id, n_records=len(scored), resumed=resumed,
                ):
                    pass
                if resumed:
                    counter("stream.shards_resumed").inc()
                else:
                    counter("stream.shards_scored").inc()
                    counter("stream.records_scored").inc(len(scored))
        result.selected = top.ranked()
        _log.info(
            "ML1 stream: %d records in %d shards (%d resumed), keeping top %d",
            result.records_streamed,
            result.shards_total,
            result.shards_resumed,
            len(result.selected),
        )

        # ------------------------------------------------------------- S1
        entries = [(s.smiles, s.compound_id) for s in result.selected]
        s1 = [
            (f"dock-{k:05d}", entries[start : start + dock_shard_size])
            for k, start in enumerate(range(0, len(entries), dock_shard_size))
        ]
        reload = [s1_ckpt is not None and s1_ckpt.is_done(sid) for sid, _ in s1]
        computed = run_in_order(
            "S1", dock_shard_entries,
            [(f"S1/{sid}", (shard,)) for (sid, shard), r in zip(s1, reload) if not r],
            workers,
        )
        with tracer.span("stage:S1-stream", category="campaign.stage"):
            for (shard_id, shard), resumed in zip(s1, reload):
                fingerprint = shard_fingerprint((cid, smiles) for smiles, cid in shard)
                artifact = s1_art / f"{shard_id}.poses.jsonl.gz"
                if resumed:
                    if s1_ckpt.payload(shard_id).get("fingerprint") != fingerprint:
                        raise RuntimeError(
                            f"checkpoint fingerprint mismatch for shard {shard_id}: "
                            "the shard cut or selection changed since the checkpoint"
                        )
                    docked = [_row_to_result(r) for r in load_artifact(artifact)]
                else:
                    docked = _shard_output("S1", shard_id, next(computed))
                    if s1_ckpt is not None:
                        _checkpoint(
                            tracer, s1_ckpt, artifact,
                            [_result_to_row(r) for r in docked],
                            shard_id, n_ligands=len(docked), fingerprint=fingerprint,
                        )
                result.docked.extend(docked)
                result.dock_shards_total += 1
                result.dock_shards_resumed += resumed
                if on_shard is not None:
                    on_shard("s1", shard_id)
                with tracer.span(
                    f"shard:{shard_id}", category="stream.shard",
                    shard=shard_id, n_ligands=len(docked), resumed=resumed,
                ):
                    pass
                if resumed:
                    counter("stream.dock_shards_resumed").inc()
                else:
                    engine._account(docked)
                    counter("stream.dock_shards_scored").inc()
    finally:
        if pilot is not None:
            pilot.shutdown()
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

"""ML1 inference engine: streaming, compiled, rank-distributed scoring.

§6.1.1's deployment path: the library arrives as gzip NDJSON shards,
shards are distributed round-robin across ranks (one per GPU), each rank
streams its shard set through a prefetch thread — which also featurizes,
a whole batch at a time — into the FP16-compiled network, and rank 0
gathers (id, SMILES, score) triples into a single ranked table that
feeds S1.  This module reproduces that flow on one
machine: "ranks" are loop iterations (or caller-managed workers), the
compiled model is the TensorRT analogue, and the output is the same
ranked table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.chem.depict import N_CHANNELS
from repro.nn.dataloader import PrefetchLoader, ShardReader, partition_shards
from repro.nn.inference import compile_model
from repro.surrogate.featurize import featurize_batch
from repro.surrogate.train import TrainedSurrogate
from repro.telemetry import NULL_TRACER
from repro.util.checkpoint import (
    CheckpointManifest,
    load_artifact,
    save_artifact,
    shard_fingerprint,
)
from repro.util.shardio import read_shard

__all__ = ["InferenceEngine", "ScoredCompound"]

#: featurized batches the prefetch thread may run ahead of the network
_QUEUE_DEPTH = 2


@dataclass(frozen=True)
class ScoredCompound:
    """One inference output row."""

    compound_id: str
    smiles: str
    score: float  # normalized [0, 1], higher = predicted better binder


class InferenceEngine:
    """Batch scoring of compound shards with a compiled surrogate."""

    def __init__(
        self,
        surrogate: TrainedSurrogate,
        precision: str = "fp16",
        batch_size: int = 64,
        tracer=None,
    ) -> None:
        self.surrogate = surrogate
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.compiled = compile_model(
            surrogate.model, precision=precision, tracer=tracer
        )
        self.batch_size = batch_size
        self.records_scored = 0
        self.shards_resumed = 0
        # persistent feature buffers: every batch — including the padded
        # final one — runs at exactly ``batch_size``, so the graph engine
        # binds a single arena plan and no per-batch stacking allocates.
        # A ring of them, so the prefetch thread featurizes the next
        # batches while the network reads this one: one being filled,
        # ``_QUEUE_DEPTH`` queued, one being scored.
        self._ring = np.zeros(
            (
                _QUEUE_DEPTH + 2,
                batch_size,
                N_CHANNELS,
                surrogate.image_size,
                surrogate.image_size,
            ),
            dtype=np.float32,
        )

    def _score_batch(self, feats: np.ndarray, filled: int) -> np.ndarray:
        """Run one (possibly zero-padded) feature buffer; drop padding.

        Padding to a fixed batch size keeps one compiled plan hot *and*
        keeps scores reproducible regardless of how records split into
        batches: BLAS accumulation depends on batch size, so a variable
        final batch would score the same compound differently depending
        on its shard's length.
        """
        if filled < self.batch_size:
            feats[filled:] = 0.0
        return self.compiled(feats).reshape(-1)[:filled]

    # ------------------------------------------------------------- shards
    def _score_one_shard(self, path: Path) -> list[ScoredCompound]:
        """Stream one shard file through prefetch + padded batches.

        §6.1.1's "prefetch threads → queue handoff → engine": the loader's
        producer thread reads the shard and featurizes each whole batch
        straight into the next buffer of the ring; this thread only runs
        the compiled network over the buffers as they arrive.
        """
        slots = cycle(self._ring)

        def featurize(records: list) -> tuple[list, np.ndarray]:
            feats = next(slots)
            featurize_batch(
                [rec[1] for rec in records],
                size=self.surrogate.image_size,
                out=feats[: len(records)],
            )
            return records, feats

        scored: list[ScoredCompound] = []
        loader = PrefetchLoader(
            ShardReader([path]),
            batch_size=self.batch_size,
            transform=featurize,
            queue_depth=_QUEUE_DEPTH,
        )
        for records, feats in loader:
            preds = self._score_batch(feats, len(records))
            scored.extend(
                ScoredCompound(rec[0], rec[1], float(p))
                for rec, p in zip(records, preds)
            )
        return scored

    def iter_score_shards(
        self,
        paths: Sequence[Path | str],
        checkpoint: CheckpointManifest | None = None,
        artifact_dir: Path | str | None = None,
    ) -> Iterator[tuple[str, list[ScoredCompound]]]:
        """Score shards one at a time, yielding ``(shard_id, scores)``.

        The bounded-memory ML1 path: only one shard's records and one
        padded feature batch are ever resident.  With ``checkpoint``
        (and ``artifact_dir`` for the per-shard score files), completed
        shards are durably recorded as they finish and *reloaded instead
        of rescored* on a resumed run; reloaded scores are bit-identical
        (exact-float JSONL artifacts).  A resumed shard whose content
        fingerprint no longer matches the manifest raises — a stale
        checkpoint directory cannot silently corrupt a screen.

        Because every batch is zero-padded to ``batch_size``
        (:meth:`_score_batch`), per-shard scoring is split-invariant:
        scores are bit-identical to scoring the whole shard set in one
        stream, whatever the shard boundaries.
        """
        if checkpoint is not None and artifact_dir is None:
            raise ValueError("checkpointed scoring needs an artifact_dir")
        for path in paths:
            path = Path(path)
            shard_id = path.name
            if checkpoint is not None and checkpoint.is_done(shard_id):
                rows = load_artifact(Path(artifact_dir) / f"{shard_id}.scores.jsonl.gz")
                scored = [
                    ScoredCompound(r["id"], r["smiles"], r["score"]) for r in rows
                ]
                recorded = checkpoint.payload(shard_id).get("fingerprint")
                actual = shard_fingerprint(read_shard(path))
                if recorded is not None and recorded != actual:
                    raise RuntimeError(
                        f"checkpoint fingerprint mismatch for shard {shard_id}: "
                        "stale checkpoint directory?"
                    )
                self.shards_resumed += 1
                self.tracer.metrics.counter("stream.shards_resumed").inc()
                with self.tracer.span(
                    f"shard:{shard_id}", category="stream.shard",
                    shard=shard_id, n_records=len(scored), resumed=True,
                ):
                    pass
                yield shard_id, scored
                continue
            with self.tracer.span(
                f"shard:{shard_id}", category="stream.shard", shard=shard_id
            ) as span:
                scored = self._score_one_shard(path)
                span.set_attr("n_records", len(scored))
                span.set_attr("resumed", False)
            self.records_scored += len(scored)
            self.tracer.metrics.counter("stream.shards_scored").inc()
            self.tracer.metrics.counter("stream.records_scored").inc(len(scored))
            if checkpoint is not None:
                save_artifact(
                    Path(artifact_dir) / f"{shard_id}.scores.jsonl.gz",
                    [
                        {"id": s.compound_id, "smiles": s.smiles, "score": s.score}
                        for s in scored
                    ],
                )
                with self.tracer.span(
                    f"checkpoint:{shard_id}", category="stream.checkpoint",
                    shard=shard_id,
                ):
                    checkpoint.mark_done(
                        shard_id,
                        n_records=len(scored),
                        fingerprint=shard_fingerprint(
                            (s.compound_id, s.smiles) for s in scored
                        ),
                    )
            yield shard_id, scored

    def score_shards(
        self,
        paths: Sequence[Path | str],
        world: int = 1,
        checkpoint: CheckpointManifest | None = None,
        artifact_dir: Path | str | None = None,
    ) -> list[ScoredCompound]:
        """Score every compound in a shard set.

        ``world`` splits the shard list into rank-partitions that are
        processed independently and gathered at the end — the single-node
        equivalent of the paper's MPI distribution; the returned table —
        rows and their order — is identical for any ``world`` (fixed-size
        padded batches make scores split-invariant, and rows are gathered
        in shard order, not rank order).  ``checkpoint``/``artifact_dir``
        enable per-shard resume via :meth:`iter_score_shards`.
        """
        per_rank = [
            [
                scored
                for _shard_id, scored in self.iter_score_shards(
                    partition_shards(paths, rank, world),
                    checkpoint=checkpoint,
                    artifact_dir=artifact_dir,
                )
            ]
            for rank in range(world)
        ]
        # gather in library order: shard i was rank (i % world)'s
        # (i // world)-th shard
        return [
            row
            for i in range(len(paths))
            for row in per_rank[i % world][i // world]
        ]

    # -------------------------------------------------------------- lists
    def score_smiles(
        self, smiles_list: Sequence[str], ids: Sequence[str] | None = None
    ) -> list[ScoredCompound]:
        """Score an in-memory list of SMILES."""
        ids = list(ids) if ids is not None else [f"CPD{i:07d}" for i in range(len(smiles_list))]
        if len(ids) != len(smiles_list):
            raise ValueError("ids and smiles_list must be the same length")
        out: list[ScoredCompound] = []
        chunks = [
            (list(smiles_list[s : s + self.batch_size]), ids[s : s + self.batch_size])
            for s in range(0, len(smiles_list), self.batch_size)
        ]
        feats = self._ring[0]
        for chunk, chunk_ids in chunks:
            featurize_batch(
                chunk, size=self.surrogate.image_size, out=feats[: len(chunk)]
            )
            preds = self._score_batch(feats, len(chunk))
            out.extend(
                ScoredCompound(i, s, float(p))
                for i, s, p in zip(chunk_ids, chunk, preds)
            )
        self.records_scored += len(out)
        return out

    @staticmethod
    def top_fraction(
        scored: list[ScoredCompound], fraction: float
    ) -> list[ScoredCompound]:
        """Best ``fraction`` by predicted score — the ML1→S1 filter."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        ranked = sorted(scored, key=lambda r: r.score, reverse=True)
        k = max(1, int(round(fraction * len(ranked))))
        return ranked[:k]

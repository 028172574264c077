"""ML1 inference engine: streaming, compiled shard scoring.

§6.1.1's deployment path: the library arrives as gzip NDJSON shards,
shards are distributed across ranks (one per GPU), each rank streams its
shards through a prefetch thread — which also featurizes, a whole batch
at a time — into the FP16-compiled network, and rank 0 gathers (id,
SMILES, score) triples into a single ranked table that feeds S1.  Here
one engine scores one shard per :meth:`InferenceEngine.score_shard`
call; the ranks are the streamed screen's resident worker processes
(:mod:`repro.core.streaming`), each holding its own compiled engine, and
the compiled model is the TensorRT analogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.chem.depict import N_CHANNELS
from repro.nn.dataloader import PrefetchLoader, ShardReader
from repro.nn.inference import compile_model
from repro.surrogate.featurize import featurize_batch
from repro.surrogate.train import TrainedSurrogate
from repro.telemetry import NULL_TRACER

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
        batches: the conv GEMMs run per sample, but the dense head's one
        ``(batch, 2w) @ (2w, 1)`` GEMM may round differently with its row
        count (seen at batch 19 against 64), so a variable final batch
        would score a compound differently depending on its shard's length.
        """
        if filled < self.batch_size:
            feats[filled:] = 0.0
        return self.compiled(feats).reshape(-1)[:filled]

    # ------------------------------------------------------------- shards
    def score_shard(self, path: Path) -> list[ScoredCompound]:
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
        self.records_scored += len(scored)
        return scored

    def score_shards(self, paths: Sequence[Path | str]) -> list[ScoredCompound]:
        """Score every compound in a shard set, in shard order.

        Fixed-size padded batches make scores split-invariant, so the
        table equals scoring the same records cut into any other shards.
        """
        return [row for path in paths for row in self.score_shard(Path(path))]

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


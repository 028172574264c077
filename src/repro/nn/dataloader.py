"""Streaming, compressed, prefetching data pipeline.

§6.1.1 describes ML1's inference IO in detail: the library arrives as
thousands of gzip-compressed shards; each rank stages its shard set,
then one prefetch thread loads+decompresses files while a second
iterates the decompressed records and feeds the network, glued together
with thread-safe queues and "careful exception handling to make the setup
resilient against sporadic IO errors".  This module is that pipeline.

Shards are gzip NDJSON (see :mod:`repro.util.shardio`).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.util.shardio import SHARD_READ_ERRORS, read_shard

__all__ = ["ShardReader", "PrefetchLoader"]

_END = object()

#: how often a blocked producer re-checks the consumer's stop flag
_PUT_POLL_SECONDS = 0.05


@dataclass
class LoaderStats:
    """Observability for the pipeline (errors are counted, not fatal)."""

    shards_read: int = 0
    records_yielded: int = 0
    io_errors: int = 0
    shards_staged: int = 0


class ShardReader:
    """Iterates records from gzip NDJSON shards with resilience.

    A shard that fails to read (corrupt gzip, truncated stream, malformed
    NDJSON, a name without an NDJSON suffix, missing file) increments
    ``stats.io_errors`` and is skipped — the paper's "resilient against
    sporadic IO errors" behaviour — unless ``strict=True``.

    ``staging_dir`` enables the §6.1.1 staging step ("each rank stages
    its assigned shard of the data from GPFS into node-local NVME"):
    each shard is copied into the staging directory before being read,
    and subsequent passes read the staged copy.  Staging is crash-safe:
    the copy lands under a temp name and is moved into place atomically,
    so an interrupted copy can never leave a truncated staged file that
    later passes would silently trust.
    """

    def __init__(
        self,
        paths: Sequence[Path | str],
        strict: bool = False,
        staging_dir: Path | str | None = None,
    ) -> None:
        self.paths = [Path(p) for p in paths]
        self.strict = strict
        self.staging_dir = Path(staging_dir) if staging_dir is not None else None
        self.stats = LoaderStats()

    def _resolve(self, path: Path) -> Path:
        if self.staging_dir is None:
            return path
        import os
        import shutil

        self.staging_dir.mkdir(parents=True, exist_ok=True)
        staged = self.staging_dir / path.name
        if not staged.exists():
            tmp = staged.with_name(staged.name + ".staging")
            try:
                shutil.copyfile(path, tmp)
                os.replace(tmp, staged)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            self.stats.shards_staged += 1
        return staged

    def __iter__(self) -> Iterator:
        for path in self.paths:
            try:
                local = self._resolve(path)
                records = read_shard(local)
            except SHARD_READ_ERRORS:
                if self.strict:
                    raise
                self.stats.io_errors += 1
                continue
            self.stats.shards_read += 1
            for rec in records:
                self.stats.records_yielded += 1
                yield rec


class PrefetchLoader:
    """Threaded prefetcher: one producer thread → bounded batch queue.

    The producer thread reads and decompresses shards, assembles
    fixed-size batches and applies ``transform`` to each whole batch
    (e.g. a list of records → records plus their featurized images)
    before queueing it, so IO *and* featurization overlap whatever the
    consumer does with the previous batch — the §6.1.1 design.  This
    iterator only hands the finished batches over.  ``queue_depth``
    bounds the batches waiting in the queue; counting the one the
    producer is building and the one the consumer holds, at most
    ``queue_depth + 2`` batches exist at a time — the ring size a
    ``transform`` that writes into reused buffers needs.

    Concurrency contract:

    * Abandoning iteration early (``break``) releases the producer: its
      queue puts poll the stop flag instead of blocking forever on a
      full queue, so ``worker.join`` always succeeds and no thread leaks.
    * A producer-side exception — a corrupt shard under ``strict=True``,
      or ``transform`` raising — is captured and re-raised in the
      consumer: a truncated stream is an error, never a clean
      end-of-data.
    """

    def __init__(
        self,
        reader: ShardReader,
        batch_size: int,
        transform: Callable[[list], object] | None = None,
        queue_depth: int = 4,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.reader = reader
        self.batch_size = batch_size
        self.transform = transform
        self.queue_depth = queue_depth

    def _producer(
        self,
        q: queue.Queue,
        stop: threading.Event,
        errors: list[BaseException],
    ) -> None:
        def offer(item) -> bool:
            """Put honoring ``stop``: poll so an abandoned consumer with a
            full queue can never wedge this thread."""
            while not stop.is_set():
                try:
                    q.put(item, timeout=_PUT_POLL_SECONDS)
                    return True
                except queue.Full:
                    continue
            return False

        def finish(batch: list) -> bool:
            return offer(self.transform(batch) if self.transform else batch)

        try:
            batch: list = []
            for rec in self.reader:
                batch.append(rec)
                if len(batch) == self.batch_size:
                    if not finish(batch):
                        return
                    batch = []
            if batch:
                finish(batch)
        except Exception as exc:  # noqa: BLE001 - relayed to the consumer
            errors.append(exc)
        finally:
            offer(_END)

    def __iter__(self) -> Iterator:
        q: queue.Queue = queue.Queue(maxsize=self.queue_depth)
        stop = threading.Event()
        errors: list[BaseException] = []
        worker = threading.Thread(
            target=self._producer,
            args=(q, stop, errors),
            daemon=True,
            name="shard-prefetch",
        )
        worker.start()
        try:
            while True:
                batch = q.get()
                if batch is _END:
                    break
                yield batch
            if errors:
                raise errors[0]
        finally:
            stop.set()
            worker.join(timeout=5.0)

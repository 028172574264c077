"""Tests for the sharded, threaded data pipeline."""

import threading
import time
from pathlib import Path

import pytest

from repro.nn.dataloader import PrefetchLoader, ShardReader
from repro.util.shardio import shard_path, write_shard


def _write_shards(tmp_path, n_shards=4, per_shard=10):
    paths = []
    for s in range(n_shards):
        records = [(f"ID{s}-{i}", f"C" * (i + 1)) for i in range(per_shard)]
        paths.append(write_shard(shard_path(tmp_path, "lib", s), records))
    return paths


def test_reader_yields_all_records(tmp_path):
    paths = _write_shards(tmp_path)
    reader = ShardReader(paths)
    records = list(reader)
    assert len(records) == 40
    assert reader.stats.shards_read == 4
    assert reader.stats.records_yielded == 40
    assert reader.stats.io_errors == 0


def test_reader_skips_corrupt_shard(tmp_path):
    paths = _write_shards(tmp_path, n_shards=3)
    paths[1].write_bytes(b"this is not gzip")
    reader = ShardReader(paths)
    records = list(reader)
    assert len(records) == 20
    assert reader.stats.io_errors == 1
    assert reader.stats.shards_read == 2


def test_reader_skips_missing_shard(tmp_path):
    paths = _write_shards(tmp_path, n_shards=2)
    paths.append(tmp_path / "missing.ndjson.gz")
    reader = ShardReader(paths)
    assert len(list(reader)) == 20
    assert reader.stats.io_errors == 1


def test_reader_strict_mode_raises(tmp_path):
    paths = _write_shards(tmp_path, n_shards=2)
    paths[0].write_bytes(b"garbage")
    with pytest.raises(OSError):
        list(ShardReader(paths, strict=True))


def test_prefetch_loader_batches(tmp_path):
    paths = _write_shards(tmp_path, n_shards=2, per_shard=7)  # 14 records
    loader = PrefetchLoader(ShardReader(paths), batch_size=4)
    batches = list(loader)
    assert [len(b) for b in batches] == [4, 4, 4, 2]
    flat = [r for b in batches for r in b]
    assert len({r[0] for r in flat}) == 14


def test_prefetch_loader_transform(tmp_path):
    """``transform`` sees whole batches, on the producer thread — that is
    what lets featurization overlap the consumer's forward pass."""
    paths = _write_shards(tmp_path, n_shards=1, per_shard=5)
    threads = set()

    def transform(batch):
        threads.add(threading.current_thread().name)
        return [len(rec[1]) for rec in batch]

    loader = PrefetchLoader(ShardReader(paths), batch_size=2, transform=transform)
    assert list(loader) == [[1, 2], [3, 4], [5]]
    assert threads == {"shard-prefetch"}


def test_transform_error_reraised_not_silent_eof(tmp_path):
    """A ``transform`` that raises on the producer thread surfaces in the
    consumer as that exception — never as a clean, short stream."""
    paths = _write_shards(tmp_path, n_shards=1, per_shard=10)
    calls = []

    def transform(batch):
        calls.append(len(batch))
        if len(calls) == 2:
            raise KeyError("unparseable record")
        return batch

    loader = PrefetchLoader(ShardReader(paths), batch_size=4, transform=transform)
    seen = []
    with pytest.raises(KeyError, match="unparseable record"):
        for batch in loader:
            seen.append(batch)
    assert len(seen) == 1  # the batch before the failure, nothing after it
    assert _no_prefetch_threads()


def test_early_break_with_transform_joins_producer(tmp_path):
    """Abandoning iteration while the producer sits in ``transform`` or in
    a full queue still ends the thread."""
    paths = _write_shards(tmp_path, n_shards=4, per_shard=50)
    loader = PrefetchLoader(
        ShardReader(paths),
        batch_size=5,
        transform=lambda batch: (time.sleep(0.01), batch)[1],
        queue_depth=1,
    )
    for _ in range(3):
        for _batch in loader:
            break
    assert _no_prefetch_threads(), "producer thread leaked after early break"


def test_prefetch_loader_reiterable(tmp_path):
    paths = _write_shards(tmp_path, n_shards=1, per_shard=6)
    loader = PrefetchLoader(ShardReader(paths), batch_size=3)
    first = [r for b in loader for r in b]
    second = [r for b in loader for r in b]
    assert first == second


def test_prefetch_loader_validates_batch_size(tmp_path):
    with pytest.raises(ValueError):
        PrefetchLoader(ShardReader([]), batch_size=0)


def test_loader_with_library_shards(tmp_path):
    """Integration with CompoundLibrary's shard format."""
    from repro.chem.library import generate_library

    lib = generate_library(12, seed=21)
    paths = lib.to_shards(tmp_path, shard_size=5)
    loader = PrefetchLoader(ShardReader(paths), batch_size=4)
    records = [r for b in loader for r in b]
    assert [r[0] for r in records] == [e.compound_id for e in lib]


def test_staging_copies_shards_locally(tmp_path):
    """§6.1.1: shards are staged GPFS → node-local storage before reading."""
    src = tmp_path / "gpfs"
    src.mkdir()
    paths = _write_shards(src, n_shards=3, per_shard=4)
    staging = tmp_path / "nvme"
    reader = ShardReader(paths, staging_dir=staging)
    records = list(reader)
    assert len(records) == 12
    assert reader.stats.shards_staged == 3
    assert sorted(p.name for p in staging.iterdir()) == sorted(p.name for p in paths)
    # second pass reads the staged copies without re-staging
    records2 = list(reader)
    assert records2 == records
    assert reader.stats.shards_staged == 3


def _no_prefetch_threads(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(t.name == "shard-prefetch" for t in threading.enumerate()):
            return True
        time.sleep(0.01)
    return False


def test_early_break_unblocks_producer(tmp_path):
    """Regression: with a full depth-1 queue, abandoning iteration used to
    leave the producer blocked forever in ``q.put``."""
    paths = _write_shards(tmp_path, n_shards=4, per_shard=50)  # 200 records
    loader = PrefetchLoader(ShardReader(paths), batch_size=5, queue_depth=1)
    it = iter(loader)
    assert len(next(it)) == 5
    it.close()  # consumer walks away mid-stream
    assert _no_prefetch_threads(), "producer thread leaked after early break"


def test_repeated_early_breaks_do_not_leak_threads(tmp_path):
    paths = _write_shards(tmp_path, n_shards=4, per_shard=50)
    loader = PrefetchLoader(ShardReader(paths), batch_size=5, queue_depth=1)
    for _ in range(5):
        for _batch in loader:
            break
    assert _no_prefetch_threads()


def test_producer_error_reraised_not_silent_eof(tmp_path):
    """Regression: a producer-side exception (corrupt shard under
    ``strict=True``) used to be swallowed, truncating the stream into
    what looked like a clean end-of-data."""
    paths = _write_shards(tmp_path, n_shards=3, per_shard=4)
    paths[1].write_bytes(b"garbage")
    loader = PrefetchLoader(ShardReader(paths, strict=True), batch_size=4)
    seen = []
    with pytest.raises(OSError):
        for batch in loader:
            seen.append(batch)
    assert len(seen) <= 1  # at most shard 0; never shard 2's records


def test_producer_error_beats_pending_partial_batch(tmp_path):
    """The error must surface before any trailing partial batch is
    yielded — a half-delivered stream is an error, not data."""
    paths = _write_shards(tmp_path, n_shards=2, per_shard=4)
    paths[1].write_bytes(b"garbage")
    loader = PrefetchLoader(ShardReader(paths, strict=True), batch_size=100)
    with pytest.raises(OSError):
        list(loader)
    assert _no_prefetch_threads()


def test_staging_interrupted_copy_is_crash_safe(tmp_path, monkeypatch):
    """Regression: an interrupted stage copy used to leave a truncated
    file at the final staged name, which later passes silently reused."""
    import shutil

    src = tmp_path / "gpfs"
    src.mkdir()
    paths = _write_shards(src, n_shards=1, per_shard=4)
    staging = tmp_path / "nvme"

    real_copyfile = shutil.copyfile
    calls = {"n": 0}

    def flaky(srcp, dstp, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            Path(dstp).write_bytes(Path(srcp).read_bytes()[:10])  # torn copy
            raise OSError("interrupted mid-copy")
        return real_copyfile(srcp, dstp, **kw)

    monkeypatch.setattr("shutil.copyfile", flaky)

    reader = ShardReader(paths, staging_dir=staging)
    assert list(reader) == []
    assert reader.stats.io_errors == 1
    # nothing truncated left behind — neither final name nor temp
    assert list(staging.iterdir()) == []
    # the retry pass stages cleanly and reads every record
    records = list(reader)
    assert len(records) == 4
    assert (staging / paths[0].name).exists()


def test_staging_tolerates_missing_source(tmp_path):
    src = tmp_path / "gpfs"
    src.mkdir()
    paths = _write_shards(src, n_shards=2, per_shard=4)
    paths.append(src / "gone.ndjson.gz")
    reader = ShardReader(paths, staging_dir=tmp_path / "nvme")
    assert len(list(reader)) == 8
    assert reader.stats.io_errors == 1

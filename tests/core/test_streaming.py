"""Streamed checkpointed screen: equality with the materialized path,
kill/resume determinism, bounded top-K selection, and memory that does
not grow with the number of records streamed.

The hard contract from the streaming pipeline: same-seed streaming and
materialized runs produce identical scores and poses, and a run killed
mid-stream resumes from the last completed shard and finishes
byte-for-byte identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.chem.library import generate_library, write_library_shards
from repro.core.streaming import _result_to_row, _TopK, run_streamed_screen
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.receptor import make_receptor
from repro.nn.dataloader import PrefetchLoader, ShardReader
from repro.surrogate.infer import InferenceEngine, ScoredCompound
from repro.surrogate.train import TrainConfig, train_surrogate
from repro.telemetry import TickClock, Tracer
from repro.util.shardio import shard_path, write_shard

LIB_N = 36
SHARD_SIZE = 8
KEEP_TOP = 6
SEED = 29

receptor = make_receptor("3CLPro")
small = LGAConfig(population=8, generations=3, local_search_rate=0.3)


@pytest.fixture(scope="module")
def surrogate():
    rng = np.random.default_rng(SEED)
    train = generate_library(16, seed=SEED + 1, name="train")
    return train_surrogate(
        [e.smiles for e in train],
        rng.normal(loc=-7.0, size=len(train)),
        TrainConfig(epochs=3, width=4),
        seed=SEED,
    )


@pytest.fixture()
def shard_paths(tmp_path):
    return write_library_shards(
        tmp_path / "shards", LIB_N, seed=SEED, shard_size=SHARD_SIZE
    )


def _engine():
    return DockingEngine(receptor, seed=5, config=small)


def _screen_rows(result):
    """Canonical byte-comparable form of a full screen output."""
    return json.dumps(
        {
            "selected": [
                (s.compound_id, s.smiles, s.score.hex()) for s in result.selected
            ],
            "docked": [_result_to_row(r) for r in result.docked],
        },
        sort_keys=True,
    )


# --------------------------------------------------------------------- _TopK


def test_topk_equals_stable_descending_sort():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=200) / 4.0  # many exact ties
    items = [ScoredCompound(f"C{i:03d}", "CCO", float(s)) for i, s in enumerate(scores)]
    for k in (1, 7, 50, 200, 500):
        top = _TopK(k)
        for item in items:
            top.offer(item)
        expected = sorted(items, key=lambda s: s.score, reverse=True)[:k]
        assert top.ranked() == expected


def test_topk_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        _TopK(0)


# ------------------------------------------- streamed == materialized


def test_streamed_equals_materialized(surrogate, shard_paths):
    streamed = run_streamed_screen(
        _engine(), surrogate, shard_paths, keep_top=KEEP_TOP
    )
    assert streamed.records_streamed == LIB_N
    assert streamed.shards_total == len(shard_paths)
    assert streamed.shards_resumed == 0

    # materialized reference: score everything, stable sort, one dock call
    inference = InferenceEngine(surrogate, batch_size=64)
    scored = inference.score_shards(shard_paths)
    ranked = sorted(scored, key=lambda s: s.score, reverse=True)[:KEEP_TOP]
    assert streamed.selected == ranked

    docked = _engine().dock_entries([(s.smiles, s.compound_id) for s in ranked])
    assert [_result_to_row(r) for r in streamed.docked] == [
        _result_to_row(r) for r in docked
    ]


def test_traced_streamed_screen_counts_its_docked_ligands(surrogate, shard_paths):
    """The streamed S1 path charges the same engine totals and
    ``docking.*`` trace counters as ``dock_smiles``/``dock_library``."""
    tracer = Tracer(clock=TickClock())
    engine = DockingEngine(receptor, seed=5, config=small, tracer=tracer)
    result = run_streamed_screen(
        engine, surrogate, shard_paths, keep_top=KEEP_TOP, dock_shard_size=4,
        tracer=tracer,
    )
    n_evals = sum(r.n_evals for r in result.docked)
    assert (engine.total_ligands, engine.total_evals) == (KEEP_TOP, n_evals)
    assert tracer.metrics.counter("docking.ligands").value == KEEP_TOP
    assert tracer.metrics.counter("docking.evals").value == n_evals
    assert tracer.metrics.counter("stream.dock_shards_scored").value == 2


# --------------------------------------------------- kill / resume


class _KillSwitch(RuntimeError):
    pass


def _run_with_kill(engine, surrogate, paths, ckpt, kill_stage, kill_after):
    """Run the screen but die after ``kill_after`` shards of ``kill_stage``."""
    count = {"n": 0}

    def on_shard(stage, _sid):
        if stage == kill_stage:
            count["n"] += 1
            if count["n"] >= kill_after:
                raise _KillSwitch

    with pytest.raises(_KillSwitch):
        run_streamed_screen(
            engine, surrogate, paths, keep_top=KEEP_TOP,
            checkpoint_dir=ckpt, dock_shard_size=2, on_shard=on_shard,
        )


def test_kill_during_ml1_resume_is_byte_identical(surrogate, shard_paths, tmp_path):
    uninterrupted = run_streamed_screen(
        _engine(), surrogate, shard_paths, keep_top=KEEP_TOP,
        checkpoint_dir=tmp_path / "ck-a", dock_shard_size=2,
    )

    ckpt = tmp_path / "ck-b"
    _run_with_kill(_engine(), surrogate, shard_paths, ckpt, "ml1", kill_after=2)
    resumed = run_streamed_screen(
        _engine(), surrogate, shard_paths, keep_top=KEEP_TOP,
        checkpoint_dir=ckpt, dock_shard_size=2,
    )
    assert resumed.shards_resumed == 2
    assert _screen_rows(resumed) == _screen_rows(uninterrupted)


def test_kill_during_s1_resume_skips_redocking(surrogate, shard_paths, tmp_path):
    uninterrupted = run_streamed_screen(
        _engine(), surrogate, shard_paths, keep_top=KEEP_TOP,
        checkpoint_dir=tmp_path / "ck-a", dock_shard_size=2,
    )

    ckpt = tmp_path / "ck-b"
    _run_with_kill(_engine(), surrogate, shard_paths, ckpt, "s1", kill_after=2)

    engine = _engine()
    resumed = run_streamed_screen(
        engine, surrogate, shard_paths, keep_top=KEEP_TOP,
        checkpoint_dir=ckpt, dock_shard_size=2,
    )
    # all ML1 shards finished before the S1 kill, 2 dock shards were done
    assert resumed.shards_resumed == len(shard_paths)
    assert resumed.dock_shards_resumed == 2
    # resumed shards were loaded, not redocked: only the tail cost evals
    assert engine.total_ligands == KEEP_TOP - 2 * 2
    assert _screen_rows(resumed) == _screen_rows(uninterrupted)


def test_full_resume_does_zero_work(surrogate, shard_paths, tmp_path):
    ckpt = tmp_path / "ck"
    first = run_streamed_screen(
        _engine(), surrogate, shard_paths, keep_top=KEEP_TOP,
        checkpoint_dir=ckpt, dock_shard_size=2,
    )
    engine = _engine()
    second = run_streamed_screen(
        engine, surrogate, shard_paths, keep_top=KEEP_TOP,
        checkpoint_dir=ckpt, dock_shard_size=2,
    )
    assert engine.total_ligands == 0
    assert engine.total_evals == 0
    assert second.shards_resumed == len(shard_paths)
    assert second.dock_shards_resumed == second.dock_shards_total
    assert _screen_rows(second) == _screen_rows(first)


def test_stale_checkpoint_fingerprint_rejected(surrogate, tmp_path):
    """A checkpoint from a different shard cut must be refused, not
    silently grafted onto the new run."""
    paths_a = write_library_shards(
        tmp_path / "a", LIB_N, seed=SEED, shard_size=SHARD_SIZE
    )
    ckpt = tmp_path / "ck"
    run_streamed_screen(
        _engine(), surrogate, paths_a, keep_top=KEEP_TOP, checkpoint_dir=ckpt
    )
    # same shard filenames, different library content
    paths_b = write_library_shards(
        tmp_path / "b", LIB_N, seed=SEED + 999, shard_size=SHARD_SIZE
    )
    with pytest.raises(RuntimeError, match="fingerprint"):
        run_streamed_screen(
            _engine(), surrogate, paths_b, keep_top=KEEP_TOP, checkpoint_dir=ckpt
        )


# ------------------------------------------------------------ flat memory

FLAT_N = 10_000
FLAT_SHARD = 2_500
FLAT_BATCH = 256
FLAT_TOP = 100


def _stream_peak(directory, n_records: int, pool) -> int:
    """Stream ``n_records`` through ``ShardReader`` → ``PrefetchLoader`` →
    ``_TopK``; returns the traced allocation peak of the read phase (bytes).

    The records cycle a small compound pool into ``FLAT_SHARD``-record
    NDJSON shards, so only the shard count differs between sizes.
    """
    paths = []
    for index, start in enumerate(range(0, n_records, FLAT_SHARD)):
        stop = min(start + FLAT_SHARD, n_records)
        records = [
            (f"STR{i:09d}", pool[i % len(pool)].smiles) for i in range(start, stop)
        ]
        paths.append(write_shard(shard_path(directory, "flat", index), records))
    top = _TopK(FLAT_TOP)
    n = 0
    tracemalloc.start()
    try:
        loader = PrefetchLoader(ShardReader(paths, strict=True), batch_size=FLAT_BATCH)
        for batch in loader:
            for cid, smiles in batch:
                # crc32, not hash(): str hashes vary with PYTHONHASHSEED
                score = zlib.crc32(smiles.encode()) / 0xFFFFFFFF
                top.offer(ScoredCompound(cid, smiles, score))
            n += len(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == n_records, f"stream dropped records: {n} != {n_records}"
    assert len(top.ranked()) == FLAT_TOP
    return peak


def test_stream_memory_is_flat_in_record_count(tmp_path):
    """Four times the records at the same shard size must not raise the
    read phase's allocation peak: the reader holds one shard, the loader
    a bounded queue of batches and the selector K items."""
    pool = generate_library(64, seed=SEED, name="pool").entries
    peak_n = _stream_peak(tmp_path / "n", FLAT_N, pool)
    peak_4n = _stream_peak(tmp_path / "4n", 4 * FLAT_N, pool)
    assert peak_4n <= 1.1 * peak_n, (
        f"peak grew with the stream: {peak_n // 1024} KiB at {FLAT_N} "
        f"records, {peak_4n // 1024} KiB at {4 * FLAT_N}"
    )

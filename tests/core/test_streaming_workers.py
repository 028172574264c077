"""The streamed screen on resident worker processes.

ML1 and S1 shards run as tasks on a fork-context pool the screen owns:
forked at the first shard that is not already checkpointed, shared by
both stages, and shut down on every way out.  The worker count never
changes a byte of the output or of the checkpoint, no worker outlives
its screen (after a kill in either stage, a shard that failed in a
worker, or a worker process that died), and a fully resumed screen
forks nothing.

Fault injection follows ``replica_faults.py``: the task functions below
live at module level (the process backend pickles them by reference)
and fail, or SIGKILL their worker, on a compound id set before the pool
forks, never on a counter.
"""

from __future__ import annotations

import gzip
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.chem.library import generate_library, write_library_shards
from repro.core import streaming
from repro.core.streaming import (
    _result_to_row,
    dock_shard_entries,
    run_streamed_screen,
    score_shard,
)
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.receptor import make_receptor
from repro.rct import pilot as pilot_module
from repro.rct.fault import TaskFailedError
from repro.surrogate.train import TrainConfig, train_surrogate
from repro.util.checkpoint import CheckpointManifest
from repro.util.shardio import read_shard

LIB_N = 36
SHARD_SIZE = 8  # 5 ML1 shards
KEEP_TOP = 6
DOCK_SHARD = 2  # 3 S1 shards
SEED = 29

receptor = make_receptor("3CLPro")
small = LGAConfig(population=8, generations=3, local_search_rate=0.3)

#: the compound id the faulty tasks below fail on
FAIL_ID = ""


def failing_score_shard(path: str):
    """``score_shard`` that raises on the shard holding :data:`FAIL_ID`."""
    rows = score_shard(path)
    if any(cid == FAIL_ID for cid, _smiles, _score in rows):
        raise RuntimeError(f"simulated node failure at {FAIL_ID}")
    return rows


def failing_dock_shard(entries):
    """``dock_shard_entries`` that raises on the shard holding :data:`FAIL_ID`."""
    if any(cid == FAIL_ID for _smiles, cid in entries):
        raise RuntimeError(f"simulated node failure at {FAIL_ID}")
    return dock_shard_entries(entries)


def killing_score_shard(path: str):
    """``score_shard`` whose worker SIGKILLs itself on :data:`FAIL_ID`'s shard."""
    rows = score_shard(path)
    if any(cid == FAIL_ID for cid, _smiles, _score in rows):
        os.kill(os.getpid(), signal.SIGKILL)
    return rows


def killing_dock_shard(entries):
    """``dock_shard_entries`` whose worker SIGKILLs itself on :data:`FAIL_ID`'s shard."""
    if any(cid == FAIL_ID for _smiles, cid in entries):
        os.kill(os.getpid(), signal.SIGKILL)
    return dock_shard_entries(entries)


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


@pytest.fixture(scope="module")
def shard_paths(tmp_path_factory):
    return write_library_shards(
        tmp_path_factory.mktemp("shards"), LIB_N, seed=SEED, shard_size=SHARD_SIZE
    )


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def no_new_children():
    """Fail if the test leaves a child process it did not find."""
    before = _children()
    yield
    assert _children() <= before


def _screen(surrogate, paths, ckpt, on_shard=None, engine=None):
    return run_streamed_screen(
        engine or DockingEngine(receptor, seed=5, config=small),
        surrogate, paths, keep_top=KEEP_TOP, checkpoint_dir=ckpt,
        dock_shard_size=DOCK_SHARD, on_shard=on_shard,
    )


def _rows(result) -> list:
    """Byte-comparable form of a screen's output."""
    return [
        [(s.compound_id, s.smiles, s.score.hex()) for s in result.selected],
        [_result_to_row(r) for r in result.docked],
    ]


def _checkpoint_bytes(ckpt) -> dict[str, bytes]:
    """Manifests as written, artifacts decompressed (gzip stamps a time)."""
    out = {}
    for path in sorted(ckpt.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            out[str(path.relative_to(ckpt))] = (
                gzip.decompress(data) if path.suffix == ".gz" else data
            )
    return out


@pytest.fixture(scope="module")
def reference(surrogate, shard_paths, tmp_path_factory):
    """One uninterrupted screen at the host's worker count."""
    ckpt = tmp_path_factory.mktemp("reference")
    return _rows(_screen(surrogate, shard_paths, ckpt)), _checkpoint_bytes(ckpt)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_output_and_checkpoint_do_not_depend_on_worker_count(
    monkeypatch, no_new_children, surrogate, shard_paths, reference, tmp_path, workers
):
    monkeypatch.setattr(pilot_module, "_worker_count", lambda: workers)
    result = _screen(surrogate, shard_paths, tmp_path / "ck")
    assert _rows(result) == reference[0]
    assert _checkpoint_bytes(tmp_path / "ck") == reference[1]
    assert len(reference[1]) == 2 + 5 + 3  # two manifests, one artifact a shard


class _Kill(RuntimeError):
    pass


@pytest.mark.parametrize("stage", ["ml1", "s1"])
def test_kill_reaps_workers_and_resume_is_byte_identical(
    monkeypatch, no_new_children, surrogate, shard_paths, reference, tmp_path, stage
):
    monkeypatch.setattr(pilot_module, "_worker_count", lambda: 2)

    def on_shard(at: str, _shard_id: str) -> None:
        if at == stage:
            raise _Kill

    before = _children()
    with pytest.raises(_Kill):
        _screen(surrogate, shard_paths, tmp_path / "ck", on_shard)
    assert _children() == before  # reaped before the kill left the call
    resumed = _screen(surrogate, shard_paths, tmp_path / "ck")
    assert resumed.shards_resumed == (1 if stage == "ml1" else 5)
    assert resumed.dock_shards_resumed == (0 if stage == "ml1" else 1)
    assert _rows(resumed) == reference[0]
    assert _checkpoint_bytes(tmp_path / "ck") == reference[1]


def test_full_resume_forks_nothing(monkeypatch, surrogate, shard_paths, tmp_path):
    ckpt = tmp_path / "ck"
    first = _screen(surrogate, shard_paths, ckpt)

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a fully resumed screen built a worker pool")

    monkeypatch.setattr(pilot_module, "ProcessExecutor", no_pool)
    second = _screen(surrogate, shard_paths, ckpt)
    assert second.shards_resumed == second.shards_total == 5
    assert second.dock_shards_resumed == second.dock_shards_total == 3
    assert _rows(second) == _rows(first)


def _fault_at(monkeypatch, shard_paths, reference, stage, task, fn, shard, workers):
    """Route ``stage``'s tasks through ``fn``, faulting at shard ``shard``;
    returns the stage's shard ids and the compound id it faults on."""
    if stage == "ML1":
        shard_ids = [p.name for p in shard_paths]
        fail_id = read_shard(shard_paths[shard])[0][0]
    else:
        shard_ids = [f"dock-{k:05d}" for k in range(3)]
        selected = reference[0][0]
        fail_id = selected[shard * DOCK_SHARD][0]
    monkeypatch.setattr(pilot_module, "_worker_count", lambda: workers)
    monkeypatch.setattr(f"{__name__}.FAIL_ID", fail_id)
    monkeypatch.setattr(streaming, task, fn)
    return shard_ids, fail_id


@pytest.mark.parametrize(
    "stage, task, fn, shard",
    [
        ("ML1", "score_shard", failing_score_shard, 2),
        ("S1", "dock_shard_entries", failing_dock_shard, 1),
    ],
)
def test_worker_fault_names_its_shard_after_committing_earlier_ones(
    monkeypatch, no_new_children, surrogate, shard_paths, reference, tmp_path,
    stage, task, fn, shard,
):
    ckpt = tmp_path / "ck"
    shard_ids, fail_id = _fault_at(
        monkeypatch, shard_paths, reference, stage, task, fn, shard, workers=2
    )

    with pytest.raises(TaskFailedError) as info:
        _screen(surrogate, shard_paths, ckpt)
    message = str(info.value)
    assert f"{stage} shard {shard_ids[shard]} failed" in message
    assert f"RuntimeError: simulated node failure at {fail_id}" in message
    manifest = CheckpointManifest(ckpt / f"{stage.lower()}-manifest.jsonl")
    assert manifest.completed() == shard_ids[:shard]

    monkeypatch.undo()  # the fault is gone: the rerun resumes past it
    resumed = _screen(surrogate, shard_paths, ckpt)
    assert _rows(resumed) == reference[0]
    assert _checkpoint_bytes(ckpt) == reference[1]


@pytest.mark.parametrize(
    "stage, task, fn, shard",
    [
        ("ML1", "score_shard", killing_score_shard, 2),
        ("S1", "dock_shard_entries", killing_dock_shard, 1),
    ],
)
def test_killed_worker_raises_naming_the_stage_after_committing_earlier_shards(
    monkeypatch, no_new_children, surrogate, shard_paths, reference, tmp_path,
    stage, task, fn, shard,
):
    # one worker runs the shards in order, so every shard before the
    # killed one has finished when its worker dies
    ckpt = tmp_path / "ck"
    shard_ids, _ = _fault_at(
        monkeypatch, shard_paths, reference, stage, task, fn, shard, workers=1
    )
    before = _children()
    with pytest.raises(TaskFailedError, match=f"^{stage}: a worker process died: "):
        _screen(surrogate, shard_paths, ckpt)
    assert _children() == before  # the broken pool was reaped
    manifest = CheckpointManifest(ckpt / f"{stage.lower()}-manifest.jsonl")
    assert manifest.completed() == shard_ids[:shard]

    monkeypatch.undo()
    resumed = _screen(surrogate, shard_paths, ckpt)
    assert _rows(resumed) == reference[0]
    assert _checkpoint_bytes(ckpt) == reference[1]

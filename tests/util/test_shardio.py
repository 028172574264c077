"""Tests for the gzip NDJSON shard IO layer."""

import gzip
import json
import os
import stat

import pytest

from repro.util.checkpoint import save_artifact
from repro.util.shardio import (
    SHARD_READ_ERRORS,
    shard_path,
    read_shard,
    write_shard,
)

RECORDS = [("CPD0000001", "CCO"), ("CPD0000002", "c1ccccc1"), ("CPD0000003", "CC(=O)O")]


def test_shard_path_naming(tmp_path):
    assert shard_path(tmp_path, "OZD", 3).name == "OZD-shard-00003.ndjson.gz"


@pytest.mark.parametrize("suffix", [".ndjson.gz", ".jsonl.gz"], ids=["ndjson", "jsonl"])
def test_roundtrip(tmp_path, suffix):
    p = tmp_path / f"lib-shard-00000{suffix}"
    write_shard(p, RECORDS)
    assert read_shard(p) == RECORDS


def test_pickle_shards_are_rejected(tmp_path):
    """The retired gzip-pickle format is neither written nor read: loading
    a pickle runs whatever code the file holds."""
    p = tmp_path / "lib-shard-00000.pkl.gz"
    with pytest.raises(ValueError, match="NDJSON"):
        write_shard(p, RECORDS)
    assert not p.exists()
    p.write_bytes(gzip.compress(b"\x80\x04N."))  # a pickled None
    with pytest.raises(ValueError, match="NDJSON"):
        read_shard(p)


def test_ndjson_is_one_json_object_per_line(tmp_path):
    p = shard_path(tmp_path, "lib", 0)
    write_shard(p, RECORDS)
    with gzip.open(p, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(RECORDS)
    row = json.loads(lines[0])
    assert row == {"id": "CPD0000001", "smiles": "CCO"}


def test_write_is_atomic_no_partial_file(tmp_path, monkeypatch):
    """A crash mid-write must not leave a (truncated) shard at the final
    path, nor the temp file."""
    p = shard_path(tmp_path, "lib", 0)

    bad = [("ok", "CCO"), None]  # None explodes during serialization
    with pytest.raises(Exception):
        write_shard(p, bad)
    assert not p.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_shard(path / "lib-shard-00000.ndjson.gz", RECORDS),
        lambda path: save_artifact(path / "s0.poses.jsonl.gz", [{"id": "a", "score": -1.5}]),
    ],
    ids=["write_shard", "save_artifact"],
)
def test_write_fsyncs_file_then_replaces_then_fsyncs_directory(tmp_path, monkeypatch, write):
    """A manifest line that names a file is written after the file's writer
    returns; the file must already survive an OS crash by then."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(("fsync", kind))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path)
    assert calls == [("fsync", "file"), ("replace",), ("fsync", "dir")]


def test_corrupt_shards_raise_read_errors(tmp_path):
    garbage = tmp_path / "x-shard-00000.ndjson.gz"
    garbage.write_bytes(b"not gzip at all")
    with pytest.raises(SHARD_READ_ERRORS):
        read_shard(garbage)

    truncated = tmp_path / "y-shard-00000.ndjson.gz"
    truncated.write_bytes(gzip.compress(b'{"id": "a", "smiles"'))
    with pytest.raises(SHARD_READ_ERRORS):
        read_shard(truncated)

    with pytest.raises(SHARD_READ_ERRORS):
        read_shard(tmp_path / "missing-shard-00000.ndjson.gz")


def test_malformed_ndjson_row_raises(tmp_path):
    p = tmp_path / "z-shard-00000.ndjson.gz"
    with gzip.open(p, "wt", encoding="utf-8") as fh:
        fh.write('{"id": "a", "smiles": "CCO"}\n{"wrong": "keys"}\n')
    with pytest.raises(SHARD_READ_ERRORS):
        read_shard(p)

"""Resumable shard checkpoints: manifest + exact-precision result artifacts.

The streaming pipeline's restart contract (ROADMAP: "campaign killed
mid-S1 resumes from the last completed shard without rescoring") rests on
two pieces:

:class:`CheckpointManifest`
    An append-only JSONL ledger of completed shards.  Each completed
    shard appends one fsync'd line ``{"shard": ..., **payload}``.  A
    crash mid-append leaves at most one truncated final line, which the
    loader skips — so the manifest always reflects a prefix of fully
    completed work, never a partially completed shard.

:func:`save_artifact` / :func:`load_artifact`
    Per-shard result files (gzip JSONL, atomic and fsynced write).  Floats are
    serialized with :func:`json.dumps`' ``repr``-based format, which
    round-trips ``float`` exactly — a resumed run reloads *bit-identical*
    scores and poses, so streaming-with-resume output is byte-for-byte
    equal to an uninterrupted run.

The write protocol is artifact first, manifest line second.  A crash
between the two leaves an orphaned artifact and no manifest entry; the
shard is simply recomputed (at-least-once semantics) and the artifact
overwritten — correctness never depends on the gap.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.util.shardio import write_gzip_lines

__all__ = ["CheckpointManifest", "load_artifact", "save_artifact", "shard_fingerprint"]


def shard_fingerprint(records: Iterable[Sequence[str]]) -> str:
    """Stable content fingerprint of a shard (order-sensitive).

    ``records`` are ``(compound_id, smiles)`` pairs — both fields are
    hashed, because library compound ids are positional (``OZD0000042``)
    and two different libraries share them.  Stored in the manifest
    payload and re-checked against the *current shard content* on
    resume, so a stale checkpoint directory can never silently graft
    results from a different library or shard cut onto a new run.
    """
    digest = hashlib.sha256()
    for rec in records:
        for fieldv in rec:
            digest.update(fieldv.encode("utf-8"))
            digest.update(b"\x1f")  # field separator
        digest.update(b"\x1e")  # record separator
    return digest.hexdigest()[:16]


class CheckpointManifest:
    """Append-only JSONL record of completed shards.

    ``mark_done`` is durable (flush + fsync) before it returns; ``load``
    tolerates a truncated final line from a crash mid-append.  Shard ids
    are free-form strings — the streaming layers use the shard filename
    for scoring and a positional ``dock-NNNNN`` id for docking shards.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._done: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # truncated tail from a crash mid-append
            if isinstance(rec, dict) and isinstance(rec.get("shard"), str):
                self._done[rec["shard"]] = rec

    def __len__(self) -> int:
        return len(self._done)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._done

    def is_done(self, shard_id: str) -> bool:
        """Was ``shard_id`` fully completed by an earlier run?"""
        return shard_id in self._done

    def payload(self, shard_id: str) -> dict:
        """The payload recorded when ``shard_id`` completed."""
        return dict(self._done[shard_id])

    def completed(self) -> list[str]:
        """Completed shard ids, in completion order."""
        return list(self._done)

    def mark_done(self, shard_id: str, **payload) -> None:
        """Durably record ``shard_id`` as complete (flush + fsync)."""
        rec = {"shard": shard_id, **payload}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab+") as raw:
            # a crash mid-append can leave a torn final line with no
            # newline; terminate it so the new record starts on its own
            # line instead of concatenating into the garbage
            raw.seek(0, os.SEEK_END)
            if raw.tell() > 0:
                raw.seek(-1, os.SEEK_END)
                if raw.read(1) != b"\n":
                    raw.write(b"\n")
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._done[shard_id] = rec

    def clear(self) -> None:
        """Forget all completed shards (deletes the manifest file)."""
        self.path.unlink(missing_ok=True)
        self._done.clear()


def save_artifact(path: Path | str, rows: list[dict]) -> Path:
    """Atomically and durably write one shard's result rows as gzip JSONL.

    ``float`` values round-trip exactly through JSON's ``repr``-based
    formatting, so reloaded scores/poses are bit-identical.
    """
    return write_gzip_lines(path, (json.dumps(row, sort_keys=True) + "\n" for row in rows))


def load_artifact(path: Path | str) -> list[dict]:
    """Read rows written by :func:`save_artifact`."""
    with gzip.open(Path(path), "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]

"""Library shard IO: gzip NDJSON, written atomically and durably.

§6.1.1's libraries travel as thousands of gzip-compressed shards.  A
shard holds one ``{"id": ..., "smiles": ...}`` object per line, the
format of the Open Molecule Data Pipeline's checkpointed connectors:
shards can be written incrementally, inspected with ``zcat``, and
truncation is detectable line by line.  Reading a shard parses JSON and
never runs code from the file.

Every write goes through :func:`write_gzip_lines`: a temp file that is
fsynced, then ``os.replace``d into place, then a directory fsync.  A
crash mid-write never leaves a truncated file under the final name, and
a file whose writer returned survives an OS crash, so a manifest line
written after it never outlives it.
"""

from __future__ import annotations

import gzip
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "SHARD_READ_ERRORS",
    "read_shard",
    "shard_path",
    "write_gzip_lines",
    "write_shard",
]

#: everything :func:`read_shard` raises for a damaged, missing or
#: unsupported shard: OSError (missing file, bad gzip), EOFError
#: (truncated stream), ValueError (malformed NDJSON, or a name without an
#: NDJSON suffix, such as the retired gzip-pickle ``.pkl.gz`` shards)
SHARD_READ_ERRORS = (OSError, EOFError, ValueError)

_SUFFIXES = (".ndjson.gz", ".jsonl.gz")


def _require_ndjson(path: Path) -> None:
    if not path.name.endswith(_SUFFIXES):
        raise ValueError(
            f"{path.name}: library shards are gzip NDJSON ({' or '.join(_SUFFIXES)})"
        )


def shard_path(directory: Path | str, name: str, index: int) -> Path:
    """Canonical path of shard ``index`` of library ``name``."""
    return Path(directory) / f"{name}-shard-{index:05d}{_SUFFIXES[0]}"


def write_gzip_lines(path: Path | str, lines: Iterable[str]) -> Path:
    """Write newline-terminated ``lines`` to a gzip text file, atomically
    and durably (temp file, fsync, ``os.replace``, directory fsync)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as raw:
            with gzip.open(raw, "wt", encoding="utf-8") as fh:
                fh.writelines(lines)
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path


def write_shard(path: Path | str, records: Iterable[Sequence[str]]) -> Path:
    """Write ``(compound_id, smiles)`` records to one NDJSON shard."""
    path = Path(path)
    _require_ndjson(path)
    return write_gzip_lines(
        path, (json.dumps({"id": cid, "smiles": smiles}) + "\n" for cid, smiles in records)
    )


def read_shard(path: Path | str) -> list[tuple[str, str]]:
    """Read one shard into ``(compound_id, smiles)`` tuples.

    Raises the errors in :data:`SHARD_READ_ERRORS`; resilience policy
    belongs to the caller (:class:`repro.nn.dataloader.ShardReader`
    counts and skips).
    """
    path = Path(path)
    _require_ndjson(path)
    records: list[tuple[str, str]] = []
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            try:
                records.append((rec["id"], rec["smiles"]))
            except (TypeError, KeyError) as exc:
                raise ValueError(f"malformed NDJSON record in {path.name}") from exc
    return records

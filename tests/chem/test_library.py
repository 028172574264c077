"""Tests for synthetic library generation and shard I/O."""

import numpy as np
import pytest

from repro.chem.library import (
    CompoundLibrary,
    LibraryEntry,
    generate_library,
    library_overlap,
    stream_library,
    write_library_shards,
)
from repro.chem.smiles import canonical_smiles, parse_smiles


@pytest.fixture(scope="module")
def lib():
    return generate_library(60, seed=11, name="OZD")


def test_generation_counts_and_ids(lib):
    assert len(lib) == 60
    ids = [e.compound_id for e in lib]
    assert len(set(ids)) == 60


def test_all_members_parse_and_validate(lib):
    for i in range(len(lib)):
        mol = lib.molecule(i)
        mol.validate()
        assert mol.is_connected()


def test_library_unique_by_canonical_smiles(lib):
    canon = {canonical_smiles(s) for s in lib.smiles()}
    assert len(canon) == len(lib)


def test_generation_deterministic():
    a = generate_library(20, seed=5)
    b = generate_library(20, seed=5)
    assert a.smiles() == b.smiles()


def test_different_seeds_differ():
    a = generate_library(20, seed=5)
    b = generate_library(20, seed=6)
    assert a.smiles() != b.smiles()


def test_shared_fraction_produces_overlap():
    ozd = generate_library(40, seed=1, name="OZD", shared_fraction=0.3, shared_seed=99)
    ord_ = generate_library(40, seed=2, name="ORD", shared_fraction=0.3, shared_seed=99)
    overlap = library_overlap(ozd, ord_)
    # ~12 shared molecules expected; dedup against own stream may drop a few
    assert overlap >= 8


def test_no_shared_seed_means_near_zero_overlap():
    a = generate_library(30, seed=1, name="A")
    b = generate_library(30, seed=2, name="B")
    assert library_overlap(a, b) <= 3


def test_shared_fraction_validation():
    with pytest.raises(ValueError):
        generate_library(10, seed=1, shared_fraction=1.5, shared_seed=1)


def test_fingerprints_cached_and_shaped(lib):
    fps = lib.fingerprints(n_bits=512)
    assert fps.shape == (60, 512)
    assert lib.fingerprints(n_bits=512) is fps  # cached
    fps2 = lib.fingerprints(n_bits=256)
    assert fps2.shape == (60, 256)  # cache rebuilt on width change


def test_descriptors_cached(lib):
    d = lib.descriptors(0)
    assert lib.descriptors(0) is d


def test_druglike_property_distribution(lib):
    """Generated compounds should mostly sit in drug-like property space."""
    mws = [lib.descriptors(i).molecular_weight for i in range(len(lib))]
    assert 80 < np.median(mws) < 500
    violations = [lib.descriptors(i).lipinski_violations() for i in range(len(lib))]
    assert np.mean(violations) < 1.0


def test_shard_roundtrip(tmp_path, lib):
    paths = lib.to_shards(tmp_path, shard_size=25)
    assert len(paths) == 3  # 60 / 25 → 25+25+10
    back = CompoundLibrary.from_shards(paths, name="restored")
    assert back.smiles() == lib.smiles()
    assert [e.compound_id for e in back] == [e.compound_id for e in lib]


def test_shards_are_gzip(tmp_path, lib):
    paths = lib.to_shards(tmp_path, shard_size=30)
    with open(paths[0], "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"  # gzip magic


def test_entry_is_frozen(lib):
    with pytest.raises(AttributeError):
        lib[0].smiles = "C"


def test_stream_library_equals_generate(lib):
    """The streaming contract: shard-by-shard generation draws the same
    RNG sequence as the materialized path, so the entries are identical
    — ids, SMILES, order — whatever the shard size."""
    for shard_size in (7, 25, 60, 100):
        shards = list(stream_library(60, seed=11, name="OZD", shard_size=shard_size))
        assert [len(s) for s in shards[:-1]] == [shard_size] * (len(shards) - 1)
        flat = [e for s in shards for e in s]
        assert flat == lib.entries


def test_stream_library_shared_fraction_matches():
    lib = generate_library(30, seed=3, name="X", shared_fraction=0.3, shared_seed=7)
    flat = [
        e
        for s in stream_library(
            30, seed=3, name="X", shard_size=8, shared_fraction=0.3, shared_seed=7
        )
        for e in s
    ]
    assert flat == lib.entries


def test_write_library_shards_roundtrip(tmp_path, lib):
    paths = write_library_shards(tmp_path, 60, seed=11, name="OZD", shard_size=25)
    assert len(paths) == 3
    assert all(p.name.endswith(".ndjson.gz") for p in paths)
    back = CompoundLibrary.from_shards(paths, name="OZD")
    assert back.entries == lib.entries

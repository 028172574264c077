"""Fused multi-ligand docking: bit-equivalence with the per-ligand oracle.

The contract under test is the hard one from the batch module: docking a
compound through the fused shard LGA must produce *bit-identical* poses,
scores, eval counts and histories to the per-ligand reference LGA in
``tests/docking/oracle.py``, for any shard composition or ordering.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.docking.engine as engine_mod
from repro.chem.library import generate_library
from repro.chem.smiles import parse_smiles
from repro.docking.batch import _partition_by_size, dock_shard
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.ligand import prepare_ligand
from repro.docking.receptor import make_receptor
from repro.rct.backends import ThreadExecutor
from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec
from repro.util.rng import rng_stream
from tests.docking import oracle

receptor = make_receptor("3CLPro")
library = generate_library(10, seed=23)
# a small LGA keeps each docking ~10x cheaper than the defaults while
# still exercising init, selection, crossover, mutation and local search
small = LGAConfig(population=8, generations=3, local_search_rate=0.3)


def _engine(local_search: str = "adadelta") -> DockingEngine:
    return DockingEngine(
        receptor, seed=5, config=small, local_search=local_search
    )


def _assert_bitwise_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.compound_id == rb.compound_id
        assert ra.score == rb.score
        assert ra.n_evals == rb.n_evals
        assert ra.conformer == rb.conformer
        assert ra.pose_translation == rb.pose_translation
        assert ra.pose_quaternion == rb.pose_quaternion
        assert ra.torsion_angles == rb.torsion_angles


@functools.cache
def _oracle_library(local_search: str = "adadelta"):
    """The library docked one ligand at a time by the reference LGA."""
    with pytest.MonkeyPatch.context() as mp:
        oracle.install(mp)
        eng = _engine(local_search)
        return eng, eng.dock_library(library)


@pytest.mark.parametrize("local_search", ["adadelta", "solis-wets"])
def test_batched_matches_sequential_bitwise(local_search):
    _, seq = _oracle_library(local_search)
    entries = [(e.smiles, e.compound_id) for e in library]
    for cut in (1, 3, len(entries)):
        eng = _engine(local_search)
        fused = [
            r
            for start in range(0, len(entries), cut)
            for r in eng.dock_entries(entries[start : start + cut])
        ]
        _assert_bitwise_equal(seq, fused)
    backward = _engine(local_search).dock_entries(entries[::-1])
    _assert_bitwise_equal(seq, backward[::-1])


@pytest.mark.parametrize("local_search", ["adadelta", "solis-wets"])
def test_runs_match_oracle_bitwise_including_history(local_search):
    """``DockingRun`` level: torsions as arrays and the per-generation
    ``history``, which ``DockingResult`` does not carry."""
    eng = _engine(local_search)
    beads = [eng._prepared(e.smiles, e.compound_id) for e in library]
    streams = lambda: [rng_stream(9, f"t/batch/run/{e.compound_id}") for e in library]
    ref = oracle.dock_shard(receptor, beads, streams(), small, local_search)
    for order in (slice(None), slice(None, None, -1)):
        got = dock_shard(
            receptor, beads[order], streams()[order], small, local_search
        )[order]
        for a, b in zip(ref, got):
            assert (a.best_score, a.n_evals, a.history) == (b.best_score, b.n_evals, b.history)
            assert a.best_pose.conformer == b.best_pose.conformer
            assert np.array_equal(a.best_pose.translation, b.best_pose.translation)
            assert np.array_equal(a.best_pose.quaternion, b.best_pose.quaternion)
            if a.best_pose.torsion_angles is None:
                assert b.best_pose.torsion_angles is None
            else:
                assert np.array_equal(a.best_pose.torsion_angles, b.best_pose.torsion_angles)


def test_batched_independent_of_shard_order():
    entries = [(e.smiles, e.compound_id) for e in library]
    forward = _engine().dock_entries(entries)
    backward = _engine().dock_entries(entries[::-1])
    _assert_bitwise_equal(forward, backward[::-1])


def test_batched_member_matches_dock_smiles():
    fused = _engine().dock_library(library)
    entry = library[3]
    solo = _engine().dock_smiles(entry.smiles, entry.compound_id)
    _assert_bitwise_equal([solo], [fused[3]])


def test_counters_match_across_paths():
    eng_seq, _ = _oracle_library()
    eng_fused = _engine()
    eng_fused.dock_library(library)
    assert eng_fused.total_evals == eng_seq.total_evals
    assert eng_fused.total_ligands == eng_seq.total_ligands == len(library)


def test_prep_cache_parses_each_compound_once(monkeypatch):
    calls: list[str] = []
    real_parse = engine_mod.parse_smiles

    def counting_parse(smiles):
        calls.append(smiles)
        return real_parse(smiles)

    monkeypatch.setattr(engine_mod, "parse_smiles", counting_parse)
    eng = _engine()
    results = eng.dock_library(library)
    for r in results:  # pose reconstruction reuses the cached prep
        eng.pose_coordinates(r)
    for e in library:  # and so does docking a compound again, alone
        eng.dock_smiles(e.smiles, e.compound_id)
    assert sorted(calls) == sorted(e.smiles for e in library)


def test_raptor_shards_match_dock_library():
    # RAPTOR-style screening: dock_entries shards as concurrent pilot tasks
    plain = _engine().dock_library(library)
    eng = _engine()
    entries = [(e.smiles, e.compound_id) for e in library]
    shards = [entries[i : i + 3] for i in range(0, len(entries), 3)]
    tasks = [TaskSpec(fn=eng.dock_entries, args=(shard,)) for shard in shards]
    order = {t.uid: i for i, t in enumerate(tasks)}
    with ThreadExecutor(max_workers=2) as ex:
        pilot = Pilot(Cluster(1, NodeSpec(cpus=2, gpus=0)).allocate(1, 0.0), ex)
        records = pilot.run(tasks)
    assert pilot.failures.n_failures == 0
    by_shard = sorted(records, key=lambda r: order[r.spec.uid])
    docked = [result for r in by_shard for result in r.result]
    _assert_bitwise_equal(plain, docked)
    # workers never touch the counters: the caller charges them once
    assert eng.total_evals == 0
    eng._account(docked)
    assert eng.total_evals == sum(r.n_evals for r in plain)
    assert eng.total_ligands == len(library)


def test_dock_shard_validates_rng_count():
    beads = [
        prepare_ligand(parse_smiles("CCO"), rng_stream(0, "t/batch/a")),
        prepare_ligand(parse_smiles("CCN"), rng_stream(0, "t/batch/b")),
    ]
    with pytest.raises(ValueError, match="one RNG stream per ligand"):
        dock_shard(receptor, beads, [rng_stream(0, "t/batch/c")])


def test_dock_shard_rejects_unknown_local_search():
    beads = [prepare_ligand(parse_smiles("CCO"), rng_stream(0, "t/batch/d"))]
    with pytest.raises(ValueError, match="unknown local search"):
        dock_shard(
            receptor, beads, [rng_stream(0, "t/batch/e")], local_search="bfgs"
        )


def test_dock_shard_empty_is_empty():
    assert dock_shard(receptor, [], []) == []


def test_partition_covers_every_ligand_once():
    beads = [
        prepare_ligand(
            parse_smiles(e.smiles), rng_stream(1, f"t/batch/part/{i}")
        )
        for i, e in enumerate(generate_library(17, seed=41))
    ]
    buckets = _partition_by_size(beads)
    seen = sorted(i for bucket in buckets for i in bucket)
    assert seen == list(range(len(beads)))
    # buckets are torsion-homogeneous up to the small-bucket merge rule,
    # so within a bucket torsion counts may only grow
    for bucket in buckets:
        torsions = [beads[i].n_torsions for i in bucket]
        assert torsions == sorted(torsions)


def test_n_evals_identical_per_ligand():
    _, seq = _oracle_library()
    fused = _engine().dock_library(library)
    assert [r.n_evals for r in fused] == [r.n_evals for r in seq]
    assert all(r.n_evals > 0 for r in fused)

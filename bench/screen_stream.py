"""``screen_stream``: the streamed, checkpointed ML1 -> S1 screen (§6.1.1).

The mirror of ``campaign_loop``: ML1 (depict + featurize + compiled
inference) is >= 80 % of the cold wall and ``md``/``esmacs`` do nothing.
The cold pass writes checkpoints and artifacts; the resumed pass only
reads them, so a gain for one that costs the other shows.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from pathlib import Path

import numpy as np

import workloads
from harness import (
    OVERHEAD, Outcome, check, median, peak_rss_mb, run_passes, timed, trace_overhead,
)
from repro.chem import N_CHANNELS, depict, generate_library, parse_smiles
from repro.core.campaign import CampaignConfig
from repro.core.streaming import StreamedScreenResult, run_streamed_screen
from repro.docking import DockingEngine, make_receptor
from repro.nn.dataloader import PrefetchLoader, ShardReader
from repro.nn.inference import compile_model
from repro.surrogate import InferenceEngine, featurize_batch, train_surrogate
from repro.util.checkpoint import CheckpointManifest, load_artifact, save_artifact
from repro.util.shardio import read_shard, shard_path, write_shard

NAME = "screen_stream"
LAYER_METRICS = {
    "core.streaming.ml1_s": "s",
    "core.streaming.s1_s": "s",
    "core.streaming.ml1_records_per_s": "1/s",
    "core.streaming.s1_ligands_per_s": "1/s",
    "core.streaming.resume_s": "s",
    "core.streaming.shards_resumed": "count",
    "chem.smiles.parse_per_s": "1/s",
    "chem.depict.images_per_s": "1/s",
    "surrogate.featurize.samples_per_s": "1/s",
    "surrogate.infer.samples_per_s": "1/s",
    "nn.graph.forward_samples_per_s": "1/s",
    "nn.graph.compile_s": "s",
    "nn.dataloader.records_per_s": "1/s",
    "docking.batch.ligands_per_s": "1/s",
    "util.shardio.write_records_per_s": "1/s",
    "util.shardio.read_records_per_s": "1/s",
    "util.checkpoint.mark_done_ms_p50": "ms",
    "util.checkpoint.artifact_write_ms": "ms",
    "util.checkpoint.artifact_read_ms": "ms",
}


def setup(workdir: Path, seed: int, sizes: dict):
    """Shards on disk, receptor + engine, and the bootstrap surrogate."""
    s = sizes["screen"]
    shutil.rmtree(workdir / "shards", ignore_errors=True)
    paths = workloads.shard_set(workdir / "shards", seed, sizes)
    receptor = make_receptor("PLPro")
    boot = generate_library(s["boot_size"], seed=seed + 1, name="boot")
    scores = np.array([r.score for r in docking_engine(receptor, seed).dock_library(boot)])
    surrogate = train_surrogate(boot.smiles(), scores, s["boot_train"], seed=seed)
    return paths, receptor, surrogate


def docking_engine(receptor, seed: int) -> DockingEngine:
    return DockingEngine(receptor, seed=seed, config=CampaignConfig().docking)


def screen(inputs, seed: int, ckpt: Path, sizes: dict, on_shard=None) -> StreamedScreenResult:
    paths, receptor, surrogate = inputs
    s = sizes["screen"]
    # a fresh engine per call: its ligand-prep cache would make every cold
    # pass after the first do less work
    return run_streamed_screen(
        docking_engine(receptor, seed), surrogate, paths,
        keep_top=s["keep_top"], checkpoint_dir=ckpt,
        dock_shard_size=s["dock_shard_size"], batch_size=s["batch_size"],
        on_shard=on_shard,
    )


def digest(result: StreamedScreenResult) -> str:
    h = hashlib.sha256()
    for item in result.selected:
        h.update(f"{item.compound_id}:{item.score!r};".encode())
    for dock in result.docked:
        h.update(f"{dock.compound_id}:{dock.score!r};".encode())
    return h.hexdigest()[:16]


def run(seed: int, seconds: float, rec, sizes: dict) -> Outcome:
    # scratch space stays inside the checkout, and is gone when the run ends
    workdir = Path(__file__).resolve().parent / "out" / f"tmp-{NAME}-{os.getpid()}"
    try:
        return _run(workdir, seed, seconds, rec, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir: Path, seed: int, seconds: float, rec, sizes: dict) -> Outcome:
    s = sizes["screen"]
    n_records = s["shards"] * s["records"]
    setups, inputs = [], None
    # set-up is only reported by the untraced run
    for _ in range(3 if rec is None else 1):
        del inputs  # or two surrogates and their training arenas overlap
        gc.collect()
        dt, inputs = timed(setup, workdir, seed, sizes)
        setups.append(dt)

    ckpt = workdir / "ckpt"

    def one_pass(recorder) -> dict:
        if recorder is None:
            wall, cold = timed(screen, inputs, seed, ckpt, sizes)
            resumed = screen(inputs, seed, ckpt, sizes)
        else:
            def on_shard(stage: str, shard_id: str) -> None:
                # a shard's span runs from the previous shard's end to its own
                now = time.perf_counter()
                recorder.add(stage, "core.streaming", mark[0], now)
                mark[0] = now

            with recorder.span("run_streamed_screen", "core.streaming") as root:
                mark = [root["start"]]
                cold = screen(inputs, seed, ckpt, sizes, on_shard)
            wall = recorder.duration(root)
            with recorder.span("resume", "core.streaming"):
                resumed = screen(inputs, seed, ckpt, sizes)
        # the resumed pass over the finished checkpoint must replay it exactly
        check(resumed.selected == cold.selected, "resumed ML1 selection differs")
        check(resumed.docked == cold.docked, "resumed docked poses differ")
        check(resumed.shards_resumed == resumed.shards_total == s["shards"],
              f"resumed {resumed.shards_resumed}/{resumed.shards_total} ML1 shards")
        check(resumed.dock_shards_resumed == resumed.dock_shards_total,
              "resumed pass redocked a shard")
        shutil.rmtree(ckpt)
        return dict(wall=wall, digest=digest(cold), cold=cold, resumed=resumed)

    plain, traced = run_passes(one_pass, seconds, 1, rec)
    digests = {p["digest"] for p in plain + traced}
    check(len(digests) == 1, f"digest differs between passes: {sorted(digests)}")

    cold = plain[-1]["cold"]
    failed = (n_records - cold.records_streamed) + (s["keep_top"] - len(cold.docked))
    wall = median(p["wall"] for p in plain)
    out = Outcome(
        attempted=n_records,
        failed=failed,
        e2e={
            "setup_s": median(setups),
            "makespan_s": wall,
            "ops_per_s": cold.records_streamed / wall,
            "peak_rss_mb": peak_rss_mb(),
        },
        info={"digest": digests.pop(), "docked": len(cold.docked),
              "pass_walls": [p["wall"] for p in plain + traced]},
    )
    if rec is not None:
        ml1_s = rec.total("core.streaming", "ml1") / len(traced)
        s1_s = rec.total("core.streaming", "s1") / len(traced)
        layers = {
            "core.streaming.ml1_s": ml1_s,
            "core.streaming.s1_s": s1_s,
            "core.streaming.ml1_records_per_s": cold.records_streamed / ml1_s,
            "core.streaming.s1_ligands_per_s": len(cold.docked) / s1_s,
            "core.streaming.resume_s": rec.total("core.streaming", "resume") / len(traced),
            "core.streaming.shards_resumed": traced[-1]["resumed"].shards_resumed,
            OVERHEAD: trace_overhead(plain, traced),
        }
        out.info["share_ml1"] = ml1_s / median(p["wall"] for p in traced)
        layers.update(probes(inputs, workdir, rec, sizes))
        out.layers = layers
    return out


def probes(inputs, workdir: Path, rec, sizes: dict) -> dict[str, float]:
    """ML1/S1/IO layers, on records read back from this run's shards."""
    paths, receptor, surrogate = inputs
    s, p = sizes["screen"], sizes["probe"]
    m: dict[str, float] = {}

    with rec.span("read_shard", "util") as sp:
        records = read_shard(paths[0])
    m["util.shardio.read_records_per_s"] = len(records) / rec.duration(sp)
    with rec.span("write_shard", "util") as sp:
        write_shard(shard_path(workdir / "probe", "probe", 0), records)
    m["util.shardio.write_records_per_s"] = len(records) / rec.duration(sp)

    smiles = [smi for _, smi in records][: p["batch"]]
    with rec.span("parse_smiles", "chem") as sp:
        mols = [parse_smiles(smi) for smi in smiles]
    m["chem.smiles.parse_per_s"] = len(mols) / rec.duration(sp)
    size = surrogate.image_size
    with rec.span("depict", "chem") as sp:
        for mol in mols:
            depict(mol, size=size)
    m["chem.depict.images_per_s"] = len(mols) / rec.duration(sp)
    with rec.span("featurize_batch", "surrogate") as sp:
        feats = featurize_batch(smiles, size=size)
    m["surrogate.featurize.samples_per_s"] = len(smiles) / rec.duration(sp)

    # the graph is traced, optimized and arena-planned on first use: charge
    # construction plus what the first batch costs beyond a warm one
    zeros = np.zeros((s["batch_size"], N_CHANNELS, size, size), dtype=np.float32)
    with rec.span("compile", "nn.graph") as sp:
        inference = InferenceEngine(surrogate, batch_size=s["batch_size"])
        inference.compiled(zeros)
    warm_s, _ = timed(inference.compiled, zeros)
    m["nn.graph.compile_s"] = rec.duration(sp) - warm_s
    with rec.span("score_smiles", "surrogate") as sp:
        inference.score_smiles(smiles)
    m["surrogate.infer.samples_per_s"] = len(smiles) / rec.duration(sp)

    compiled = compile_model(surrogate.model)
    batches = [feats[i : i + s["batch_size"]]
               for i in range(0, len(feats) - s["batch_size"] + 1, s["batch_size"])]
    compiled(batches[0])  # bind the arena plan before timing
    with rec.span("forward", "nn.graph") as sp:
        for batch in batches:
            compiled(batch)
    m["nn.graph.forward_samples_per_s"] = (
        len(batches) * s["batch_size"] / rec.duration(sp)
    )

    with rec.span("prefetch", "nn.dataloader") as sp:
        n = sum(len(b) for b in PrefetchLoader(ShardReader(paths), s["batch_size"]))
    m["nn.dataloader.records_per_s"] = n / rec.duration(sp)

    engine = docking_engine(receptor, seed=1)
    entries = [(smi, cid) for cid, smi in records[: s["dock_shard_size"]]]
    with rec.span("dock_entries", "docking") as sp:
        engine.dock_entries(entries)
    m["docking.batch.ligands_per_s"] = len(entries) / rec.duration(sp)

    manifest = CheckpointManifest(workdir / "probe" / "manifest.jsonl")
    marks = []
    with rec.span("mark_done", "util"):
        for i in range(p["marks"]):
            marks.append(timed(manifest.mark_done, f"shard-{i}", n=i)[0])
    m["util.checkpoint.mark_done_ms_p50"] = median(marks) * 1e3
    rows = [{"id": cid, "smiles": smi, "score": i / 7.0}
            for i, (cid, smi) in enumerate(records)]
    artifact = workdir / "probe" / "rows.jsonl.gz"
    with rec.span("save_artifact", "util") as sp:
        save_artifact(artifact, rows)
    m["util.checkpoint.artifact_write_ms"] = rec.duration(sp) * 1e3
    with rec.span("load_artifact", "util") as sp:
        load_artifact(artifact)
    m["util.checkpoint.artifact_read_ms"] = rec.duration(sp) * 1e3
    return m

"""Seeded input generators and sizes for the four workloads.

Everything the program sees is built here from ``--seed``; nothing is
taken from ``benchmarks/`` or ``repro.rct.shootout``, so the instrument
survives their deletion.  ``FULL`` sizes are the issue's shapes scaled to
the driver's time cap (92 runs in 3420 s, README "Sizes"); ``SMOKE`` is
about 1/20 of that for CI.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.chem import write_library_shards
from repro.core.campaign import CampaignConfig
from repro.esmacs import EsmacsConfig
from repro.rct.cluster import SUMMIT_NODE
from repro.rct.task import TaskSpec
from repro.service.tenant import Tenant
from repro.service.work import SyntheticWork
from repro.surrogate import TrainConfig

__all__ = [
    "FULL",
    "RETRY_TIMEOUT",
    "SMOKE",
    "WEIGHTS",
    "burn",
    "campaign_config",
    "gpu_flood",
    "mixed_tasks",
    "shard_set",
    "tenant_work",
]

FULL = {
    "campaign": dict(
        library_size=48, seed_train_size=12, cg_compounds=4, s2_top_compounds=3
    ),
    "screen": dict(
        shards=8, records=256, keep_top=32, dock_shard_size=16, batch_size=64,
        boot_size=24, boot_train=TrainConfig(epochs=8, batch_size=24, width=8),
    ),
    "pilot": dict(n_tasks=64_000, n_nodes=160, warmup_tasks=6_400, min_passes=3),
    "service": dict(n_nodes=16, n_units=4, tasks_per_unit=5_000, min_passes=3),
    "probe": dict(
        batch=256, train_pairs=48, dock=8, real_tasks=1_000, flood=20_000,
        marks=30,
    ),
}

_SMOKE_MD = dict(
    equilibration_ns=1.0, production_ns=4.0, steps_per_ns=5, n_residues=60,
    record_every=2, minimize_iterations=8,
)
SMOKE = {
    "campaign": dict(
        library_size=20, seed_train_size=6, cg_compounds=2, s2_top_compounds=1,
        surrogate=TrainConfig(epochs=2, batch_size=8, width=4),
        cg=EsmacsConfig(replicas=2, **_SMOKE_MD),
        fg=EsmacsConfig(replicas=3, **_SMOKE_MD),
    ),
    "screen": dict(
        shards=2, records=40, keep_top=8, dock_shard_size=4, batch_size=16,
        boot_size=8, boot_train=TrainConfig(epochs=2, batch_size=8, width=4),
    ),
    "pilot": dict(n_tasks=3_200, n_nodes=16, warmup_tasks=320, min_passes=3),
    "service": dict(n_nodes=16, n_units=4, tasks_per_unit=250, min_passes=3),
    "probe": dict(
        batch=16, train_pairs=8, dock=2, real_tasks=50, flood=1_000, marks=30,
    ),
}

WEIGHTS = {"gold": 4, "silver": 2, "bronze": 1}

#: half the issue's 600 s: the last hang-then-timeout chains set the end of
#: the run, and a shorter one keeps that luck a small share of the makespan
RETRY_TIMEOUT = 300.0
#: x4 for the multi-node shape stays under the timeout; an attempt that
#: cannot finish un-straggled would be a guaranteed failed operation
_MAX_DURATION = 70.0


def campaign_config(seed: int, sizes: dict) -> CampaignConfig:
    """One Fig 1 iteration with default stage configs, oracle pass off."""
    return CampaignConfig(
        iterations=1,
        s2_outliers_per_compound=1,
        compute_enrichment=False,
        failure_policy="drop_and_continue",
        seed=seed,
        **sizes["campaign"],
    )


def shard_set(directory: Path, seed: int, sizes: dict) -> list[Path]:
    """The on-disk NDJSON library the screen streams."""
    s = sizes["screen"]
    return write_library_shards(
        directory, s["shards"] * s["records"], seed=seed, shard_size=s["records"]
    )


def mixed_tasks(n: int, seed: int) -> list[TaskSpec]:
    """Mixed-shape flood: 1-GPU, 3-GPU, CPU-only and 2-4-node tasks.

    Shapes 55/15/25/5 %, lognormal durations (the tail is what placement
    has to absorb).  Uids are the list index, so fault draws — keyed on
    ``(seed, uid, attempt)`` — depend on nothing but the seed.
    """
    rng = np.random.default_rng([seed, 0x7A5C])
    kind = rng.random(n)
    duration = np.minimum(rng.lognormal(mean=3.0, sigma=0.6, size=n), _MAX_DURATION)
    span = rng.integers(2, 5, size=n)
    node = SUMMIT_NODE
    tasks = []
    for i in range(n):
        k, d = kind[i], float(duration[i])
        if k < 0.55:
            shape = dict(cpus=1, gpus=1, duration=d, stage="S1")
        elif k < 0.70:
            shape = dict(cpus=3, gpus=3, duration=2.0 * d, stage="S2")
        elif k < 0.95:
            shape = dict(cpus=7, gpus=0, duration=d, stage="ML1")
        else:
            shape = dict(
                cpus=node.cpus, gpus=node.gpus, nodes=int(span[i]),
                duration=4.0 * d, stage="S3-CG",
            )
        tasks.append(TaskSpec(name=f"t{i}", uid=i, **shape))
    return tasks


def gpu_flood(n: int) -> list[TaskSpec]:
    """Uniform short 1-GPU tasks: the scheduler with nothing to decide."""
    return [
        TaskSpec(
            name=f"g{i}", uid=i, cpus=1, gpus=1,
            duration=10.0 + (i * 7919) % 100 / 10.0, stage="S1",
        )
        for i in range(n)
    ]


def tenant_work(seed: int, sizes: dict) -> list[tuple[Tenant, SyntheticWork]]:
    """Three tenants, weights 4:2:1, equally sized saturating workloads.

    Task length is 60 s +-3 %, drawn per tenant from the seed, so the
    virtual makespan is an input-dependent number and not a constant.
    """
    s = sizes["service"]
    jitter = np.random.default_rng([seed, 0x5E4]).uniform(-0.03, 0.03, len(WEIGHTS))
    return [
        (
            Tenant(name=name, weight=weight),
            SyntheticWork(
                n_units=s["n_units"], tasks_per_unit=s["tasks_per_unit"],
                duration=60.0 * (1.0 + float(jitter[i])), gpus=1, seed=seed + i,
            ),
        )
        for i, (name, weight) in enumerate(WEIGHTS.items())
    ]


def burn(n: int) -> int:
    """CPU-bound payload for the thread/process backends (picklable)."""
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return acc

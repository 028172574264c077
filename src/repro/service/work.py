"""Work sources: what a submission actually runs.

The service schedules *simulated cost* (TaskSpecs on the shared pilot's
virtual clock) and executes *science* (real Python) when that cost has
been paid — the same split the single-campaign simulators use, lifted
to per-unit granularity so many tenants can interleave.

A :class:`WorkSource` decomposes into an ordered stream of
:class:`WorkUnit`\\ s.  Each unit carries the TaskSpecs representing its
Summit-scale cost (shapes and durations from
:class:`~repro.core.costs.CostModel`) plus a ``science`` callback the
manager runs once every task of the unit has completed.  Units are
built lazily — the next unit may depend on the previous unit's science
(ML1 selection size fixes S1's task count) — which is exactly the
contract :meth:`repro.core.campaign.ImpeccableCampaign.iter_units`
provides.

Determinism: every TaskSpec uid comes from the submission's own
namespace (:class:`WorkContext`), and all science randomness flows from
the submission's own seed through :mod:`repro.util.rng` streams.
Nothing depends on arrival order or on what other tenants run, so a
tenant's results are bit-identical to running its campaign alone — the
isolation half of the service's determinism contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Protocol

from repro.core.campaign import CampaignConfig, CampaignResult, ImpeccableCampaign
from repro.core.costs import CostModel
from repro.rct.task import TaskSpec
from repro.telemetry import NULL_TRACER
from repro.util.checkpoint import CheckpointManifest
from repro.util.rng import rng_stream

__all__ = [
    "WorkContext",
    "WorkUnit",
    "WorkSource",
    "SyntheticWork",
    "CampaignWork",
    "campaign_result_digest",
]


@dataclass(frozen=True)
class WorkContext:
    """What the manager hands a work source when it starts iterating.

    ``next_uid`` draws from the submission's private uid namespace —
    derived from the tenant/submission names, not from the process-wide
    counter — so uids (and therefore fault draws, keyed on
    ``(seed, uid, attempt)``) are invariant to arrival interleaving.
    """

    tenant: str
    submission: str
    next_uid: Callable[[], int]


@dataclass
class WorkUnit:
    """One schedulable slice of a submission.

    ``tasks`` may be empty (a unit whose cost was already paid — e.g. a
    checkpointed stage being fast-forwarded on resume); the manager then
    runs ``science`` immediately without touching the pilot.
    """

    unit_id: str
    tasks: list[TaskSpec] = field(default_factory=list)
    science: Callable[[], None] | None = None

    def run_science(self) -> None:
        """Execute the unit's science callback (no-op when absent)."""
        if self.science is not None:
            self.science()


class WorkSource(Protocol):
    """Protocol every submission payload implements."""

    def units(self, ctx: WorkContext) -> Iterator[WorkUnit]:
        """Lazily yield work units in execution order."""
        ...

    def result(self) -> object:
        """The science output (valid once all units completed)."""
        ...

    def result_digest(self) -> str:
        """Stable hash of the deterministic observables of the result."""
        ...


# --------------------------------------------------------------- synthetic
class SyntheticWork:
    """A cheap deterministic workload for benchmarks and scheduler tests.

    ``n_units`` units of ``tasks_per_unit`` simulated tasks each; the
    science of unit ``i`` appends one value drawn from the submission's
    own rng stream.  The result digest covers every value, so two runs
    agree iff the science executed identically.
    """

    def __init__(
        self,
        n_units: int = 4,
        tasks_per_unit: int = 4,
        duration: float = 30.0,
        cpus: int = 1,
        gpus: int = 1,
        nodes: int = 1,
        seed: int = 0,
        stage: str = "synthetic",
    ) -> None:
        if n_units < 1 or tasks_per_unit < 0:
            raise ValueError("n_units must be >= 1, tasks_per_unit >= 0")
        self.n_units = n_units
        self.tasks_per_unit = tasks_per_unit
        self.duration = duration
        self.cpus = cpus
        self.gpus = gpus
        self.nodes = nodes
        self.seed = seed
        self.stage = stage
        self.values: list[float] = []

    def units(self, ctx: WorkContext) -> Iterator[WorkUnit]:
        """Yield ``n_units`` fixed-shape units with seeded science."""
        for i in range(self.n_units):
            tasks = [
                TaskSpec(
                    name=f"{ctx.submission}-u{i}t{j}",
                    cpus=self.cpus,
                    gpus=self.gpus,
                    nodes=self.nodes,
                    duration=self.duration,
                    stage=self.stage,
                    tenant=ctx.tenant,
                    uid=ctx.next_uid(),
                )
                for j in range(self.tasks_per_unit)
            ]

            def science(i=i) -> None:
                rng = rng_stream(self.seed, f"synthetic/unit/{i}")
                self.values.append(float(rng.random()))

            yield WorkUnit(unit_id=f"u{i}", tasks=tasks, science=science)

    def result(self) -> list[float]:
        """The per-unit science values, in unit order."""
        return list(self.values)

    def result_digest(self) -> str:
        """sha256 over the exact float reprs of every science value."""
        digest = hashlib.sha256()
        for v in self.values:
            digest.update(repr(v).encode())
            digest.update(b"\x1e")
        return digest.hexdigest()[:16]


# ---------------------------------------------------------------- campaign
def campaign_result_digest(result: CampaignResult) -> str:
    """Stable hash of a campaign's deterministic observables.

    Mirrors the fingerprint the determinism tests use: docked scores,
    per-iteration docking/CG/FG outputs and stage ligand counts — and
    excludes wall-clock fields, the only sanctioned run-to-run
    difference.  Two runs of the same config+seed — solo or on a
    contended shared pilot — must produce the same digest.
    """
    out: dict = {
        "docked_scores": result.docked_scores,
        "n_dropped": result.failure_summary.n_dropped,
        "iterations": [],
    }
    for it in result.iterations:
        out["iterations"].append(
            {
                "docked": [(d.compound_id, d.score, d.conformer) for d in it.docked],
                "cg": [
                    (r.compound_id, r.binding_free_energy, r.sem, list(r.replica_dgs))
                    for r in it.cg_results
                ],
                "fg": [
                    (r.compound_id, r.binding_free_energy, r.sem, list(r.replica_dgs))
                    for r in it.fg_results
                ],
                "fg_parents": list(it.fg_parents),
                "effective_ligands": it.metrics.effective_ligands,
                "stage_ligands": {
                    name: s.n_ligands for name, s in it.metrics.stages.items()
                },
            }
        )
    blob = json.dumps(out, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class CampaignWork:
    """An IMPECCABLE campaign as a service workload.

    Wraps :meth:`~repro.core.campaign.ImpeccableCampaign.iter_units` and
    prices each stage unit with the Summit cost model's task builders:
    docking stages become single-GPU bundles, ESMACS stages one
    (multi-node) ensemble task per compound, S2 one DeepDriveMD task per
    structure group, ML1 a node-scale inference sweep, retraining a
    single-GPU job.

    With a ``workdir``, completed units are durably recorded in a
    :class:`~repro.util.checkpoint.CheckpointManifest`; a re-submitted
    campaign (after a cancel or crash) fast-forwards those units —
    their science replays deterministically at zero simulated cost, so
    the resumed run consumes no shared node-seconds for work already
    paid for, and the final result is bit-identical to an uninterrupted
    run.  The manifest records a config+seed fingerprint and refuses to
    resume a stale directory onto a different campaign.
    """

    #: ligands per single-GPU docking bundle (RAPTOR worker granularity)
    DOCK_BUNDLE = 8

    def __init__(
        self,
        config: CampaignConfig,
        workdir: str | Path | None = None,
        cost: CostModel | None = None,
    ) -> None:
        self.config = config
        self.cost = cost or CostModel()
        self.workdir = Path(workdir) if workdir is not None else None
        # science runs untraced: the service's trace is the pilot's
        # task/backoff stream; campaign-internal spans would interleave
        # across tenants and tie the export to scheduling order
        self.campaign = ImpeccableCampaign(config, tracer=NULL_TRACER)
        self._manifest: CheckpointManifest | None = None
        if self.workdir is not None:
            self._manifest = CheckpointManifest(self.workdir / "service_units.jsonl")
            self._guard_fingerprint()

    def _config_fingerprint(self) -> str:
        """Config+seed identity a checkpoint directory is bound to."""
        return hashlib.sha256(repr(self.config).encode()).hexdigest()[:16]

    def _guard_fingerprint(self) -> None:
        assert self._manifest is not None
        fp = self._config_fingerprint()
        if self._manifest.is_done("__config__"):
            recorded = self._manifest.payload("__config__").get("fingerprint")
            if recorded != fp:
                raise ValueError(
                    f"checkpoint directory {self.workdir} belongs to a "
                    f"different campaign (fingerprint {recorded} != {fp}); "
                    "refusing to graft stale units onto this run"
                )
        else:
            self._manifest.mark_done("__config__", fingerprint=fp)

    # ------------------------------------------------------------- pricing
    def _tasks_for(self, stage: str, n_items: int, ctx: WorkContext) -> list[TaskSpec]:
        """Simulated TaskSpecs for one stage unit, shaped by the cost model.

        Uids come from the submission's namespace (never the process
        counter), so interleaving with other tenants can't perturb the
        fault draws keyed on them.
        """
        cost = self.cost

        def ident(suffix: str) -> dict:
            return {
                "name": f"{ctx.submission}-{suffix}",
                "tenant": ctx.tenant,
                "uid": ctx.next_uid(),
            }

        if stage in ("seed", "S1"):
            bundles = range(0, n_items, self.DOCK_BUNDLE)
            return [
                cost.docking_task(
                    min(self.DOCK_BUNDLE, n_items - start),
                    **ident(f"{stage.lower()}-dock{j}"),
                )
                for j, start in enumerate(bundles)
            ]
        if stage == "ML1":
            if n_items == 0:
                return []
            return [cost.ml1_task(n_items, cost.node.gpus, **ident("ml1"))]
        if stage in ("S3-CG", "S3-FG"):
            cg = stage == "S3-CG"
            config, tag = (self.config.cg, "cg") if cg else (self.config.fg, "fg")
            return [
                cost.esmacs_task(config, str(i), stage, **ident(f"{tag}{i}"))
                for i in range(n_items)
            ]
        if stage == "S2":
            return [cost.s2_task(str(i), **ident(f"s2-{i}")) for i in range(n_items)]
        if stage == "retrain":
            return [
                TaskSpec(
                    cpus=1,
                    gpus=1,
                    duration=cost.ml1_wall_seconds(len(self.campaign.library)),
                    stage="retrain",
                    **ident("retrain"),
                )
            ]
        raise ValueError(f"unknown stage {stage!r}")  # pragma: no cover

    # -------------------------------------------------------------- units
    def units(self, ctx: WorkContext) -> Iterator[WorkUnit]:
        """Yield priced stage units; fast-forward checkpointed ones."""
        for su in self.campaign.iter_units():
            if self._manifest is not None and self._manifest.is_done(su.unit_id):
                # already paid for by an earlier run: replay the science
                # (cheap, deterministic) without consuming any shared
                # node-seconds, exactly the streaming-resume contract
                su.complete()
                continue
            tasks = self._tasks_for(su.stage, su.n_items, ctx)

            def science(su=su) -> None:
                su.complete()
                if self._manifest is not None:
                    self._manifest.mark_done(su.unit_id, stage=su.stage)

            yield WorkUnit(unit_id=su.unit_id, tasks=tasks, science=science)

    def result(self) -> CampaignResult | None:
        """The campaign result (``None`` until the last unit completed)."""
        return self.campaign.result

    def result_digest(self) -> str:
        """Digest of the campaign's deterministic observables."""
        result = self.campaign.result
        if result is None:
            raise RuntimeError("campaign has not finished; no digest yet")
        return campaign_result_digest(result)

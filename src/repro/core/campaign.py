"""The IMPECCABLE campaign: ML1 → S1 → S3-CG → S2 → S3-FG, iterated.

This is the paper's Fig 1 loop as executable code.  Each iteration:

1. **ML1** — the surrogate ranks the not-yet-docked library; the top
   fraction (plus an exploration quota from lower ranks, §7.1.1's
   "15–20% of compounds from the RES") is passed on;
2. **S1** — selected compounds are docked; scores join the training set;
3. **S3-CG** — the structurally most diverse of the best docked
   compounds (§7.1.2) get coarse ensemble free energies;
4. **S2** — the 3D-AAE + LOF filter picks outlier conformations of the
   best CG binders;
5. **S3-FG** — fine-grained ESMACS refines the selected conformations;
6. the surrogate **retrains** on everything docked so far — the
   upstream feedback that makes the loop an active-learning pipeline.

Scaled-down in size, faithful in structure: every stage is the real
implementation from this package, and every hand-off carries real
structures (docked poses seed CG; S2-selected frames seed FG).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.chem.fingerprint import diversity_pick
from repro.chem.library import CompoundLibrary, generate_library
from repro.chem.smiles import parse_smiles
from repro.core.costs import CostModel
from repro.core.metrics import CampaignMetrics, StageAccounting, enrichment_factor
from repro.core.truth import ReferenceOracle
from repro.ddmd.adaptive import AdaptiveConfig, S2Result, run_s2
from repro.docking.engine import DockingEngine, DockingResult
from repro.docking.lga import LGAConfig
from repro.docking.receptor import Receptor, make_receptor
from repro.esmacs.protocol import (
    EsmacsConfig,
    EsmacsResult,
    assemble,
    install_receptors,
    run_replica,
)
from repro.md.builder import build_lpc
from repro.rct.fault import FAILURE_POLICIES, FailureSummary, TaskFailedError
from repro.rct.pilot import Pilot, resident_pilot, run_in_order
from repro.rct.task import TaskState
from repro.surrogate.infer import InferenceEngine
from repro.surrogate.train import TrainConfig, TrainedSurrogate, train_surrogate
from repro.telemetry import NULL_TRACER, Tracer
from repro.util.blas import BLAS_UNPINNED, pin_blas_threads
from repro.util.config import FrozenConfig, validate_positive, validate_range
from repro.util.log import get_logger
from repro.util.rng import RngFactory
from repro.util.timer import WallClock

_log = get_logger("core.campaign")

#: stage wall-times measure *real* computation (docking, MD, training);
#: the sanctioned wall-clock utility keeps campaign code clock-pure
#: under the clock-purity lint rule
_clock = WallClock()

__all__ = [
    "CampaignConfig",
    "IterationResult",
    "CampaignResult",
    "ImpeccableCampaign",
    "StageUnit",
]


class _ReplicaFailed(Exception):
    """A replica task failed in a worker; ``str()`` is its "Type: message"."""


def _outputs(outcome):
    """One unit's replica outputs from :meth:`_run_ensembles`, or raise
    the failure that replaced them."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome

#: laptop-scale defaults for the heavy stages
_FAST_LGA = LGAConfig(population=14, generations=6)
_FAST_CG = EsmacsConfig(
    replicas=6,
    equilibration_ns=1.0,
    production_ns=4.0,
    steps_per_ns=14,
    n_residues=90,
    record_every=5,
    minimize_iterations=25,
)
_FAST_FG = EsmacsConfig(
    replicas=12,  # paper: 24; halved so examples stay interactive
    equilibration_ns=2.0,
    production_ns=10.0,
    steps_per_ns=14,
    n_residues=90,
    record_every=10,
    minimize_iterations=25,
)


@dataclass(frozen=True)
class CampaignConfig(FrozenConfig):
    """Shape of one campaign."""

    target: str = "PLPro"
    pdb_id: str = "6W9C"
    #: optional extra crystal structures: when non-empty, S1 docks every
    #: compound against each structure and keeps the consensus-best pose
    #: (§7.1.2's multi-structure docking); downstream stages run against
    #: the structure that produced each compound's best pose, and S2
    #: aggregates per structure (the paper trains its AAE per receptor)
    pdb_ids: tuple = ()
    receptor_seed: int = 2021
    library_size: int = 120
    seed_train_size: int = 40  # randomly docked to bootstrap ML1
    iterations: int = 2
    ml1_keep_fraction: float = 0.25  # top predicted fraction docked per iter
    ml1_explore_fraction: float = 0.15  # §7.1.1: sample below the top too
    cg_compounds: int = 6  # diversity-picked for S3-CG per iteration
    s2_top_compounds: int = 3
    s2_outliers_per_compound: int = 3
    docking: LGAConfig = _FAST_LGA
    surrogate: TrainConfig = TrainConfig(epochs=8, batch_size=24, width=8)
    cg: EsmacsConfig = _FAST_CG
    fg: EsmacsConfig = _FAST_FG
    compute_enrichment: bool = True
    #: what a stage-task failure (a raising dock/CG/S2/FG unit) does to the
    #: campaign: "fail_fast" re-raises immediately; "drop_and_continue"
    #: drops the failing unit, records it in the failure summary, and
    #: keeps the iteration going
    failure_policy: str = "fail_fast"
    #: with drop_and_continue, max drops tolerated per stage per iteration
    #: before the campaign gives up (None = unlimited)
    stage_failure_budget: int | None = None
    #: on-disk NDJSON library shards (see repro.util.shardio);
    #: when non-empty the campaign loads its library from these instead
    #: of generating one, which is how a streamed/sharded library (e.g.
    #: written by repro.chem.write_library_shards) feeds the iterative
    #: loop — library_size is ignored in that case
    library_shards: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.stage_failure_budget is not None and self.stage_failure_budget < 0:
            raise ValueError("stage_failure_budget must be non-negative")
        validate_positive("library_size", self.library_size)
        validate_positive("seed_train_size", self.seed_train_size)
        validate_positive("iterations", self.iterations)
        validate_range("ml1_keep_fraction", self.ml1_keep_fraction, 0.0, 1.0)
        validate_range("ml1_explore_fraction", self.ml1_explore_fraction, 0.0, 1.0)
        validate_positive("cg_compounds", self.cg_compounds)
        if self.seed_train_size >= self.library_size:
            raise ValueError("seed_train_size must be below library_size")


@dataclass
class IterationResult:
    """Everything one loop iteration produced."""

    iteration: int
    docked: list[DockingResult]
    cg_results: list[EsmacsResult]
    s2_result: S2Result | None  # the largest structure group's S2
    fg_results: list[EsmacsResult]
    fg_parents: list[str]  # compound id per FG run (aligned with fg_results)
    metrics: CampaignMetrics
    s2_by_structure: dict[str, S2Result] = field(default_factory=dict)


@dataclass
class CampaignResult:
    """Full campaign output."""

    config: CampaignConfig
    library: CompoundLibrary
    iterations: list[IterationResult] = field(default_factory=list)
    surrogate: TrainedSurrogate | None = None
    docked_scores: dict[str, float] = field(default_factory=dict)
    #: ledger of stage-task failures (drops per stage, nothing silent);
    #: empty under fail_fast, which raises instead
    failure_summary: FailureSummary = field(default_factory=FailureSummary)
    #: :data:`~repro.util.blas.BLAS_PINNED`, or ``BLAS_UNPINNED`` when the
    #: floats may depend on the host's BLAS thread count
    blas: str = ""

    def all_fg(self) -> list[EsmacsResult]:
        """Every FG result across iterations."""
        return [r for it in self.iterations for r in it.fg_results]


@dataclass
class StageUnit:
    """One resumable slice of a campaign: a stage of one iteration.

    The campaign decomposes into a strict sequence of units (seed
    bootstrap, then ML1 → S1 → S3-CG → S2 → S3-FG → retrain per
    iteration).  A unit's *size* (``n_items``) is fixed when the unit is
    built — which is only possible once the previous unit has run,
    because stage sizes depend on upstream science (how many compounds
    ML1 selected, how many structures hold CG results).  The science
    itself executes when :meth:`complete` is called, so an external
    driver can schedule the unit's simulated cost on a shared pilot
    first and run the science once the tasks finish.
    """

    stage: str
    iteration: int  # -1 for the pre-loop seed bootstrap
    n_items: int
    _science: Callable[[], None]
    done: bool = False

    @property
    def unit_id(self) -> str:
        """Stable id used for checkpoint manifests (``it0/S1``, ``seed``)."""
        if self.iteration < 0:
            return self.stage
        return f"it{self.iteration}/{self.stage}"

    def complete(self) -> None:
        """Run this unit's science.  Idempotence is the caller's job."""
        if self.done:
            raise RuntimeError(f"stage unit {self.unit_id!r} already completed")
        self._science()
        self.done = True


class ImpeccableCampaign:
    """Drive the integrated loop against one receptor."""

    def __init__(
        self,
        config: CampaignConfig | None = None,
        tracer: Tracer | None = None,
        library: CompoundLibrary | None = None,
    ) -> None:
        self.config = config or CampaignConfig()
        cfg = self.config
        # before any science: one BLAS thread, whatever the launcher set
        self._blas = pin_blas_threads()
        if self._blas == BLAS_UNPINNED:
            _log.warning("%s: the campaign's floats follow the host default",
                         BLAS_UNPINNED)
        #: telemetry sink shared with every engine the campaign drives;
        #: the default no-op tracer keeps untraced runs instrumentation-free
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.factory = RngFactory(cfg.seed, prefix="campaign")
        pdb_ids = tuple(cfg.pdb_ids) or (cfg.pdb_id,)
        if cfg.pdb_id not in pdb_ids:
            pdb_ids = (cfg.pdb_id, *pdb_ids)
        self.receptors: dict[str, Receptor] = {
            pdb: make_receptor(cfg.target, pdb, seed=cfg.receptor_seed)
            for pdb in pdb_ids
        }
        self.receptor: Receptor = self.receptors[cfg.pdb_id]
        if library is not None:
            self.library = library
        elif cfg.library_shards:
            self.library = CompoundLibrary.from_shards(
                list(cfg.library_shards), name="OZD"
            )
        else:
            self.library = generate_library(
                cfg.library_size, seed=self.factory.spawn_seed("library"), name="OZD"
            )
        if len(self.library) <= cfg.seed_train_size:
            raise ValueError(
                "library must hold more compounds than seed_train_size, "
                f"got {len(self.library)} <= {cfg.seed_train_size}"
            )
        self.engines: dict[str, DockingEngine] = {
            pdb: DockingEngine(
                rec, seed=cfg.seed, config=cfg.docking, tracer=self.tracer
            )
            for pdb, rec in self.receptors.items()
        }
        self.engine = self.engines[cfg.pdb_id]
        self._best_structure: dict[str, str] = {}  # compound → pdb id
        self.cost_model = CostModel()
        self.oracle = (
            ReferenceOracle(self.receptor, seed=self.factory.spawn_seed("oracle"))
            if cfg.compute_enrichment
            else None
        )
        self._train_smiles: list[str] = []
        self._train_scores: list[float] = []
        self._docked_ids: set[str] = set()
        self._cg_done_ids: set[str] = set()
        self._entry_by_id = {e.compound_id: e for e in self.library}
        self.failures = FailureSummary()
        self._iter_drops: dict[str, int] = {}  # per-iteration, per-stage
        self._pilot: Pilot | None = None  # resident workers, forked lazily
        #: populated by :meth:`iter_units` (and thus :meth:`run`)
        self.result: CampaignResult | None = None

    # ---------------------------------------------------- failure handling
    def _guard(self, stage: str, unit: str, fn):
        """Run one stage work unit under the campaign failure policy.

        Returns the unit's (non-``None``) result, or ``None`` when the
        unit raised and ``drop_and_continue`` dropped it.  Every drop is
        logged, recorded in :attr:`failures`, and charged against the
        per-stage failure budget; ``fail_fast`` re-raises instead.
        """
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - stage-task isolation
            # a worker's failure arrives as the record's "Type: message"
            error = (
                str(exc)
                if isinstance(exc, _ReplicaFailed)
                else f"{type(exc).__name__}: {exc}"
            )
            if self.config.failure_policy == "fail_fast":
                raise TaskFailedError(f"{stage} unit {unit} failed: {error}") from exc
            self.failures.record_failure(0.0)
            self.failures.record_drop(stage)
            self._iter_drops[stage] = self._iter_drops.get(stage, 0) + 1
            _log.warning("%s unit %s dropped: %s", stage, unit, error)
            budget = self.config.stage_failure_budget
            if budget is not None and self._iter_drops[stage] > budget:
                raise TaskFailedError(
                    f"stage {stage} failure budget exceeded: "
                    f"{self._iter_drops[stage]} drops this iteration, "
                    f"budget {budget}"
                ) from exc
            return None

    # ---------------------------------------------------- resident workers
    def _science_pilot(self) -> Pilot:
        """The campaign's pilot over resident worker processes.

        Built, and its workers forked, at the first S3 unit — not in
        ``__init__`` — then reused by every later S3 unit until
        :meth:`_close_workers`.  One node with one cpu per worker; each
        worker installs the campaign's receptors once, as its pool
        initializer, so a replica task carries a pdb id, never a grid.
        Untraced: its wall clock must not enter a deterministic trace.
        """
        if self._pilot is None:
            # ML1's prefetch thread is joined by S3, so the fork is clean
            self._pilot = resident_pilot(install_receptors, (self.receptors,))
        return self._pilot

    def _close_workers(self) -> None:
        """Shut the worker pool down; returns once its processes have exited."""
        if self._pilot is not None:
            pilot, self._pilot = self._pilot, None
            pilot.shutdown()

    def _run_ensembles(self, stage: str, jobs: list) -> list:
        """Run every replica of a stage's ESMACS units as worker tasks.

        ``jobs`` holds one ``(unit, prepare)`` pair per compound, where
        ``prepare()`` returns ``(pdb, config, seed, smiles, coords,
        keep_trajectories)``.  Every replica becomes one
        :func:`~repro.rct.pilot.run_in_order` job, and the stage drains
        before this returns.  Per job, in job order: the replica outputs in
        replica order, or the exception that replaces them — what
        ``prepare`` raised, or the first failed replica's error — for the
        caller to raise inside the unit's :meth:`_guard` turn, so drops
        keep compound order.  A worker process that died raises the
        stage's :class:`TaskFailedError` from the runner.
        """
        tasks: list[tuple[str, tuple]] = []
        outcomes: list = []
        for unit, prepare in jobs:
            try:
                pdb, config, seed, smiles, coords, keep = prepare()
            except Exception as exc:  # noqa: BLE001 - raised in the unit's turn
                outcomes.append(exc)
                continue
            outcomes.append(slice(len(tasks), len(tasks) + config.replicas))
            tasks.extend(
                (
                    f"{unit}/replica-{r}",
                    (pdb, config, seed, smiles, coords, unit, r, keep),
                )
                for r in range(config.replicas)
            )
        records = list(run_in_order(stage, run_replica, tasks, self._science_pilot))
        for k, outcome in enumerate(outcomes):
            if isinstance(outcome, slice):
                recs = records[outcome]
                failed = [rec for rec in recs if rec.state is not TaskState.DONE]
                outcomes[k] = (
                    _ReplicaFailed(failed[0].error)
                    if failed
                    else [rec.result for rec in recs]
                )
        return outcomes

    # ------------------------------------------------------------ pieces
    def _dock_batch(self, indices: list[int], unit_id: str) -> list[DockingResult]:
        """Dock against every receptor structure; keep the consensus best.

        The not-yet-docked selection is one ``dock_entries`` shard per
        receptor, traced as one ``docking`` span per shard.  A compound's
        result does not depend on its shard-mates (every ligand draws from
        its own ``lga/{cid}`` stream), so this equals docking one compound
        at a time.  If a shard raises, the selection is re-docked one
        compound at a time instead, which isolates the failing compound:
        it is dropped (per policy) and stays undocked, so a later ML1
        round may re-drive it.
        """
        todo = {}
        for i in indices:
            entry = self.library[i]
            if entry.compound_id not in self._docked_ids:
                todo.setdefault(entry.compound_id, entry)
        entries = list(todo.values())
        if not entries:
            return []
        pairs = [(e.smiles, e.compound_id) for e in entries]
        shards: dict[str, list[DockingResult]] = {}
        try:
            for pdb, engine in self.engines.items():
                with self.tracer.span(
                    f"dock:{unit_id}/{pdb}", category="docking",
                    pdb=pdb, n_ligands=len(pairs),
                ):
                    shards[pdb] = engine.dock_entries(pairs)
        except Exception:  # noqa: BLE001 - isolated per compound below
            return self._dock_each(entries)
        for pdb, results in shards.items():
            self.engines[pdb]._account(results)
        out = []
        for k, entry in enumerate(entries):
            best_result, best_pdb = None, None
            for pdb, results in shards.items():
                if best_result is None or results[k].score < best_result.score:
                    best_result, best_pdb = results[k], pdb
            out.append(self._keep_docked(entry, best_result, best_pdb))
        return out

    def _dock_each(self, entries: list) -> list[DockingResult]:
        """Dock compound by compound, each under :meth:`_guard`."""
        out = []
        for entry in entries:

            def dock_one(entry=entry):
                best_result = None
                best_pdb = None
                for pdb, engine in self.engines.items():
                    result = engine.dock_smiles(entry.smiles, entry.compound_id)
                    if best_result is None or result.score < best_result.score:
                        best_result, best_pdb = result, pdb
                return best_result, best_pdb

            docked = self._guard("S1", entry.compound_id, dock_one)
            if docked is not None:
                out.append(self._keep_docked(entry, *docked))
        return out

    def _keep_docked(self, entry, result: DockingResult, pdb: str) -> DockingResult:
        """Record a compound's consensus-best result; returns it."""
        self._best_structure[entry.compound_id] = pdb
        self._docked_ids.add(entry.compound_id)
        self._train_smiles.append(entry.smiles)
        self._train_scores.append(result.score)
        return result

    def _train_surrogate(self) -> TrainedSurrogate:
        return train_surrogate(
            self._train_smiles,
            np.array(self._train_scores),
            self.config.surrogate,
            seed=self.factory.spawn_seed(f"surrogate/{len(self._train_scores)}"),
        )

    def _ml1_select(self, surrogate: TrainedSurrogate) -> list[int]:
        """Rank undocked compounds; keep top fraction + exploration draw."""
        cfg = self.config
        undocked = [
            i
            for i in range(len(self.library))
            if self.library[i].compound_id not in self._docked_ids
        ]
        if not undocked:
            return []
        inference = InferenceEngine(surrogate, tracer=self.tracer)
        scored = inference.score_smiles(
            [self.library[i].smiles for i in undocked],
            ids=[str(i) for i in undocked],
        )
        ranked = sorted(scored, key=lambda s: s.score, reverse=True)
        n_keep = max(1, int(round(cfg.ml1_keep_fraction * len(ranked))))
        chosen = [int(s.compound_id) for s in ranked[:n_keep]]
        # exploration: uniform draw from the remainder (the RES-motivated
        # hedge against the surrogate's rank errors)
        rest = [int(s.compound_id) for s in ranked[n_keep:]]
        n_explore = int(round(cfg.ml1_explore_fraction * n_keep))
        if rest and n_explore:
            rng = self.factory.stream(f"explore/{len(self._docked_ids)}")
            picks = rng.choice(len(rest), size=min(n_explore, len(rest)), replace=False)
            chosen.extend(rest[int(p)] for p in picks)
        return chosen

    def _select_for_cg(self) -> list[DockingResult]:
        """Diversity-pick among the best docked, not-yet-CG'd compounds."""
        cfg = self.config
        candidates = sorted(
            (
                (cid, score)
                for cid, score in self._score_by_id().items()
                if cid not in self._cg_done_ids
            ),
            key=lambda t: t[1],
        )
        pool = [cid for cid, _ in candidates[: 3 * cfg.cg_compounds]]
        if not pool:
            return []
        if len(pool) > cfg.cg_compounds:
            from repro.chem.fingerprint import morgan_fingerprint

            fps = np.stack(
                [
                    morgan_fingerprint(parse_smiles(self._entry_by_id[cid].smiles))
                    for cid in pool
                ]
            )
            picked = [pool[i] for i in diversity_pick(fps, cfg.cg_compounds)]
        else:
            picked = pool
        by_id = {r.compound_id: r for r in self._all_dock_results}
        return [by_id[cid] for cid in picked]

    def _score_by_id(self) -> dict[str, float]:
        return {r.compound_id: r.score for r in self._all_dock_results}

    # ------------------------------------------------------------- the loop
    def iter_units(self) -> Iterator[StageUnit]:
        """Decompose the campaign into its sequence of resumable stage units.

        Yields :class:`StageUnit` objects in execution order: a ``seed``
        bootstrap unit, then ML1 → S1 → S3-CG → S2 → S3-FG → ``retrain``
        per iteration (S3-FG is skipped when S2 selected nothing, exactly
        as the monolithic loop skipped its span).  The next unit is built
        only after the previous one's :meth:`StageUnit.complete` ran —
        stage sizes depend on upstream science.  Driving every unit
        back-to-back is :meth:`run`; an external driver (the multi-tenant
        campaign service) instead schedules each unit's simulated cost on
        a shared pilot, checkpoints between units, and fast-forwards
        completed units on resume.

        S3 replicas run on resident worker processes, forked at the first
        S3 unit and shut down on every way out of this generator:
        exhaustion, ``close()``, or its collection after a unit raised.
        """
        try:
            yield from self._units()
        finally:
            self._close_workers()

    def _units(self) -> Iterator[StageUnit]:
        cfg = self.config
        result = CampaignResult(config=cfg, library=self.library, blas=self._blas)
        self.result = result
        self._all_dock_results: list[DockingResult] = []
        state: dict = {}

        def checked(unit: StageUnit) -> Iterator[StageUnit]:
            yield unit
            if not unit.done:
                raise RuntimeError(
                    f"stage unit {unit.unit_id!r} must be completed before "
                    "the next unit is requested"
                )

        def seed_science() -> None:
            # bootstrap: random seed set docked, first surrogate trained
            seed_rng = self.factory.stream("seed-set")
            seed_idx = seed_rng.choice(
                len(self.library), size=cfg.seed_train_size, replace=False
            )
            seed_docked = self._dock_batch([int(i) for i in seed_idx], "seed")
            self._all_dock_results.extend(seed_docked)
            state["surrogate"] = self._train_surrogate()

        yield from checked(StageUnit("seed", -1, cfg.seed_train_size, seed_science))

        for it in range(cfg.iterations):
            _log.info("iteration %d starting", it)
            self._iter_drops = {}  # the failure budget is per iteration
            metrics = CampaignMetrics(iteration=it)
            ictx: dict = {}  # hand-offs between this iteration's units

            # ---------------------------------------------------------- ML1
            def ml1_science(it=it, metrics=metrics, ictx=ictx) -> None:
                # stage boundaries are manual spans on the tracer's own clock
                # (TickClock in deterministic runs), closed after accounting
                stage_span = self.tracer.start_span(
                    "stage:ML1", category="campaign.stage", iteration=it
                )
                t0 = _clock.now()
                selected = self._ml1_select(state["surrogate"])
                ml1_wall = _clock.now() - t0
                n_ranked = len(self.library) - len(self._docked_ids) + len(selected)
                stage_span.set_attr("n_ligands", n_ranked)
                stage_span.finish()
                metrics.stages["ML1"] = StageAccounting(
                    stage="ML1",
                    n_ligands=n_ranked,
                    wall_seconds=ml1_wall,
                    node_hours=self.cost_model.ml1_wall_seconds(n_ranked)
                    / 3600.0
                    / self.cost_model.node.gpus,
                )
                ictx["selected"] = selected

            n_undocked = len(self.library) - len(self._docked_ids)
            yield from checked(StageUnit("ML1", it, n_undocked, ml1_science))

            # ----------------------------------------------------------- S1
            def s1_science(it=it, metrics=metrics, ictx=ictx) -> None:
                selected = ictx["selected"]
                _log.info("S1: docking %d ML1-selected compounds", len(selected))
                stage_span = self.tracer.start_span(
                    "stage:S1", category="campaign.stage", iteration=it
                )
                t0 = _clock.now()
                docked = self._dock_batch(selected, f"it{it}/S1")
                self._all_dock_results.extend(docked)
                s1_wall = _clock.now() - t0
                stage_span.set_attr("n_ligands", len(docked))
                stage_span.finish()
                metrics.stages["S1"] = StageAccounting(
                    stage="S1",
                    n_ligands=len(docked),
                    wall_seconds=s1_wall,
                    node_hours=len(docked)
                    * self.cost_model.node_hours_per_ligand("S1"),
                )
                ictx["docked"] = docked

            yield from checked(
                StageUnit("S1", it, len(ictx["selected"]), s1_science)
            )

            # -------------------------------------------------------- S3-CG
            # the diversity pick is a cheap read-only selection, so it runs
            # at unit-build time and fixes the unit's size exactly
            cg_inputs = self._select_for_cg()
            _log.info("S3-CG: %d diversity-picked compounds", len(cg_inputs))
            # group compounds by the crystal structure that docked them
            # best; every downstream stage runs against that structure
            groups: dict[str, list[DockingResult]] = {}
            for dock in cg_inputs:
                pdb = self._best_structure.get(dock.compound_id, cfg.pdb_id)
                groups.setdefault(pdb, []).append(dock)

            def cg_science(it=it, metrics=metrics, ictx=ictx, groups=groups) -> None:
                stage_span = self.tracer.start_span(
                    "stage:S3-CG", category="campaign.stage", iteration=it
                )
                t0 = _clock.now()
                cg_results: list[EsmacsResult] = []
                cg_by_pdb: dict[str, list[EsmacsResult]] = {}
                ligand_atoms: dict[str, np.ndarray] = {}
                reference_by_pdb: dict[str, np.ndarray] = {}
                seeds = {pdb: self.factory.spawn_seed(f"cg/{it}/{pdb}") for pdb in groups}
                units = [(pdb, dock) for pdb, docks in groups.items() for dock in docks]
                poses: dict[str, np.ndarray] = {}

                def prepare(pdb: str, dock: DockingResult) -> tuple:
                    poses[dock.compound_id] = self.engines[pdb].pose_coordinates(dock)
                    return pdb, cfg.cg, seeds[pdb], dock.smiles, poses[dock.compound_id], True

                outcomes = self._run_ensembles(
                    "S3-CG",
                    [
                        (dock.compound_id, lambda pdb=pdb, dock=dock: prepare(pdb, dock))
                        for pdb, dock in units
                    ],
                )
                for (pdb, dock), outcome in zip(units, outcomes):

                    def cg_one(dock=dock, pdb=pdb, outcome=outcome):
                        res = assemble(dock.compound_id, _outputs(outcome))
                        system = build_lpc(
                            self.receptors[pdb], parse_smiles(dock.smiles),
                            poses[dock.compound_id], seed=cfg.seed,
                            n_residues=cfg.cg.n_residues,
                        )
                        return res, system

                    unit = self._guard("S3-CG", dock.compound_id, cg_one)
                    if unit is None:
                        continue
                    res, system = unit
                    cg_results.append(res)
                    cg_by_pdb.setdefault(pdb, []).append(res)
                    self._cg_done_ids.add(dock.compound_id)
                    ligand_atoms[dock.compound_id] = system.topology.ligand_atoms
                    reference_by_pdb[pdb] = system.positions[
                        system.topology.protein_atoms
                    ]
                cg_wall = _clock.now() - t0
                stage_span.set_attr("n_ligands", len(cg_results))
                stage_span.finish()
                metrics.stages["S3-CG"] = StageAccounting(
                    stage="S3-CG",
                    n_ligands=len(cg_results),
                    wall_seconds=cg_wall,
                    node_hours=len(cg_results)
                    * self.cost_model.node_hours_per_ligand("S3-CG"),
                )
                ictx["cg_results"] = cg_results
                ictx["cg_by_pdb"] = cg_by_pdb
                ictx["ligand_atoms"] = ligand_atoms
                ictx["reference_by_pdb"] = reference_by_pdb

            yield from checked(StageUnit("S3-CG", it, len(cg_inputs), cg_science))

            # ------------------------------------------------------------ S2
            def s2_science(it=it, metrics=metrics, ictx=ictx) -> None:
                cg_by_pdb = ictx["cg_by_pdb"]
                ligand_atoms = ictx["ligand_atoms"]
                reference_by_pdb = ictx["reference_by_pdb"]
                # one AAE per receptor structure, as §7.1.3 trains per PDB id
                s2_by_structure: dict[str, S2Result] = {}
                ictx["fg_results"] = []
                ictx["fg_parents"] = []
                stage_span = self.tracer.start_span(
                    "stage:S2", category="campaign.stage", iteration=it
                )
                t0 = _clock.now()
                for pdb, pdb_cg in cg_by_pdb.items():
                    if not pdb_cg:
                        continue

                    def s2_one(
                        pdb=pdb,
                        pdb_cg=pdb_cg,
                        it=it,
                        reference_by_pdb=reference_by_pdb,
                        ligand_atoms=ligand_atoms,
                    ):
                        return run_s2(
                            pdb_cg,
                            reference_by_pdb[pdb],
                            ligand_atoms,
                            AdaptiveConfig(
                                top_compounds=min(cfg.s2_top_compounds, len(pdb_cg)),
                                outliers_per_compound=cfg.s2_outliers_per_compound,
                                lof_neighbors=8,
                            ),
                            seed=self.factory.spawn_seed(f"s2/{it}/{pdb}"),
                        )

                    s2_unit = self._guard("S2", pdb, s2_one)
                    if s2_unit is not None:
                        s2_by_structure[pdb] = s2_unit
                s2_wall = _clock.now() - t0
                stage_span.set_attr(
                    "n_ligands",
                    sum(len(r.top_compound_ids) for r in s2_by_structure.values()),
                )
                stage_span.finish()
                s2_result = None
                if s2_by_structure:
                    s2_result = max(
                        s2_by_structure.values(), key=lambda r: len(r.dataset)
                    )
                    n_s2 = sum(
                        len(r.top_compound_ids) for r in s2_by_structure.values()
                    )
                    metrics.stages["S2"] = StageAccounting(
                        stage="S2",
                        n_ligands=n_s2,
                        wall_seconds=s2_wall,
                        node_hours=n_s2 * self.cost_model.node_hours_per_ligand("S2"),
                    )
                ictx["s2_by_structure"] = s2_by_structure
                ictx["s2_result"] = s2_result

            yield from checked(
                StageUnit("S2", it, len(ictx["cg_by_pdb"]), s2_science)
            )

            # -------------------------------------------------------- S3-FG
            def fg_science(it=it, metrics=metrics, ictx=ictx) -> None:
                s2_by_structure = ictx["s2_by_structure"]
                ligand_atoms = ictx["ligand_atoms"]
                fg_results = ictx["fg_results"]
                fg_parents = ictx["fg_parents"]
                stage_span = self.tracer.start_span(
                    "stage:S3-FG", category="campaign.stage", iteration=it
                )
                t0 = _clock.now()
                seeds = {
                    pdb: self.factory.spawn_seed(f"fg/{it}/{pdb}")
                    for pdb in s2_by_structure
                }
                units = [
                    (pdb, sel, f"{sel.compound_id}/r{sel.replica}f{sel.frame}")
                    for pdb, s2 in s2_by_structure.items()
                    for sel in s2.selections
                ]

                def prepare(pdb: str, sel) -> tuple:
                    smiles = self._entry_by_id[sel.compound_id].smiles
                    coords = sel.coordinates[ligand_atoms[sel.compound_id]]
                    return pdb, cfg.fg, seeds[pdb], smiles, coords, False

                outcomes = self._run_ensembles(
                    "S3-FG",
                    [
                        (label, lambda pdb=pdb, sel=sel: prepare(pdb, sel))
                        for pdb, sel, label in units
                    ],
                )
                for (_, sel, label), outcome in zip(units, outcomes):
                    fg_unit = self._guard(
                        "S3-FG",
                        label,
                        lambda label=label, outcome=outcome: assemble(
                            label, _outputs(outcome)
                        ),
                    )
                    if fg_unit is None:
                        continue
                    fg_results.append(fg_unit)
                    fg_parents.append(sel.compound_id)
                fg_wall = _clock.now() - t0
                stage_span.set_attr("n_ligands", len(fg_results))
                stage_span.finish()
                metrics.stages["S3-FG"] = StageAccounting(
                    stage="S3-FG",
                    n_ligands=len(fg_results),
                    wall_seconds=fg_wall,
                    node_hours=len(fg_results)
                    * self.cost_model.node_hours_per_ligand("S3-FG"),
                )

            if ictx["s2_by_structure"]:
                n_fg = sum(
                    len(s2.selections) for s2 in ictx["s2_by_structure"].values()
                )
                yield from checked(StageUnit("S3-FG", it, n_fg, fg_science))

            # --------------------------------------------------- retrain
            def retrain_science(it=it, metrics=metrics, ictx=ictx) -> None:
                if self.oracle is not None:
                    # cumulative enrichment: how well has the campaign as a
                    # whole concentrated the true top compounds so far
                    true_top = self.oracle.true_top_ids(self.library, 0.10)
                    if self._docked_ids:
                        metrics.enrichment_s1 = enrichment_factor(
                            set(self._docked_ids), true_top, len(self.library)
                        )
                    if self._cg_done_ids:
                        metrics.enrichment_cg = enrichment_factor(
                            set(self._cg_done_ids), true_top, len(self.library)
                        )
                    metrics.effective_ligands = len(self._cg_done_ids & true_top)

                # the upstream feedback: retrain on everything docked so far
                surrogate = self._train_surrogate()
                state["surrogate"] = surrogate
                if surrogate.val_losses:
                    metrics.surrogate_val_loss = surrogate.val_losses[-1]
                metrics.publish(self.tracer.metrics)

                result.iterations.append(
                    IterationResult(
                        iteration=it,
                        docked=ictx["docked"],
                        cg_results=ictx["cg_results"],
                        s2_result=ictx["s2_result"],
                        fg_results=ictx["fg_results"],
                        fg_parents=ictx["fg_parents"],
                        metrics=metrics,
                        s2_by_structure=ictx["s2_by_structure"],
                    )
                )

            yield from checked(StageUnit("retrain", it, 1, retrain_science))

        result.surrogate = state["surrogate"]
        result.docked_scores = self._score_by_id()
        result.failure_summary = self.failures
        if self.failures.n_dropped:
            _log.warning("campaign finished with drops: %s", self.failures.summary())

    def run(self) -> CampaignResult:
        """Execute to completion and return the results.

        Equivalent to driving :meth:`iter_units` back-to-back: same
        statement order, same RNG stream keys, same tracer spans — the
        monolithic loop of earlier versions, now expressed over units.
        A unit that raises closes the units (and so the workers) first.
        """
        units = self.iter_units()
        try:
            for unit in units:
                unit.complete()
        finally:
            units.close()
        assert self.result is not None
        return self.result

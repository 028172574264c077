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
from functools import partial
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


def _checked(unit: "StageUnit") -> Iterator["StageUnit"]:
    """Yield ``unit``; refuse to go on until it was completed."""
    yield unit
    if not unit.done:
        raise RuntimeError(
            f"stage unit {unit.unit_id!r} must be completed before "
            "the next unit is requested"
        )


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
    ML1 selected, how many structures hold CG results).  The science —
    one stage method of :class:`ImpeccableCampaign` over the iteration's
    record — executes when :meth:`complete` is called, so an external
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


@dataclass
class _Iteration:
    """One iteration's record, which its stage units fill in order: the
    :class:`IterationResult`, plus the hand-offs the result does not keep.
    A new record per iteration, so the hand-offs die with the iteration."""

    result: IterationResult
    selected: list[int] = field(default_factory=list)  # ML1 → S1
    #: S3-CG's diversity picks, grouped by the structure that docked each best
    cg_inputs: dict[str, list[DockingResult]] = field(default_factory=dict)
    cg_by_pdb: dict[str, list[EsmacsResult]] = field(default_factory=dict)  # → S2
    ligand_atoms: dict[str, np.ndarray] = field(default_factory=dict)  # → S2, S3-FG
    reference_by_pdb: dict[str, np.ndarray] = field(default_factory=dict)  # → S2


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
        self._surrogate: TrainedSurrogate | None = None  # latest trained
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
            # the campaign starts no thread to fork under: ML1 featurizes
            # and scores through ``score_smiles`` on the calling thread,
            # with no prefetch loader
            self._pilot = resident_pilot(install_receptors, (self.receptors,))
        return self._pilot

    def _close_workers(self) -> None:
        """Shut the worker pool down; returns once its processes have exited."""
        if self._pilot is not None:
            pilot, self._pilot = self._pilot, None
            pilot.shutdown()

    def _run_ensembles(self, stage: str, jobs: list) -> Iterator:
        """Run every replica of a stage's ESMACS units as worker tasks.

        ``jobs`` holds one ``(unit, prepare, finish)`` triple per compound,
        where ``prepare()`` returns ``(pdb, config, seed, smiles, coords,
        keep_trajectories)`` and ``finish`` (or ``None``) maps the unit's
        assembled :class:`EsmacsResult` to what the caller keeps.  Every
        replica becomes one :func:`~repro.rct.pilot.run_in_order` job, and
        the stage drains before this returns.  The returned iterator then
        gives, per job in job order, the kept value — or ``None`` where the
        unit was dropped — from the unit's own :meth:`_guard` turn, which
        raises what ``prepare`` raised or the first failed replica's error;
        so drops keep compound order, and each turn runs only when the
        caller asks for it.  A worker process that died raises the stage's
        :class:`TaskFailedError` from the runner.
        """
        tasks: list[tuple[str, tuple]] = []
        outcomes: list = []
        for unit, prepare, _ in jobs:
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

        def turn(unit: str, outcome, finish):
            if isinstance(outcome, BaseException):
                raise outcome
            failed = [rec for rec in records[outcome] if rec.state is not TaskState.DONE]
            if failed:
                raise _ReplicaFailed(failed[0].error)
            res = assemble(unit, [rec.result for rec in records[outcome]])
            return res if finish is None else finish(res)

        return (
            self._guard(stage, unit, partial(turn, unit, outcome, finish))
            for (unit, _, finish), outcome in zip(jobs, outcomes)
        )

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

    def _select_for_cg(self) -> dict[str, list[DockingResult]]:
        """Diversity-pick among the best docked, not-yet-CG'd compounds,
        grouped by the crystal structure that docked each one best: every
        downstream stage runs against that structure."""
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
        if len(pool) > cfg.cg_compounds:
            from repro.chem.fingerprint import morgan_fingerprint

            fps = np.stack(
                [
                    morgan_fingerprint(parse_smiles(self._entry_by_id[cid].smiles))
                    for cid in pool
                ]
            )
            pool = [pool[i] for i in diversity_pick(fps, cfg.cg_compounds)]
        _log.info("S3-CG: %d diversity-picked compounds", len(pool))
        by_id = {r.compound_id: r for r in self._all_dock_results}
        groups: dict[str, list[DockingResult]] = {}
        for cid in pool:
            pdb = self._best_structure.get(cid, cfg.pdb_id)
            groups.setdefault(pdb, []).append(by_id[cid])
        return groups

    def _score_by_id(self) -> dict[str, float]:
        return {r.compound_id: r.score for r in self._all_dock_results}

    # ------------------------------------------------------------ the stages
    def _stage(
        self, name: str, rec: _Iteration, n_items: int,
        science: Callable[[_Iteration], int | None],
    ) -> StageUnit:
        """The unit of one accounted stage: ``science(rec)`` inside its span.

        The ``stage:{name}`` span is manual, on the tracer's own clock
        (TickClock in deterministic runs).  ``science`` returns the
        stage's ligand count, which the span and the stage's
        :class:`StageAccounting` record; ``None`` means the stage produced
        nothing to account (S2 when no structure gave a result): the span
        reads 0 ligands and no accounting is kept.
        """
        metrics = rec.result.metrics

        def run() -> None:
            span = self.tracer.start_span(
                f"stage:{name}", category="campaign.stage", iteration=metrics.iteration
            )
            t0 = _clock.now()
            n = science(rec)
            wall = _clock.now() - t0
            span.set_attr("n_ligands", n or 0)
            span.finish()
            if n is None:
                return
            cost = self.cost_model
            node_hours = (
                cost.ml1_wall_seconds(n) / 3600.0 / cost.node.gpus
                if name == "ML1"
                else n * cost.node_hours_per_ligand(name)
            )
            metrics.stages[name] = StageAccounting(
                stage=name, n_ligands=n, wall_seconds=wall, node_hours=node_hours
            )

        return StageUnit(name, metrics.iteration, n_items, run)

    def _seed(self) -> None:
        """Bootstrap: dock a random seed set, train the first surrogate."""
        seed_rng = self.factory.stream("seed-set")
        seed_idx = seed_rng.choice(
            len(self.library), size=self.config.seed_train_size, replace=False
        )
        seed_docked = self._dock_batch([int(i) for i in seed_idx], "seed")
        self._all_dock_results.extend(seed_docked)
        self._surrogate = self._train_surrogate()

    def _ml1(self, rec: _Iteration) -> int:
        """ML1: the surrogate ranks the undocked library and selects;
        the stage's count is the compounds ranked."""
        rec.selected = self._ml1_select(self._surrogate)
        return len(self.library) - len(self._docked_ids)

    def _s1(self, rec: _Iteration) -> int:
        """S1: dock ML1's selection; the scores join the training set."""
        _log.info("S1: docking %d ML1-selected compounds", len(rec.selected))
        docked = self._dock_batch(rec.selected, f"it{rec.result.iteration}/S1")
        self._all_dock_results.extend(docked)
        rec.result.docked = docked
        return len(docked)

    def _cg(self, rec: _Iteration) -> int:
        """S3-CG: coarse ensemble free energies from the docked poses."""
        cfg = self.config
        it = rec.result.iteration
        seeds = {pdb: self.factory.spawn_seed(f"cg/{it}/{pdb}") for pdb in rec.cg_inputs}
        units = [(pdb, dock) for pdb, docks in rec.cg_inputs.items() for dock in docks]
        poses: dict[str, np.ndarray] = {}

        def prepare(pdb: str, dock: DockingResult) -> tuple:
            poses[dock.compound_id] = self.engines[pdb].pose_coordinates(dock)
            return pdb, cfg.cg, seeds[pdb], dock.smiles, poses[dock.compound_id], True

        def with_system(pdb: str, dock: DockingResult, res: EsmacsResult) -> tuple:
            system = build_lpc(
                self.receptors[pdb], parse_smiles(dock.smiles),
                poses[dock.compound_id], seed=cfg.seed, n_residues=cfg.cg.n_residues,
            )
            return res, system

        kept = self._run_ensembles(
            "S3-CG",
            [
                (dock.compound_id, partial(prepare, pdb, dock), partial(with_system, pdb, dock))
                for pdb, dock in units
            ],
        )
        for (pdb, dock), unit in zip(units, kept):
            if unit is None:
                continue
            res, system = unit
            rec.result.cg_results.append(res)
            rec.cg_by_pdb.setdefault(pdb, []).append(res)
            self._cg_done_ids.add(dock.compound_id)
            rec.ligand_atoms[dock.compound_id] = system.topology.ligand_atoms
            rec.reference_by_pdb[pdb] = system.positions[system.topology.protein_atoms]
        return len(rec.result.cg_results)

    def _s2(self, rec: _Iteration) -> int | None:
        """S2: one AAE + LOF outlier pick per receptor structure, as §7.1.3
        trains per PDB id; ``None`` when no structure gave a result."""
        cfg = self.config
        it = rec.result.iteration

        def s2_one(pdb: str, pdb_cg: list[EsmacsResult]) -> S2Result:
            return run_s2(
                pdb_cg,
                rec.reference_by_pdb[pdb],
                rec.ligand_atoms,
                AdaptiveConfig(
                    top_compounds=min(cfg.s2_top_compounds, len(pdb_cg)),
                    outliers_per_compound=cfg.s2_outliers_per_compound,
                    lof_neighbors=8,
                ),
                seed=self.factory.spawn_seed(f"s2/{it}/{pdb}"),
            )

        by_structure = rec.result.s2_by_structure
        for pdb, pdb_cg in rec.cg_by_pdb.items():
            s2 = self._guard("S2", pdb, partial(s2_one, pdb, pdb_cg))
            if s2 is not None:
                by_structure[pdb] = s2
        if not by_structure:
            return None
        rec.result.s2_result = max(by_structure.values(), key=lambda r: len(r.dataset))
        return sum(len(r.top_compound_ids) for r in by_structure.values())

    def _fg(self, rec: _Iteration) -> int:
        """S3-FG: fine-grained ESMACS from the S2-selected conformations."""
        cfg = self.config
        it = rec.result.iteration
        s2_by_structure = rec.result.s2_by_structure
        seeds = {pdb: self.factory.spawn_seed(f"fg/{it}/{pdb}") for pdb in s2_by_structure}
        units = [
            (pdb, sel, f"{sel.compound_id}/r{sel.replica}f{sel.frame}")
            for pdb, s2 in s2_by_structure.items()
            for sel in s2.selections
        ]

        def prepare(pdb: str, sel) -> tuple:
            smiles = self._entry_by_id[sel.compound_id].smiles
            coords = sel.coordinates[rec.ligand_atoms[sel.compound_id]]
            return pdb, cfg.fg, seeds[pdb], smiles, coords, False

        kept = self._run_ensembles(
            "S3-FG",
            [(label, partial(prepare, pdb, sel), None) for pdb, sel, label in units],
        )
        for (_, sel, _), res in zip(units, kept):
            if res is not None:
                rec.result.fg_results.append(res)
                rec.result.fg_parents.append(sel.compound_id)
        return len(rec.result.fg_results)

    def _retrain(self, rec: _Iteration) -> None:
        """Score the campaign so far, then retrain the surrogate on
        everything docked — the upstream feedback of the loop."""
        metrics = rec.result.metrics
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
        self._surrogate = self._train_surrogate()
        if self._surrogate.val_losses:
            metrics.surrogate_val_loss = self._surrogate.val_losses[-1]
        metrics.publish(self.tracer.metrics)
        self.result.iterations.append(rec.result)

    # ------------------------------------------------------------- the loop
    def iter_units(self) -> Iterator[StageUnit]:
        """Decompose the campaign into its sequence of resumable stage units.

        Yields :class:`StageUnit` objects in execution order: a ``seed``
        bootstrap unit, then ML1 → S1 → S3-CG → S2 → S3-FG → ``retrain``
        per iteration (S3-FG is skipped when S2 selected nothing).  Each
        unit runs one stage method (``_seed``, ``_ml1``, ``_s1``, ``_cg``,
        ``_s2``, ``_fg``, ``_retrain``) over the iteration's record: its
        :class:`IterationResult` plus the hand-offs the result does not
        keep, dropped with the iteration.  The five science stages run
        inside a ``stage:{name}`` span and leave a :class:`StageAccounting`.
        The next unit is built only after the previous one's
        :meth:`StageUnit.complete` ran — stage sizes depend on upstream
        science.  Driving every unit back-to-back is :meth:`run`; an
        external driver (the multi-tenant campaign service) instead
        schedules each unit's simulated cost on a shared pilot,
        checkpoints between units, and fast-forwards completed units on
        resume.

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
        yield from _checked(StageUnit("seed", -1, cfg.seed_train_size, self._seed))
        for it in range(cfg.iterations):
            _log.info("iteration %d starting", it)
            self._iter_drops = {}  # the failure budget is per iteration
            rec = _Iteration(
                IterationResult(
                    iteration=it, docked=[], cg_results=[], s2_result=None,
                    fg_results=[], fg_parents=[], metrics=CampaignMetrics(iteration=it),
                )
            )
            n_undocked = len(self.library) - len(self._docked_ids)
            yield from _checked(self._stage("ML1", rec, n_undocked, self._ml1))
            yield from _checked(self._stage("S1", rec, len(rec.selected), self._s1))
            # the diversity pick is a cheap read-only selection, so it runs
            # at unit-build time and fixes the unit's size exactly
            rec.cg_inputs = self._select_for_cg()
            n_cg = sum(map(len, rec.cg_inputs.values()))
            yield from _checked(self._stage("S3-CG", rec, n_cg, self._cg))
            yield from _checked(self._stage("S2", rec, len(rec.cg_by_pdb), self._s2))
            if rec.result.s2_by_structure:
                n_fg = sum(len(s2.selections) for s2 in rec.result.s2_by_structure.values())
                yield from _checked(self._stage("S3-FG", rec, n_fg, self._fg))
            yield from _checked(StageUnit("retrain", it, 1, partial(self._retrain, rec)))

        result.surrogate = self._surrogate
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

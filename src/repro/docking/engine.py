"""Batch docking engine — the S1 stage public API.

Wraps ligand preparation + LGA search behind the interface the campaign
uses: dock one SMILES, or a whole library against one receptor with
receptor reuse (§5.1.1's "receptor-reuse functionality for docking many
ligands to a single receptor").  Evaluation counts are surfaced so the
cost model can convert work into simulated node-hours.

Every entry point docks through the fused multi-ligand LGA
(:mod:`repro.docking.batch`): the shard's ligands are packed into padded
struct-of-arrays and the whole LGA runs over ``n_ligands × population``
poses per kernel call; one SMILES is a shard of one.  Because every
ligand's randomness comes from its own per-compound stream, a compound's
result does not depend on the shard it is docked in.
Ligand preparation is cached per compound (prep is deterministic given
the compound's stream), shared by docking and :meth:`pose_coordinates`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.library import CompoundLibrary
from repro.chem.smiles import parse_smiles
from repro.docking.lga import DockingRun, LGAConfig
from repro.docking.ligand import LigandBeads, prepare_ligand
from repro.docking.local_search import local_search_named
from repro.docking.receptor import Receptor
from repro.telemetry import NULL_TRACER, Tracer
from repro.util.rng import RngFactory

__all__ = ["DockingEngine", "DockingResult"]


@dataclass(frozen=True)
class DockingResult:
    """Docking outcome for one compound."""

    compound_id: str
    smiles: str
    score: float  # kcal/mol-like, lower is better
    n_evals: int
    pose_translation: tuple[float, float, float]
    pose_quaternion: tuple[float, float, float, float]
    conformer: int
    torsion_angles: tuple = ()  # rotatable-bond genes (radians)


class DockingEngine:
    """Dock compounds against one receptor.

    Parameters
    ----------
    receptor:
        Target pocket (grids are computed once and reused per ligand).
    seed:
        Root seed; per-ligand streams derive from compound ids, so docking
        the same compound twice gives identical results regardless of batch
        composition or ordering.
    local_search:
        ``"adadelta"`` (default, better quality) or ``"solis-wets"``.
    """

    def __init__(
        self,
        receptor: Receptor,
        seed: int = 0,
        config: LGAConfig | None = None,
        local_search: str = "adadelta",
        n_conformers: int = 3,
        tracer: Tracer | None = None,
    ) -> None:
        self.receptor = receptor
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.rng_factory = RngFactory(
            seed, prefix=f"docking/{receptor.target}/{receptor.pdb_id}"
        )
        self.config = config or LGAConfig()
        # looked up now so an unknown name fails here, not mid-screen
        self._local_search = local_search_named(local_search).name
        self.n_conformers = n_conformers
        self.total_evals = 0
        self.total_ligands = 0
        #: per-compound prepared beads, keyed by compound id (or SMILES);
        #: prep is deterministic given the compound's stream, so caching
        #: is transparent — it only removes repeated SMILES parsing and
        #: conformer generation
        self._prep_cache: dict[str, LigandBeads] = {}

    # ------------------------------------------------------------------ prep

    def _prepared(self, smiles: str, compound_id: str = "") -> LigandBeads:
        """Prepared beads for a compound, via the per-compound cache."""
        key = compound_id or smiles
        beads = self._prep_cache.get(key)
        if beads is None:
            mol = parse_smiles(smiles)
            prep_rng = self.rng_factory.stream(f"prep/{key}")
            beads = prepare_ligand(mol, prep_rng, n_conformers=self.n_conformers)
            self._prep_cache[key] = beads
        return beads

    def _to_result(
        self, smiles: str, compound_id: str, run: DockingRun
    ) -> DockingResult:
        """Shared DockingRun → DockingResult conversion."""
        return DockingResult(
            compound_id=compound_id,
            smiles=smiles,
            score=run.best_score,
            n_evals=run.n_evals,
            pose_translation=tuple(run.best_pose.translation),
            pose_quaternion=tuple(run.best_pose.quaternion),
            conformer=run.best_pose.conformer,
            torsion_angles=(
                ()
                if run.best_pose.torsion_angles is None
                else tuple(run.best_pose.torsion_angles)
            ),
        )

    # --------------------------------------------------------------- docking

    def _account(self, results: list[DockingResult]) -> None:
        """Charge docked results to the engine totals and trace counters."""
        if not results:
            return
        n_evals = sum(r.n_evals for r in results)
        self.total_evals += n_evals
        self.total_ligands += len(results)
        self.tracer.metrics.counter("docking.evals").inc(n_evals)
        self.tracer.metrics.counter("docking.ligands").inc(len(results))

    def dock_smiles(self, smiles: str, compound_id: str = "") -> DockingResult:
        """Dock a single compound given as SMILES — a shard of one."""
        key = compound_id or smiles
        with self.tracer.span(f"dock:{key}", category="docking", compound=key):
            (result,) = self.dock_entries([(smiles, compound_id)])
        self._account([result])
        return result

    def dock_entries(self, entries: list[tuple[str, str]]) -> list[DockingResult]:
        """Dock ``(smiles, compound_id)`` pairs; pure, counters untouched.

        This is the worker-safe core shared by :meth:`dock_smiles`,
        :meth:`dock_library` and the shard tasks (the streamed screen's
        S1 workers, or ``TaskSpec(fn=engine.dock_entries, args=(shard,))``
        on a :class:`~repro.rct.pilot.Pilot`): it never mutates engine
        counters, so shards may run concurrently and be merged by the
        caller (:meth:`_account` charges the merged results once).  The
        whole shard runs through one fused LGA
        (:func:`repro.docking.batch.dock_shard`).
        """
        if not entries:
            return []
        from repro.docking.batch import dock_shard

        beads_list = [self._prepared(s, cid) for s, cid in entries]
        rngs = [
            self.rng_factory.stream(f"lga/{cid or s}") for s, cid in entries
        ]
        runs = dock_shard(
            self.receptor,
            beads_list,
            rngs,
            config=self.config,
            local_search=self._local_search,
            tracer=self.tracer,
        )
        return [
            self._to_result(smiles, compound_id, run)
            for (smiles, compound_id), run in zip(entries, runs)
        ]

    def dock_library(
        self, library: CompoundLibrary, limit: int | None = None
    ) -> list[DockingResult]:
        """Dock every library member (or the first ``limit``) as one shard.

        Sharding the library into :meth:`dock_entries` calls on pilot
        workers parallelizes this same call.
        """
        n = len(library) if limit is None else min(limit, len(library))
        entries = [
            (library[i].smiles, library[i].compound_id) for i in range(n)
        ]
        results = self.dock_entries(entries)
        self._account(results)
        return results

    def pose_coordinates(self, result: DockingResult) -> np.ndarray:
        """World coordinates of a result's best pose.

        Uses the per-compound prep cache (same beads the score was
        computed on; rebuilt from the compound's own stream on a cache
        miss), so repeated calls no longer re-parse the SMILES and re-run
        conformer generation — this is what the S3 stages take as their
        starting structure.
        """
        from repro.docking.scoring import batch_pose_coordinates

        beads = self._prepared(result.smiles, result.compound_id)
        torsions = (
            np.array(result.torsion_angles)[None]
            if result.torsion_angles
            else None
        )
        return batch_pose_coordinates(
            beads,
            np.array([result.conformer]),
            np.array(result.pose_translation)[None],
            np.array(result.pose_quaternion)[None],
            torsions,
        )[0]

    @staticmethod
    def rank(results: list[DockingResult]) -> list[DockingResult]:
        """Results sorted best (lowest score) first."""
        return sorted(results, key=lambda r: r.score)


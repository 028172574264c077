"""Summit-scale cost model — the bridge between our scaled-down kernels
and the paper's Table 2 / Table 3 numbers.

Table 2 (node-hours per ligand on Summit) is *derivable* from the
protocol definitions plus two calibrated rates, and this module does the
derivation instead of hard-coding the table:

* **MD rate** — one V100 GPU advances our LPC systems at
  ``MD_NS_PER_GPU_HOUR`` nanoseconds/hour.  With the paper's protocol
  durations this single constant reproduces both ESMACS rows:
  CG = 6 replicas × (1+4) ns on one 6-GPU node → 5/10 h = **0.5
  node-hours**; FG = 24 replicas × (2+10) ns on four nodes → 12/10 h
  × 4 = **4.8 ≈ 5 node-hours**.
* **Docking rate** — AutoDock-GPU evaluates ``DOCKING_EVALS_PER_GPU_SECOND``
  poses/second; with our LGA budget that lands on Table 2's ~1e-4
  node-hours/ligand.
* ML1 throughput comes from Table 3's measured 319,674 ligands/s on
  1536 GPUs (≈208/s per GPU), and S2 from its 2-node × 2-hour row.

Everything else (task shapes, node counts, throughput at scale) follows
from these rates and the real work-unit counts of our kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.esmacs.protocol import CG, FG, EsmacsConfig
from repro.rct.cluster import SUMMIT_NODE, NodeSpec
from repro.rct.task import TaskSpec
from repro.util.config import FrozenConfig, validate_positive

__all__ = ["CostModel", "PAPER_TABLE2"]

#: Table 2 as printed (node-hours per ligand) — the reference the bench
#: compares the derived model against.
PAPER_TABLE2 = {
    "S1": 1e-4,
    "S3-CG": 0.5,
    "S2": 4.0,
    "S3-FG": 5.0,
    "TI": 640.0,
}


@dataclass(frozen=True)
class CostModel(FrozenConfig):
    """Calibrated rates → per-stage durations and task shapes."""

    md_ns_per_gpu_hour: float = 10.0
    #: peak pose-evaluation rate (Table 3's short-interval measurement)
    docking_evals_per_gpu_second: float = 6500.0
    docking_evals_per_ligand: float = 2700.0  # our LGA default budget
    #: fraction of peak sustained end-to-end (ligand staging, IO, tail) —
    #: reconciles Table 3's 14,252 lig/s peak with Table 2's ~1e-4
    #: node-hours/ligand normalized whole-app cost (a ~5× gap in the
    #: paper's own numbers)
    docking_pipeline_efficiency: float = 0.2
    ml1_ligands_per_gpu_second: float = 208.0  # Table 3: 319674/s ÷ 1536 GPUs
    s2_nodes: int = 2
    s2_hours_per_ligand: float = 2.0  # Table 2's "Ad. Sampling" row
    ti_nodes: int = 64
    ti_hours_per_ligand: float = 10.0
    node: NodeSpec = SUMMIT_NODE

    def __post_init__(self) -> None:
        validate_positive("md_ns_per_gpu_hour", self.md_ns_per_gpu_hour)
        validate_positive("docking_evals_per_gpu_second", self.docking_evals_per_gpu_second)
        validate_positive("ml1_ligands_per_gpu_second", self.ml1_ligands_per_gpu_second)

    # ----------------------------------------------------------- durations
    def esmacs_wall_seconds(self, config: EsmacsConfig) -> float:
        """Wall time of one ESMACS run (replicas spread one per GPU)."""
        ns_per_replica = config.equilibration_ns + config.production_ns
        return ns_per_replica / self.md_ns_per_gpu_hour * 3600.0

    def esmacs_nodes(self, config: EsmacsConfig) -> int:
        """Nodes holding one replica ensemble (one replica per GPU)."""
        return max(1, -(-config.replicas // self.node.gpus))  # ceil division

    def docking_wall_seconds(self, n_ligands: int = 1, peak: bool = False) -> float:
        """GPU wall time to dock ``n_ligands`` on one GPU.

        ``peak=True`` gives the kernel-only rate (Table 3's measurement);
        the default charges the sustained whole-app rate (Table 2's).
        """
        seconds = (
            n_ligands
            * self.docking_evals_per_ligand
            / self.docking_evals_per_gpu_second
        )
        if not peak:
            seconds /= self.docking_pipeline_efficiency
        return seconds

    def ml1_wall_seconds(self, n_ligands: int = 1) -> float:
        """GPU wall time to surrogate-score ``n_ligands`` on one GPU."""
        return n_ligands / self.ml1_ligands_per_gpu_second

    # ------------------------------------------------------- Table 2 rows
    def node_hours_per_ligand(self, stage: str) -> float:
        """Derived Table 2 column."""
        if stage == "S1":
            # one ligand occupies one of the node's GPUs
            return self.docking_wall_seconds(1) / 3600.0 / self.node.gpus
        if stage == "S3-CG":
            return self.esmacs_wall_seconds(CG) / 3600.0 * self.esmacs_nodes(CG)
        if stage == "S3-FG":
            return self.esmacs_wall_seconds(FG) / 3600.0 * self.esmacs_nodes(FG)
        if stage == "S2":
            return self.s2_hours_per_ligand * self.s2_nodes
        if stage == "TI":
            return self.ti_hours_per_ligand * self.ti_nodes
        raise ValueError(f"unknown stage {stage!r}")

    def nodes_per_ligand(self, stage: str) -> float:
        """Table 2's "nodes per ligand" column."""
        if stage == "S1":
            return 1.0 / self.node.gpus
        if stage == "S3-CG":
            return float(self.esmacs_nodes(CG))
        if stage == "S3-FG":
            return float(self.esmacs_nodes(FG))
        if stage == "S2":
            return float(self.s2_nodes)
        if stage == "TI":
            return float(self.ti_nodes)
        raise ValueError(f"unknown stage {stage!r}")

    # ---------------------------------------------------------- task specs
    # Every builder takes the task's identity: ``tenant`` and ``uid`` (a
    # submission's own namespace; ``None`` draws from the process counter).
    def _spec(self, uid: int | None, **fields) -> TaskSpec:
        if uid is not None:
            fields["uid"] = uid
        return TaskSpec(**fields)

    def docking_task(
        self, n_ligands: int, name: str = "", *, tenant: str = "", uid: int | None = None
    ) -> TaskSpec:
        """A single-GPU docking bundle (RAPTOR worker granularity)."""
        return self._spec(
            uid,
            name=name or f"s1-dock-{n_ligands}",
            cpus=1,
            gpus=1,
            duration=self.docking_wall_seconds(n_ligands),
            stage="S1",
            tenant=tenant,
        )

    def esmacs_task(
        self,
        config: EsmacsConfig,
        compound_id: str,
        stage: str,
        name: str = "",
        *,
        tenant: str = "",
        uid: int | None = None,
    ) -> TaskSpec:
        """One ESMACS ensemble as a (possibly multi-node) task."""
        nodes = self.esmacs_nodes(config)
        return self._spec(
            uid,
            name=name or f"{stage.lower()}-{compound_id}",
            cpus=self.node.cpus if nodes > 1 else min(config.replicas, self.node.cpus),
            gpus=self.node.gpus if nodes > 1 else min(config.replicas, self.node.gpus),
            nodes=nodes,
            duration=self.esmacs_wall_seconds(config),
            stage=stage,
            tenant=tenant,
        )

    def s2_task(
        self, compound_id: str, name: str = "", *, tenant: str = "", uid: int | None = None
    ) -> TaskSpec:
        """One S2 (DeepDriveMD) iteration over a compound's ensemble."""
        return self._spec(
            uid,
            name=name or f"s2-{compound_id}",
            cpus=self.node.cpus,
            gpus=self.node.gpus,
            nodes=self.s2_nodes,
            duration=self.s2_hours_per_ligand * 3600.0,
            stage="S2",
            tenant=tenant,
        )

    def ml1_task(
        self,
        n_ligands: int,
        n_gpus: int,
        name: str = "",
        *,
        tenant: str = "",
        uid: int | None = None,
    ) -> TaskSpec:
        """ML1 inference sweep as one multi-node task."""
        nodes = max(1, -(-n_gpus // self.node.gpus))
        return self._spec(
            uid,
            name=name or f"ml1-{n_ligands}",
            cpus=self.node.cpus,
            gpus=self.node.gpus,
            nodes=nodes,
            duration=self.ml1_wall_seconds(n_ligands) / max(1, n_gpus),
            stage="ML1",
            tenant=tenant,
        )

"""Integration: the workflow infrastructure running real science tasks.

The campaign driver calls the science stages directly; this test closes
the loop the paper actually ran — EnTK pipelines whose tasks are *real*
docking and ESMACS computations, executed by the pilot's thread backend.
"""

import numpy as np
import pytest

from repro.chem.library import generate_library
from repro.chem.smiles import parse_smiles
from repro.docking.engine import DockingEngine
from repro.docking.lga import LGAConfig
from repro.docking.receptor import make_receptor
from repro.esmacs.protocol import EsmacsConfig, EsmacsRunner
from repro.rct.cluster import Cluster, NodeSpec
from repro.rct.entk import AppManager, Pipeline, Stage
from repro.rct.backends import ThreadExecutor
from repro.rct.pilot import Pilot
from repro.rct.task import TaskSpec

FAST = LGAConfig(population=8, generations=3)
TINY_CG = EsmacsConfig(
    replicas=2,
    equilibration_ns=0.5,
    production_ns=1.0,
    steps_per_ns=8,
    n_residues=40,
    record_every=4,
    minimize_iterations=10,
)


@pytest.fixture(scope="module")
def receptor():
    return make_receptor("PLPro", "6W9C", seed=7)


def test_entk_pipeline_runs_real_science_stages(receptor):
    """A dock-stage → esmacs-stage pipeline with real callables on the
    thread backend: the stage barrier carries real data forward."""
    library = generate_library(3, seed=72)
    engine = DockingEngine(receptor, seed=0, config=FAST)
    esmacs = EsmacsRunner(receptor, TINY_CG, seed=0)

    dock_results = {}

    def dock_task(i):
        entry = library[i]
        result = engine.dock_smiles(entry.smiles, entry.compound_id)
        dock_results[entry.compound_id] = result
        return result.score

    def esmacs_task(compound_id):
        dock = dock_results[compound_id]
        res = esmacs.run(
            parse_smiles(dock.smiles),
            engine.pose_coordinates(dock),
            compound_id,
            keep_trajectories=False,
        )
        return res.binding_free_energy

    s1 = Stage(
        name="S1",
        tasks=[
            TaskSpec(cpus=1, fn=dock_task, args=(i,), stage="S1", name=f"dock-{i}")
            for i in range(3)
        ],
    )
    cg_stage_holder = {}

    def build_cg(records):
        # adaptive continuation: generate the CG stage from S1's output
        if cg_stage_holder:
            return None
        cg_stage_holder["done"] = True
        return Stage(
            name="S3-CG",
            tasks=[
                TaskSpec(
                    cpus=1,
                    fn=esmacs_task,
                    args=(cid,),
                    stage="S3-CG",
                    name=f"cg-{cid}",
                )
                for cid in sorted(dock_results)
            ],
        )

    cluster = Cluster(2, NodeSpec(cpus=2, gpus=0))
    executor = ThreadExecutor(max_workers=4)
    pilot = Pilot(cluster.allocate(2, 0.0), executor)
    out = AppManager(pilot).run(
        [Pipeline(name="science", stages=[s1], stage_generator=build_cg)]
    )
    executor.shutdown()

    records = out["science"]
    cg_records = [r for r in records if r.spec.stage == "S3-CG"]
    assert len(cg_records) == 3
    dgs = [r.result for r in cg_records]
    assert all(np.isfinite(d) for d in dgs)
    # stage barrier: every CG task started after every dock task ended
    s1_end = max(r.end_time for r in records if r.spec.stage == "S1")
    cg_start = min(r.start_time for r in cg_records)
    assert cg_start >= s1_end - 1e-6

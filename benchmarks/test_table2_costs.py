"""Table 2 — normalized computational costs on Summit.

Regenerates the node-hours-per-ligand table from the calibrated cost
model and *measures* the same quantities from a simulated pilot run, so
the table is a product of execution, not just arithmetic.

| Method   | Nodes/ligand | Node-hours/ligand (paper) |
|----------|--------------|---------------------------|
| S1       | 1/6          | ~0.0001                   |
| S3-CG    | 1            | 0.5                       |
| S2       | 2            | 4                         |
| S3-FG    | 4            | 5                         |
| TI       | 64           | 640                       |
"""

import pytest

from repro.core.costs import PAPER_TABLE2, CostModel
from repro.esmacs.protocol import CG, FG
from repro.rct.cluster import Cluster
from repro.rct.backends import SimExecutor
from repro.rct.pilot import Pilot


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


@pytest.fixture(scope="module")
def measured(cost_model):
    """Measure node-hours/ligand by running tasks on a simulated pilot."""
    cluster = Cluster(64, cost_model.node)
    n_ligands = {"S1": 600, "S3-CG": 12, "S2": 4, "S3-FG": 4}
    tasks = []
    # S1: one GPU task bundling many ligands, as RAPTOR workers run them
    tasks.append(cost_model.docking_task(n_ligands["S1"]))
    tasks += [cost_model.esmacs_task(CG, f"cg{i}", "S3-CG") for i in range(n_ligands["S3-CG"])]
    tasks += [cost_model.s2_task(f"s2-{i}") for i in range(n_ligands["S2"])]
    tasks += [cost_model.esmacs_task(FG, f"fg{i}", "S3-FG") for i in range(n_ligands["S3-FG"])]
    with Pilot(cluster.allocate(64, 0.0), SimExecutor(launch_overhead=0.0)) as pilot:
        records = pilot.run(tasks)
    spec = cost_model.node
    per_ligand = {}
    for stage, n in n_ligands.items():
        node_h = sum(
            r.node_seconds(spec.gpus, spec.cpus) / 3600.0
            for r in records
            if r.spec.stage == stage
        )
        per_ligand[stage] = node_h / n
    return per_ligand


def test_table2_rows(benchmark, cost_model, measured):
    rows = benchmark(
        lambda: {
            stage: (
                cost_model.nodes_per_ligand(stage),
                cost_model.node_hours_per_ligand(stage),
            )
            for stage in PAPER_TABLE2
        }
    )
    print("\nTable 2 — node-hours per ligand (derived | measured | paper)")
    for stage, paper in PAPER_TABLE2.items():
        nodes, derived = rows[stage]
        meas = measured.get(stage)
        meas_s = f"{meas:12.5f}" if meas is not None else "        (n/a)"
        print(f"  {stage:6s} nodes={nodes:7.3f}  {derived:12.5f} {meas_s} {paper:12.5f}")
    # every derived row within 25% of the paper's (rounded) numbers
    for stage, paper in PAPER_TABLE2.items():
        assert rows[stage][1] == pytest.approx(paper, rel=0.25)


def test_measured_matches_derived(benchmark, cost_model, measured):
    check = benchmark(lambda: measured)
    for stage, value in check.items():
        assert value == pytest.approx(
            cost_model.node_hours_per_ligand(stage), rel=0.05
        ), stage


def test_six_orders_of_magnitude_range(benchmark, cost_model):
    """§3.2: methods span >6 orders of magnitude of per-ligand cost."""
    ratio = benchmark(
        lambda: cost_model.node_hours_per_ligand("TI")
        / cost_model.node_hours_per_ligand("S1")
    )
    assert ratio > 1e6

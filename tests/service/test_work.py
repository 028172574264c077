"""CampaignWork prices its stage units with the cost model's task builders."""

import itertools

from repro.core.costs import CostModel
from repro.rct.cluster import NodeSpec
from repro.service.work import CampaignWork, WorkContext

from tests.core.test_stageunits import tiny_config


def test_campaign_work_tasks_have_the_cost_model_shapes():
    # two GPUs per node: CG's two replicas fit one node, FG's three span two
    cost = CostModel(node=NodeSpec(cpus=4, gpus=2))
    cfg = tiny_config(seed=0)
    cfg = cfg.replace(fg=cfg.fg.replace(replicas=3))
    work = CampaignWork(cfg, cost=cost)

    def shape(task):
        return task.cpus, task.gpus, task.nodes, task.duration

    def resources(task):
        return task.cpus, task.gpus, task.nodes

    whole = {
        "S3-CG": shape(cost.esmacs_task(cfg.cg, "x", "S3-CG")),
        "S2": shape(cost.s2_task("x")),
        "S3-FG": shape(cost.esmacs_task(cfg.fg, "x", "S3-FG")),
    }
    # docking bundles and the ML1 sweep scale their duration with the unit
    sized = {
        "S1": resources(cost.docking_task(1)),
        "ML1": resources(cost.ml1_task(1, cost.node.gpus)),
    }
    ctx = WorkContext(tenant="t", submission="s", next_uid=itertools.count().__next__)
    uids, stages = [], set()
    for unit in work.units(ctx):
        for task in unit.tasks:
            stages.add(task.stage)
            uids.append(task.uid)
            assert task.tenant == "t"
            if task.stage in whole:
                assert shape(task) == whole[task.stage], task
            elif task.stage in sized:
                assert resources(task) == sized[task.stage], task
        unit.run_science()
    assert {"S1", "ML1", "S3-CG", "S2", "S3-FG"} <= stages
    assert uids == list(range(len(uids)))  # the submission's own namespace

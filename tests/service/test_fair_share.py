"""The service's fair-share and isolation gates on a small contended pilot.

Three tenants with weights 4:2:1 each submit one saturating unit of 150
one-GPU tasks to two nodes (12 GPU slots):

* **isolation** — each tenant's result digest equals a solo run of the
  same workload on an idle pilot: contention moves *when* work runs,
  never *what* it computes;
* **fairness** — the node-seconds served to each tenant up to the moment
  the first backlog drains match its weight fraction to within 5 %
  (absolute).  Stride scheduling is deterministic, so this is a property
  check, not a statistics game.
"""

from repro.rct.backends import create_executor
from repro.rct.cluster import SUMMIT_NODE, Cluster
from repro.rct.pilot import Pilot
from repro.service.manager import CampaignManager
from repro.service.tenant import Tenant
from repro.service.work import SyntheticWork

WEIGHTS = {"gold": 4, "silver": 2, "bronze": 1}
N_TASKS = 150
SHARE_TOLERANCE = 0.05


def make_manager() -> CampaignManager:
    executor = create_executor("sim", launch_overhead=0.5)
    allocation = Cluster(2, spec=SUMMIT_NODE).allocate(2, now=0.0)
    return CampaignManager(Pilot(allocation, executor, failure_policy="drop_and_continue"))


def workload(seed: int) -> SyntheticWork:
    """One saturating unit: every task pending at once, no science gaps."""
    return SyntheticWork(n_units=1, tasks_per_unit=N_TASKS, duration=60.0, gpus=1, seed=seed)


def test_shared_tenants_match_solo_runs_and_weight_shares():
    manager = make_manager()
    sids = {
        name: manager.submit(Tenant(name=name, weight=weight), "job", workload(i))
        for i, (name, weight) in enumerate(WEIGHTS.items())
    }
    # shares mean something only while every tenant still contends
    served = None
    while manager._step():
        if served is None and any(not len(manager._subs[s]._pending) for s in sids.values()):
            served = {name: manager.sched.entry(name).served_cost for name in WEIGHTS}
    assert served is not None
    total, weight_sum = sum(served.values()), sum(WEIGHTS.values())
    for name, weight in WEIGHTS.items():
        assert abs(served[name] / total - weight / weight_sum) <= SHARE_TOLERANCE, name

    for i, (name, sid) in enumerate(sids.items()):
        solo = make_manager()
        solo_sid = solo.submit(Tenant(name="solo"), "job", workload(i))
        solo.run_until_idle()
        assert manager.result_digest(sid) == solo.result_digest(solo_sid), name

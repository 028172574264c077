"""Campaign-level failure propagation policies.

A stage work unit that raises is handled per ``CampaignConfig.failure_policy``:
``fail_fast`` aborts the campaign with a :class:`TaskFailedError`, while
``drop_and_continue`` records the drop in the failure ledger and keeps
going — up to the per-stage failure budget.  S3 units run their replicas
as worker tasks; faults are injected at the replica function
(``tests/core/replica_faults.py``) and map back to one drop per unit.
"""

import pytest

from repro.core.campaign import CampaignConfig, ImpeccableCampaign
from repro.docking.engine import DockingEngine
from repro.esmacs.protocol import EsmacsConfig
from repro.rct.fault import TaskFailedError

from tests.core import replica_faults

_SMALL_ESMACS = dict(
    equilibration_ns=1,
    production_ns=4,
    steps_per_ns=4,
    n_residues=40,
    record_every=4,
    minimize_iterations=10,
)


def _config(**overrides):
    base = dict(
        library_size=24,
        seed_train_size=8,
        iterations=1,
        cg_compounds=2,
        s2_top_compounds=1,
        s2_outliers_per_compound=1,
        cg=EsmacsConfig(replicas=3, **_SMALL_ESMACS),
        fg=EsmacsConfig(replicas=6, production_ns=10, **{
            k: v for k, v in _SMALL_ESMACS.items() if k != "production_ns"
        }),
        compute_enrichment=False,
        seed=0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _fail_every(monkeypatch, nth):
    """Fail the replica tasks whose (unit, replica) key hashes to 0 mod
    ``nth`` — every replica at ``nth=1``."""
    replica_faults.install(monkeypatch, replica_faults.flaky_replica, nth)


def test_config_rejects_bad_policy_and_budget():
    with pytest.raises(ValueError, match="failure_policy"):
        _config(failure_policy="retry_forever")
    with pytest.raises(ValueError, match="budget"):
        _config(failure_policy="drop_and_continue", stage_failure_budget=-1)


def test_fail_fast_aborts_on_first_stage_failure(monkeypatch):
    _fail_every(monkeypatch, nth=1)
    campaign = ImpeccableCampaign(_config(failure_policy="fail_fast"))
    with pytest.raises(
        TaskFailedError,
        match=r"^S3-CG unit \S+ failed: RuntimeError: simulated node failure$",
    ):
        campaign.run()


def test_drop_and_continue_reports_every_drop(monkeypatch):
    # at nth=8 one of the two CG compounds has a failing replica
    _fail_every(monkeypatch, nth=8)
    campaign = ImpeccableCampaign(_config(failure_policy="drop_and_continue"))
    result = campaign.run()
    summary = result.failure_summary
    # something failed, the run still finished, and nothing vanished:
    # every injected failure is accounted for as a drop
    assert summary.n_dropped > 0
    assert summary.reconciles()
    dropped_cg = summary.dropped_by_stage.get("S3-CG", 0)
    it = result.iterations[0]
    assert 0 < dropped_cg < campaign.config.cg_compounds
    assert len(it.cg_results) == campaign.config.cg_compounds - dropped_cg
    # one drop per unit with a failing replica, however many of its
    # replicas failed; every surviving unit ran all its replicas clean
    cfg = campaign.config
    for r in it.cg_results:
        assert not any(replica_faults.fails(r.compound_id, k) for k in range(cfg.cg.replicas))
    fg_units = [
        f"{s.compound_id}/r{s.replica}f{s.frame}"
        for s2 in it.s2_by_structure.values()
        for s in s2.selections
    ]
    failing = [
        u for u in fg_units
        if any(replica_faults.fails(u, k) for k in range(cfg.fg.replicas))
    ]
    assert summary.dropped_by_stage.get("S3-FG", 0) == len(failing)
    assert [r.compound_id for r in it.fg_results] == [
        u for u in fg_units if u not in failing
    ]


def test_stage_failure_budget_bounds_the_drops(monkeypatch):
    _fail_every(monkeypatch, nth=1)
    campaign = ImpeccableCampaign(
        _config(failure_policy="drop_and_continue", stage_failure_budget=1)
    )
    with pytest.raises(TaskFailedError, match="budget"):
        campaign.run()
    # the budget allowed exactly one drop before aborting
    assert campaign.failures.dropped_by_stage["S3-CG"] == 2


def _poison(monkeypatch, victim):
    """Make ligand preparation raise for one compound id."""
    original = DockingEngine._prepared

    def poisoned(self, smiles, compound_id=""):
        if compound_id == victim:
            raise RuntimeError("poisoned ligand")
        return original(self, smiles, compound_id)

    monkeypatch.setattr(DockingEngine, "_prepared", poisoned)


@pytest.mark.parametrize("pdb_ids", [(), ("6W9C", "6WX4")])
def test_poisoned_s1_compound_drops_exactly_itself(monkeypatch, pdb_ids):
    """A raising compound fails its whole shard; the per-compound re-dock
    drops it alone and every other result equals a clean run's."""
    cfg = _config(failure_policy="drop_and_continue", pdb_ids=pdb_ids)
    indices = list(range(10))
    clean = ImpeccableCampaign(cfg)
    clean_docked = clean._dock_batch(indices, "seed")
    victim = clean_docked[3].compound_id

    _poison(monkeypatch, victim)
    campaign = ImpeccableCampaign(cfg)
    docked = campaign._dock_batch(indices, "seed")
    assert docked == [r for r in clean_docked if r.compound_id != victim]
    assert campaign.failures.dropped_by_stage == {"S1": 1}
    assert victim not in campaign._docked_ids  # a later ML1 may re-drive it
    assert campaign._train_scores == [r.score for r in docked]
    assert campaign._best_structure == {
        cid: pdb for cid, pdb in clean._best_structure.items() if cid != victim
    }

    fail_fast = ImpeccableCampaign(cfg.replace(failure_policy="fail_fast"))
    with pytest.raises(
        TaskFailedError, match=f"S1 unit {victim} failed: RuntimeError: poisoned ligand"
    ):
        fail_fast._dock_batch(indices, "seed")

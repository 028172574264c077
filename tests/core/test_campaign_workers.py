"""Campaign science on resident worker processes.

S3-CG/S3-FG replicas run as pilot tasks on a fork-context process pool the
campaign owns: forked at the first S3 unit (not at construction), reused
by every later S3 unit, and shut down on every way out of
``iter_units``.  The worker count never changes a result, the pilot keeps
no replica record, and no worker outlives its campaign — after a clean
run, a ``close()`` mid-stage, a ``fail_fast`` raise, or a worker killed
mid-stage.
"""

import multiprocessing

import pytest

from repro.core.campaign import CampaignConfig, ImpeccableCampaign
from repro.esmacs.protocol import EsmacsConfig
from repro.rct import pilot as pilot_module
from repro.rct.fault import TaskFailedError
from repro.service.work import campaign_result_digest

from tests.core import replica_faults

_MD = dict(
    equilibration_ns=1,
    production_ns=4,
    steps_per_ns=4,
    n_residues=40,
    record_every=4,
    minimize_iterations=10,
)


def _config(**overrides) -> CampaignConfig:
    return CampaignConfig(
        library_size=16,
        seed_train_size=6,
        iterations=1,
        cg_compounds=2,
        s2_top_compounds=1,
        s2_outliers_per_compound=1,
        cg=EsmacsConfig(replicas=3, **_MD),
        fg=EsmacsConfig(replicas=4, **_MD),
        compute_enrichment=False,
        failure_policy="drop_and_continue",
        seed=0,
    ).replace(**overrides)


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def no_new_children():
    """Fail if the test leaves a child process it did not find."""
    before = _children()
    yield before
    assert _children() <= before


@pytest.fixture(scope="module")
def clean_digest() -> str:
    return campaign_result_digest(ImpeccableCampaign(_config()).run())


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_digest_does_not_depend_on_worker_count(
    monkeypatch, no_new_children, clean_digest, workers
):
    monkeypatch.setattr(pilot_module, "_worker_count", lambda: workers)
    result = ImpeccableCampaign(_config()).run()
    assert result.iterations[0].fg_results
    assert campaign_result_digest(result) == clean_digest


def test_workers_fork_at_first_s3_unit_and_are_reused(monkeypatch, no_new_children):
    monkeypatch.setattr(pilot_module, "_worker_count", lambda: 2)
    campaign = ImpeccableCampaign(_config())
    pilots = {}
    for unit in campaign.iter_units():
        if unit.stage in ("seed", "ML1", "S1"):
            assert campaign._pilot is None  # no fork before S3
            assert _children() == no_new_children
        unit.complete()
        pilots[unit.stage] = campaign._pilot
        if unit.stage == "S3-CG":
            assert len(_children() - no_new_children) == 2
    assert pilots["S3-CG"] is not None
    assert pilots["S3-FG"] is pilots["S3-CG"]  # one pool for the campaign
    assert campaign._pilot is None  # exhaustion shut it down


def test_the_pilot_keeps_no_replica_records(monkeypatch, no_new_children):
    """Replica outputs reach the campaign through the ordered stream, so
    the resident pilot holds none of them between stages or iterations."""
    monkeypatch.setattr(pilot_module, "_worker_count", lambda: 2)
    campaign = ImpeccableCampaign(_config(iterations=2))
    fg_units = 0
    for unit in campaign.iter_units():
        unit.complete()
        if unit.stage == "S3-FG":
            fg_units += 1
            assert campaign._pilot.records == []
    assert fg_units == 2


def test_close_mid_s3_fg_reaps_workers(no_new_children):
    campaign = ImpeccableCampaign(_config())
    units = campaign.iter_units()
    for unit in units:
        if unit.stage == "S3-FG":
            break
        unit.complete()
    assert _children() - no_new_children  # resident since S3-CG
    units.close()
    assert campaign._pilot is None
    assert _children() == no_new_children


def test_fail_fast_raise_reaps_workers(monkeypatch, no_new_children):
    replica_faults.install(monkeypatch, replica_faults.flaky_replica, fail_every=1)
    campaign = ImpeccableCampaign(_config(failure_policy="fail_fast"))
    with pytest.raises(TaskFailedError, match="S3-CG unit"):
        campaign.run()
    assert campaign._pilot is None


def test_killed_worker_raises_naming_the_stage(
    monkeypatch, no_new_children, clean_digest
):
    replica_faults.install(monkeypatch, replica_faults.killing_replica)
    campaign = ImpeccableCampaign(_config())
    with pytest.raises(TaskFailedError, match="S3-FG: a worker process died"):
        campaign.run()
    # a dead worker is the campaign's failure, not silent per-unit drops
    assert campaign.failures.n_dropped == 0
    assert campaign._pilot is None

    # the next campaign in this process forks a fresh, healthy pool
    monkeypatch.undo()
    again = ImpeccableCampaign(_config()).run()
    assert campaign_result_digest(again) == clean_digest

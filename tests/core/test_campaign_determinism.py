"""Same-seed campaigns replay bit-identically — even while failing.

The determinism contract (everything flows from ``CampaignConfig.seed``
through :mod:`repro.util.rng`) must survive fault injection: two runs
with the same seed and the same injected-failure pattern produce
identical failure ledgers, identical stage outputs, and identical
metrics.  Wall-clock fields are the only permitted difference.
"""

import dataclasses

import numpy as np

from repro.core.campaign import CampaignConfig, ImpeccableCampaign
from repro.esmacs.protocol import EsmacsConfig
from repro.rct.fault import FaultModel, RetryPolicy
from repro.rct.raptor import RaptorConfig, simulate_raptor

from tests.core import replica_faults

_SMALL_ESMACS = dict(
    equilibration_ns=1,
    production_ns=4,
    steps_per_ns=4,
    n_residues=40,
    record_every=4,
    minimize_iterations=10,
)


def _config():
    return CampaignConfig(
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
        failure_policy="drop_and_continue",
        seed=0,
    )


def _fail_every(monkeypatch, nth):
    """Fail the replica tasks whose (unit, replica) key hashes to 0 mod
    ``nth``: the pattern is a function of the work, so both runs see the
    identical failure pattern."""
    replica_faults.install(monkeypatch, replica_faults.flaky_replica, nth)


def _fingerprint(result):
    """Every deterministic observable of a campaign run (no wall time)."""
    out = {
        "ledger": dataclasses.asdict(result.failure_summary),
        "docked_scores": result.docked_scores,
        "iterations": [],
    }
    for it in result.iterations:
        out["iterations"].append(
            {
                "docked": [(d.compound_id, d.score, d.conformer) for d in it.docked],
                "cg": [
                    (r.compound_id, r.binding_free_energy, r.sem, tuple(r.replica_dgs))
                    for r in it.cg_results
                ],
                "fg": [
                    (r.compound_id, r.binding_free_energy, r.sem, tuple(r.replica_dgs))
                    for r in it.fg_results
                ],
                "fg_parents": list(it.fg_parents),
                "effective_ligands": it.metrics.effective_ligands,
                "stage_ligands": {
                    name: s.n_ligands for name, s in it.metrics.stages.items()
                },
            }
        )
    return out


def test_same_seed_campaigns_replay_identically_under_faults(monkeypatch):
    _fail_every(monkeypatch, nth=8)
    first = ImpeccableCampaign(_config()).run()
    second = ImpeccableCampaign(_config()).run()
    assert first.failure_summary.n_dropped > 0  # faults actually fired
    assert _fingerprint(first) == _fingerprint(second)


def test_same_seed_campaigns_replay_identically_clean():
    first = ImpeccableCampaign(_config()).run()
    second = ImpeccableCampaign(_config()).run()
    assert _fingerprint(first) == _fingerprint(second)


def test_fault_model_injection_is_seed_deterministic():
    """Sim-level twin: same FaultModel seed → identical ledger and layout."""
    d = np.full(500, 0.2)
    cfg = RaptorConfig(n_workers=10, bulk_size=8)

    def run():
        return simulate_raptor(
            d,
            cfg,
            fault_model=FaultModel(failure_rate=0.08, seed=7),
            retry=RetryPolicy(max_retries=2, backoff_base=0.1, seed=7),
        )

    a, b = run(), run()
    assert dataclasses.asdict(a.failure_summary) == dataclasses.asdict(
        b.failure_summary
    )
    assert a.failure_summary.n_failures > 0
    assert a.makespan == b.makespan  # virtual clock: exact, not approx
    assert np.array_equal(a.worker_busy, b.worker_busy)
    assert a.failed_indices == b.failed_indices

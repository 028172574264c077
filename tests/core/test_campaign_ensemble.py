"""Campaign with a receptor ensemble (multi-crystal-structure mode)."""

import pytest

from repro.core.campaign import CampaignConfig, ImpeccableCampaign
from repro.docking.lga import LGAConfig
from repro.esmacs.protocol import EsmacsConfig

MULTI = CampaignConfig(
    target="PLPro",
    pdb_id="6W9C",
    pdb_ids=("6W9C", "6WX4"),
    library_size=20,
    seed_train_size=8,
    iterations=1,
    cg_compounds=3,
    s2_top_compounds=2,
    s2_outliers_per_compound=2,
    cg=EsmacsConfig(
        replicas=3, equilibration_ns=1, production_ns=4, steps_per_ns=4,
        n_residues=40, record_every=4, minimize_iterations=10,
    ),
    fg=EsmacsConfig(
        replicas=4, equilibration_ns=2, production_ns=10, steps_per_ns=4,
        n_residues=40, record_every=10, minimize_iterations=10,
    ),
    compute_enrichment=False,
    seed=0,
)


@pytest.fixture(scope="module")
def result():
    return ImpeccableCampaign(MULTI).run()


def test_both_structures_engaged(result):
    it = result.iterations[0]
    # the campaign tracked per-compound best structures from the ensemble
    campaign_structures = set()
    for r in it.cg_results:
        campaign_structures.add(r.compound_id)
    assert len(it.cg_results) == 3


def test_consensus_scores_never_worse_than_primary():
    """Ensemble-best docking scores are at most the primary structure's."""
    single = ImpeccableCampaign(MULTI.replace(pdb_ids=())).run()
    multi = ImpeccableCampaign(MULTI).run()
    for cid, score in multi.docked_scores.items():
        if cid in single.docked_scores:
            assert score <= single.docked_scores[cid] + 1e-9


def test_s2_grouped_by_structure(result):
    it = result.iterations[0]
    assert it.s2_by_structure  # at least one group ran
    for pdb, s2 in it.s2_by_structure.items():
        assert pdb in ("6W9C", "6WX4")
        assert len(s2.selections) > 0
    # the exposed s2_result is the largest group's
    largest = max(it.s2_by_structure.values(), key=lambda r: len(r.dataset))
    assert it.s2_result is largest


def test_fg_ran_per_group(result):
    it = result.iterations[0]
    expected = sum(len(s2.selections) for s2 in it.s2_by_structure.values())
    assert len(it.fg_results) == expected


def test_structures_disagree_sometimes():
    """Different crystal structures rank compounds differently — the
    reason the paper docks against several."""
    campaign = ImpeccableCampaign(
        MULTI.replace(docking=LGAConfig(population=8, generations=3))
    )
    pairs = [(e.smiles, e.compound_id) for e in campaign.library.entries[:6]]
    a, b = (campaign.engines[pdb].dock_entries(pairs) for pdb in ("6W9C", "6WX4"))
    assert max(abs(x.score - y.score) for x, y in zip(a, b)) > 0.5

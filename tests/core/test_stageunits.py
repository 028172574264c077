"""The stage-unit decomposition is ``run()`` sliced, not a fork of it.

:meth:`ImpeccableCampaign.iter_units` must yield resumable stage units
whose stepped execution is observationally identical to the monolithic
``run()`` — same fingerprint, same unit protocol guarantees (a unit must
be completed before the next one is built, never completed twice).
"""

import pytest

import repro.core.campaign as campaign_mod
from repro.core.campaign import CampaignConfig, ImpeccableCampaign, StageUnit
from repro.core.costs import CostModel
from repro.docking.lga import LGAConfig
from repro.esmacs.protocol import EsmacsConfig
from repro.surrogate.train import TrainConfig
from repro.telemetry import TickClock, Tracer

from .test_campaign_determinism import _config, _fingerprint


def tiny_config(seed=0):
    """Smallest campaign that still visits every stage (~1s)."""
    small = dict(
        equilibration_ns=0.5,
        production_ns=1.0,
        steps_per_ns=6,
        n_residues=40,
        record_every=2,
        minimize_iterations=8,
    )
    return CampaignConfig(
        library_size=16,
        seed_train_size=6,
        iterations=1,
        cg_compounds=2,
        s2_top_compounds=1,
        s2_outliers_per_compound=1,
        docking=LGAConfig(population=8, generations=3),
        surrogate=TrainConfig(epochs=2, batch_size=8, width=4),
        cg=EsmacsConfig(replicas=2, **small),
        fg=EsmacsConfig(replicas=2, **small),
        compute_enrichment=False,
        failure_policy="drop_and_continue",
        seed=seed,
    )


def test_stepped_units_match_monolithic_run():
    baseline = ImpeccableCampaign(_config()).run()
    stepped = ImpeccableCampaign(_config())
    units = []
    for unit in stepped.iter_units():
        units.append(unit)
        unit.complete()
    assert stepped.result is not None
    assert _fingerprint(stepped.result) == _fingerprint(baseline)
    # seed bootstrap first, retrain last, every unit completed
    assert units[0].unit_id == "seed"
    assert units[-1].stage == "retrain"
    assert all(u.done for u in units)


def test_unit_ids_name_iteration_and_stage():
    campaign = ImpeccableCampaign(tiny_config())
    ids = []
    for unit in campaign.iter_units():
        ids.append(unit.unit_id)
        unit.complete()
    assert ids[0] == "seed"
    assert "it0/ML1" in ids
    assert "it0/S1" in ids
    assert "it0/retrain" in ids
    assert len(ids) == len(set(ids))


def test_advancing_without_complete_raises():
    campaign = ImpeccableCampaign(tiny_config())
    gen = campaign.iter_units()
    next(gen)  # seed unit, deliberately not completed
    with pytest.raises(RuntimeError, match="complete"):
        next(gen)


def test_completing_a_unit_twice_raises():
    campaign = ImpeccableCampaign(tiny_config())
    unit = next(campaign.iter_units())
    unit.complete()
    with pytest.raises(RuntimeError):
        unit.complete()


def test_stageunit_dataclass_shape():
    unit = StageUnit("S1", 0, 12, lambda: None)
    assert unit.unit_id == "it0/S1"
    assert not unit.done
    seed = StageUnit("seed", -1, 6, lambda: None)
    assert seed.unit_id == "seed"


def test_run_still_returns_result():
    result = ImpeccableCampaign(tiny_config()).run()
    assert result.iterations
    assert result.docked_scores


def test_stage_spans_read_what_the_accounting_records(monkeypatch):
    """Each accounted stage's span carries its StageAccounting's ligand
    count; an S2 with no structure's result reads 0 and is not accounted,
    and S3-FG, given nothing, neither runs nor opens a span."""

    def s2_down(*args, **kwargs):
        raise RuntimeError("S2 down")

    monkeypatch.setattr(campaign_mod, "run_s2", s2_down)
    tracer = Tracer(clock=TickClock())
    campaign = ImpeccableCampaign(tiny_config(), tracer=tracer)
    stages = []
    for unit in campaign.iter_units():
        stages.append(unit.stage)
        unit.complete()
    assert stages == ["seed", "ML1", "S1", "S3-CG", "S2", "retrain"]
    assert campaign.failures.dropped_by_stage["S2"] >= 1
    metrics = campaign.result.iterations[0].metrics
    spans = {s.name: s for s in tracer.spans("campaign.stage")}
    # seed and retrain have no stage span
    assert sorted(spans) == ["stage:ML1", "stage:S1", "stage:S2", "stage:S3-CG"]
    assert all(s.attrs["iteration"] == 0 for s in spans.values())
    for name in ("ML1", "S1", "S3-CG"):
        assert spans[f"stage:{name}"].attrs["n_ligands"] == metrics.stages[name].n_ligands
    assert metrics.stages["S3-CG"].n_ligands > 0
    assert spans["stage:S2"].attrs["n_ligands"] == 0
    assert sorted(metrics.stages) == ["ML1", "S1", "S3-CG"]


def test_ml1_counts_the_compounds_it_ranked():
    """ML1 ranks only the undocked library: its unit size, span and
    accounting all read that count (16 compounds, 6 docked by the seed)."""
    tracer = Tracer(clock=TickClock())
    campaign = ImpeccableCampaign(tiny_config(), tracer=tracer)
    sizes = {}
    for unit in campaign.iter_units():
        sizes[unit.stage] = unit.n_items
        unit.complete()
    (span,) = [s for s in tracer.spans("campaign.stage") if s.name == "stage:ML1"]
    accounting = campaign.result.iterations[0].metrics.stages["ML1"]
    assert sizes["ML1"] == span.attrs["n_ligands"] == accounting.n_ligands == 10


def test_stage_node_hours_follow_the_cost_model():
    result = ImpeccableCampaign(tiny_config()).run()
    cost = CostModel()
    stages = result.iterations[0].metrics.stages
    assert sorted(stages) == ["ML1", "S1", "S2", "S3-CG", "S3-FG"]
    for name, acc in stages.items():
        if name == "ML1":
            expected = cost.ml1_wall_seconds(acc.n_ligands) / 3600.0 / cost.node.gpus
        else:
            expected = acc.n_ligands * cost.node_hours_per_ligand(name)
        assert acc.node_hours == expected

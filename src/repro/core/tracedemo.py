"""A deterministic end-to-end traced run for ``repro trace``.

One small, seeded pass through every instrumented subsystem on a shared
:class:`~repro.telemetry.Tracer` driven by a virtual
:class:`~repro.telemetry.TickClock`:

1. a tiny :class:`~repro.core.campaign.ImpeccableCampaign` iteration —
   stage boundaries (``campaign.stage``), one docking shard per stage
   and receptor (``docking``) with its per-kernel-phase spans
   (``docking.kernel``) and compiled-graph kernel profiles (``nn.op``);
2. a fault-injected RAPTOR simulation — master dispatch, item attempts
   and retry backoffs (``raptor.dispatch`` / ``raptor.exec`` /
   ``raptor.backoff``);
3. an integrated run on the simulated cluster — pilot placement and
   backoff spans (``pilot.task`` / ``pilot.backoff``).

Every clock read comes from the tick clock and every decision from the
seed, so two runs at the same seed export byte-identical traces — the
property ``tests/telemetry/test_trace_determinism.py`` pins down.
"""

from __future__ import annotations

from repro.telemetry import TickClock, Tracer

__all__ = ["run_traced_demo"]


def run_traced_demo(seed: int = 0, tracer: Tracer | None = None) -> Tracer:
    """Run the demo; returns the tracer holding the full span set."""
    from repro.core.campaign import CampaignConfig, ImpeccableCampaign
    from repro.core.simulate import SimulatedCampaignConfig, simulate_integrated_run
    from repro.docking.lga import LGAConfig
    from repro.esmacs.protocol import EsmacsConfig
    from repro.rct.fault import FaultModel, RetryPolicy
    from repro.rct.raptor import RaptorConfig, simulate_raptor
    from repro.rct.task import reset_uid_counter
    from repro.surrogate.train import TrainConfig
    from repro.util.rng import rng_stream

    if tracer is None:
        tracer = Tracer(clock=TickClock())

    # fault draws key on task uid; pin uids so reruns in a warm process
    # (where the global counter has advanced) stay byte-identical
    reset_uid_counter()

    # -- 1. tiny campaign: stage, docking and nn.op spans ----------------
    small_md = EsmacsConfig(
        replicas=2,
        equilibration_ns=0.5,
        production_ns=1.0,
        steps_per_ns=6,
        n_residues=40,
        record_every=2,
        minimize_iterations=8,
    )
    campaign = ImpeccableCampaign(
        CampaignConfig(
            library_size=16,
            seed_train_size=6,
            iterations=1,
            ml1_keep_fraction=0.25,
            ml1_explore_fraction=0.0,
            cg_compounds=2,
            s2_top_compounds=1,
            s2_outliers_per_compound=1,
            docking=LGAConfig(population=8, generations=3),
            surrogate=TrainConfig(epochs=2, batch_size=8, width=4),
            cg=small_md,
            fg=small_md,
            compute_enrichment=False,
            seed=seed,
        ),
        tracer=tracer,
    )
    campaign.run()

    # -- 2. fault-injected RAPTOR: dispatch / exec / backoff spans -------
    durations = rng_stream(seed, "tracedemo/durations").uniform(1.0, 5.0, size=24)
    simulate_raptor(
        durations,
        RaptorConfig(n_workers=4, n_masters=2, bulk_size=4),
        fault_model=FaultModel(failure_rate=0.2, seed=seed),
        retry=RetryPolicy(max_retries=2, backoff_base=0.5, seed=seed),
        tracer=tracer,
    )

    # -- 3. simulated cluster: pilot.task / pilot.backoff spans ----------
    simulate_integrated_run(
        SimulatedCampaignConfig(
            n_nodes=8,
            cg_compounds=8,
            s2_compounds=4,
            fg_compounds=4,
            cohorts=2,
            seed=seed,
        ),
        tracer=tracer,
        fault_model=FaultModel(failure_rate=0.15, seed=seed),
        retry=RetryPolicy(max_retries=2, backoff_base=2.0, seed=seed),
    )
    return tracer

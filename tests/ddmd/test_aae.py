"""Tests for the 3D adversarial autoencoder."""

import numpy as np
import pytest

from repro.ddmd.aae import AAE, AAEConfig, train_aae
from repro.util.rng import rng_stream
from tests.nn import oracle

TINY = AAEConfig(epochs=5, latent_dim=6, hidden=12, batch_size=16)


def _clouds(n=40, n_points=20, seed=0):
    rng = rng_stream(seed, "t/aae")
    v = rng.normal(size=(n, n_points, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    return v + rng.normal(scale=0.05, size=v.shape)


def test_training_reduces_reconstruction_loss():
    model = AAE(TINY, n_points=20, seed=0)
    hist = model.fit(_clouds())
    assert hist.train_reconstruction[-1] < hist.train_reconstruction[0]
    assert len(hist.train_reconstruction) == TINY.epochs
    assert len(hist.val_reconstruction) == TINY.epochs
    assert np.isfinite(hist.train_adversarial).all()


def test_embedding_shape_and_determinism():
    clouds = _clouds()
    model = train_aae(clouds, TINY, seed=1)
    z = model.embed(clouds)
    assert z.shape == (40, TINY.latent_dim)
    np.testing.assert_array_equal(z, model.embed(clouds))


def test_encoder_permutation_invariant():
    """PointNet max-pool: point order must not change the embedding."""
    clouds = _clouds(n=8)
    model = AAE(TINY, n_points=20, seed=2)
    rng = rng_stream(1, "t/perm")
    perm = rng.permutation(20)
    z1 = model.embed(clouds)
    z2 = model.embed(clouds[:, perm])
    np.testing.assert_allclose(z1, z2, atol=1e-10)


def test_reconstruction_shape():
    clouds = _clouds(n=6)
    model = AAE(TINY, n_points=20, seed=3)
    recon = model.reconstruct(clouds)
    assert recon.shape == clouds.shape


def test_structurally_different_clouds_separate_in_latent():
    rng = rng_stream(2, "t/sep")

    def shape(scale, n=30):
        out = []
        for _ in range(n):
            v = rng.normal(size=(20, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            v[:, 0] *= scale
            out.append(v + rng.normal(scale=0.03, size=v.shape))
        return np.array(out)

    a, b = shape(1.0), shape(3.0)
    model = train_aae(np.concatenate([a, b]), TINY, seed=4)
    za, zb = model.embed(a), model.embed(b)
    gap = np.linalg.norm(za.mean(axis=0) - zb.mean(axis=0))
    within = (za.std(axis=0).mean() + zb.std(axis=0).mean()) / 2
    assert gap > 2.0 * within


def test_training_deterministic():
    clouds = _clouds()
    a = train_aae(clouds, TINY, seed=5)
    b = train_aae(clouds, TINY, seed=5)
    np.testing.assert_array_equal(a.embed(clouds), b.embed(clouds))


def test_validates_input_shapes():
    model = AAE(TINY, n_points=20, seed=6)
    with pytest.raises(ValueError):
        model.fit(np.zeros((10, 7, 3)))  # wrong n_points
    with pytest.raises(ValueError):
        model.fit(np.zeros((2, 20, 3)))  # too few examples


def test_config_validation():
    with pytest.raises(ValueError):
        AAEConfig(latent_dim=0)
    with pytest.raises(ValueError):
        AAEConfig(prior_std=-0.1)
    with pytest.raises(ValueError):
        AAEConfig(validation_fraction=0.95)


def test_paper_hyperparameters_are_defaults():
    cfg = AAEConfig()
    assert cfg.prior_std == 0.2
    assert cfg.reconstruction_scale == 0.5
    assert cfg.gradient_penalty_scale == 10.0


# --------------------------------------------- engine parity and telemetry
def _fit(engine, epochs, tracer=None):
    """Fit on the compiled steps ("graph") or with the interpreted
    ``EagerStep`` of ``tests/nn/oracle.py`` swapped in ("eager")."""
    model = AAE(AAEConfig(epochs=epochs, latent_dim=6, hidden=12, batch_size=16),
                n_points=20, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        if engine == "eager":
            oracle.install(mp)
        return model, model.fit(_clouds(), tracer=tracer)


def test_graph_engine_bitwise_matches_eager():
    graph, hg = _fit("graph", epochs=3)
    eager, he = _fit("eager", epochs=3)
    assert hg.train_reconstruction == he.train_reconstruction
    assert hg.train_adversarial == he.train_adversarial
    assert hg.val_reconstruction == he.val_reconstruction
    for mg, me in ((graph.encoder, eager.encoder), (graph.decoder, eager.decoder),
                   (graph.critic, eager.critic)):
        for pg, pe in zip(mg.parameters(), me.parameters()):
            assert np.array_equal(pg.data, pe.data)


def test_aae_engine_validated():
    """There is one step: the selector is gone, not defaulted."""
    with pytest.raises(TypeError, match="engine"):
        AAEConfig(engine="compiled")
    with pytest.raises(TypeError, match="engine"):
        AAEConfig(engine="graph")


def test_fit_emits_spans_and_identical_traces_across_engines():
    from repro.telemetry import TickClock, Tracer

    readings = {}
    for engine in ("graph", "eager"):
        tracer = Tracer(clock=TickClock())
        _fit(engine, epochs=2, tracer=tracer)
        spans = list(tracer.spans("train"))
        assert {s.name for s in spans} == {"train.epoch", "train.step"}
        epoch_spans = [s for s in spans if s.name == "train.epoch"]
        assert len(epoch_spans) == 2
        readings[engine] = (
            [s.attrs for s in epoch_spans],
            tracer.metrics.counter("train.steps").value,
            tracer.metrics.gauge("train.loss").value,
            tracer.metrics.gauge("train.critic_loss").value,
            tracer.metrics.gauge("train.grad_norm").value,
        )
    assert readings["graph"] == readings["eager"]

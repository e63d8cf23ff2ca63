"""Parity lockdown for the batched multi-city execution engine.

The vectorization refactor is only safe if the batched ``(b, n, d)``
paths reproduce the per-city loop exactly. Every test here compares a
batched forward (and backward) against the same module applied item by
item, at ≤1e-8 (float64; unpadded batches are in fact bit-identical).
"""

import numpy as np
import pytest

from repro.core import (
    BatchedTrainer,
    DAFusion,
    HAFusion,
    HAFusionConfig,
    InterAFL,
    IntraAFL,
    RegionFusion,
    build_batched_model,
    make_batch,
    shard_viewset,
)
from repro.data import CityConfig, generate_city
from repro.nn import Tensor
from repro.serving import EmbeddingService

ATOL = 1e-8
BATCH = 3


def _loop(module, xb, *args, **kwargs):
    """Apply ``module`` per batch item and stack the outputs."""
    return np.stack([module(Tensor(xb[i]), *args, **kwargs).data
                     for i in range(xb.shape[0])])


def _param_grads(module):
    return [None if p.grad is None else p.grad.copy()
            for p in module.parameters()]


def _assert_forward_backward_parity(module, xb, rtol=0.0):
    """Batched forward matches the loop; batched parameter gradients match
    the sum of per-item gradients (the defining property of a batch)."""
    out_batched = module(Tensor(xb)).data
    out_loop = _loop(module, xb)
    np.testing.assert_allclose(out_batched, out_loop, rtol=rtol, atol=ATOL)

    module.zero_grad()
    x = Tensor(xb, requires_grad=True)
    (module(x) * module(x)).sum().backward()
    grads_batched = _param_grads(module)
    grad_x_batched = x.grad.copy()

    module.zero_grad()
    grad_x_loop = []
    for i in range(xb.shape[0]):
        xi = Tensor(xb[i], requires_grad=True)
        (module(xi) * module(xi)).sum().backward()
        grad_x_loop.append(xi.grad.copy())
    grads_loop = _param_grads(module)

    np.testing.assert_allclose(grad_x_batched, np.stack(grad_x_loop),
                               rtol=rtol, atol=ATOL)
    for batched, looped in zip(grads_batched, grads_loop):
        assert (batched is None) == (looped is None)
        if batched is not None:
            np.testing.assert_allclose(batched, looped, rtol=rtol, atol=ATOL)


class TestModuleParity:
    def test_intra_afl(self, rng):
        enc = IntraAFL(input_dim=7, d_model=8, n_regions=6, num_layers=2,
                       num_heads=2, conv_channels=4, dropout=0.0, rng=rng)
        _assert_forward_backward_parity(enc, rng.standard_normal((BATCH, 6, 7)))

    def test_intra_afl_vanilla(self, rng):
        enc = IntraAFL(input_dim=7, d_model=8, n_regions=6, num_layers=1,
                       attention_kind="vanilla", num_heads=2, dropout=0.0, rng=rng)
        _assert_forward_backward_parity(enc, rng.standard_normal((BATCH, 6, 7)))

    def test_inter_afl(self, rng):
        inter = InterAFL(d_model=8, memory_size=5, num_layers=2, rng=rng)
        _assert_forward_backward_parity(inter, rng.standard_normal((BATCH, 6, 3, 8)))

    def test_inter_afl_vanilla(self, rng):
        inter = InterAFL(d_model=8, memory_size=5, num_layers=1,
                         attention_kind="vanilla", num_heads=2, rng=rng)
        _assert_forward_backward_parity(inter, rng.standard_normal((BATCH, 4, 2, 8)))

    def test_region_fusion(self, rng):
        fusion = RegionFusion(d_model=8, num_layers=2, num_heads=2,
                              dropout=0.0, rng=rng)
        _assert_forward_backward_parity(fusion, rng.standard_normal((BATCH, 6, 8)))

    def test_dafusion(self, rng):
        fusion = DAFusion(d_model=8, d_prime=4, num_layers=2, num_heads=2,
                          dropout=0.0, rng=rng)
        views = [rng.standard_normal((BATCH, 6, 8)) for _ in range(3)]
        out_batched = fusion([Tensor(v) for v in views]).data
        out_loop = np.stack([
            fusion([Tensor(v[i]) for v in views]).data for i in range(BATCH)])
        np.testing.assert_allclose(out_batched, out_loop, rtol=0.0, atol=ATOL)

        fusion.zero_grad()
        inputs = [Tensor(v, requires_grad=True) for v in views]
        (fusion(inputs) ** 2.0).sum().backward()
        grads_batched = _param_grads(fusion)
        grad_views_batched = [v.grad.copy() for v in inputs]

        fusion.zero_grad()
        grad_views_loop = [[] for _ in views]
        for i in range(BATCH):
            items = [Tensor(v[i], requires_grad=True) for v in views]
            (fusion(items) ** 2.0).sum().backward()
            for j, item in enumerate(items):
                grad_views_loop[j].append(item.grad.copy())
        for batched, looped in zip(grads_batched, _param_grads(fusion)):
            if batched is not None:
                np.testing.assert_allclose(batched, looped, rtol=0.0, atol=ATOL)
        for batched, looped in zip(grad_views_batched, grad_views_loop):
            np.testing.assert_allclose(batched, np.stack(looped), rtol=0.0, atol=ATOL)


class TestFullModelParity:
    @pytest.fixture(scope="class")
    def model_and_views(self):
        rng = np.random.default_rng(11)
        config = HAFusionConfig(d=16, d_prime=8, conv_channels=4, memory_size=6,
                                num_heads=2, intra_layers=1, inter_layers=1,
                                fusion_layers=1, epochs=5, dropout=0.0)
        model = HAFusion([7, 5, 4], n_regions=6, config=config, rng=rng)
        views = [rng.standard_normal((BATCH, 6, d)) for d in (7, 5, 4)]
        return model, views

    def test_forward_parity(self, model_and_views):
        model, views = model_and_views
        out_batched = model([Tensor(v) for v in views]).data
        out_loop = np.stack([
            model([Tensor(v[i]) for v in views]).data for i in range(BATCH)])
        np.testing.assert_allclose(out_batched, out_loop, rtol=0.0, atol=ATOL)

    def test_backward_parity(self, model_and_views):
        model, views = model_and_views
        model.zero_grad()
        (model([Tensor(v) for v in views]) ** 2.0).sum().backward()
        grads_batched = [p.grad.copy() for p in model.parameters()
                         if p.grad is not None]
        model.zero_grad()
        for i in range(BATCH):
            (model([Tensor(v[i]) for v in views]) ** 2.0).sum().backward()
        grads_loop = [p.grad.copy() for p in model.parameters()
                      if p.grad is not None]
        assert len(grads_batched) == len(grads_loop)
        for batched, looped in zip(grads_batched, grads_loop):
            np.testing.assert_allclose(batched, looped, rtol=0.0, atol=ATOL)


@pytest.fixture(scope="module")
def ragged_cities():
    """Three small cities with different region counts (ragged batch)."""
    return [
        generate_city(CityConfig(name=f"parity{n}", n_regions=n,
                                 total_trips=5000, poi_total=1200), seed=seed)
        for n, seed in ((12, 0), (9, 1), (14, 2))
    ]


@pytest.fixture(scope="module")
def tiny_config():
    return HAFusionConfig(d=16, d_prime=8, conv_channels=4, memory_size=6,
                          num_heads=2, intra_layers=1, inter_layers=1,
                          fusion_layers=1, epochs=5, dropout=0.0)


class TestEngineParity:
    def test_ragged_embed_batch_matches_embed_each(self, ragged_cities,
                                                   tiny_config):
        service = EmbeddingService.build(ragged_cities, tiny_config, seed=0,
                                         compiled=False)
        batch = make_batch(ragged_cities)
        batched = service.embed_batch(batch)
        sequential = service.embed_each(batch)
        assert len(batched) == 3
        for b, s, city in zip(batched, sequential, ragged_cities):
            assert b.shape == (city.n_regions, tiny_config.d)
            np.testing.assert_allclose(b, s, rtol=0.0, atol=ATOL)

    def test_unpadded_batch_matches_original_forward(self, tiny_config):
        """Same-size cities skip masking entirely, and a single batched
        pass must equal the pre-refactor per-city forward."""
        cities = [generate_city(CityConfig(name=f"same{s}", n_regions=10,
                                           total_trips=5000, poi_total=1200),
                                seed=s) for s in range(3)]
        batch = make_batch(cities)
        assert not batch.is_padded
        model = build_batched_model(batch, tiny_config, seed=0)
        batched = EmbeddingService(model, compiled=False).embed_batch(batch)
        for embedding, city in zip(batched, cities):
            direct = model.embed(city.views())
            np.testing.assert_allclose(embedding, direct, rtol=0.0, atol=ATOL)

    def test_shards_cover_all_regions(self, ragged_cities, tiny_config):
        city = ragged_cities[2]
        shards = shard_viewset(city.views(), 3)
        assert sum(s.n_regions for s in shards) == city.n_regions
        service = EmbeddingService.build(shards, tiny_config, seed=0,
                                         compiled=False)
        result = service.embed_batch(make_batch(shards))
        assert sum(e.shape[0] for e in result) == city.n_regions

    def test_shard_bounds_validated(self, ragged_cities):
        views = ragged_cities[0].views()
        with pytest.raises(ValueError):
            shard_viewset(views, 0)
        with pytest.raises(ValueError):
            shard_viewset(views, views.n_regions + 1)

    def test_mismatched_views_rejected(self, ragged_cities):
        subset = ragged_cities[0].views().subset(["poi"])
        with pytest.raises(ValueError):
            make_batch([subset, ragged_cities[1].views()])

    @pytest.mark.parametrize("overrides", [
        dict(intra_attention="vanilla"),
        dict(inter_attention="vanilla"),
        dict(fusion="sum"),
        dict(fusion="concat"),
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_ragged_parity_across_ablations(self, ragged_cities, tiny_config,
                                            overrides):
        """Every architecture variant must keep the masked-batch contract,
        including the vanilla-attention and sum/concat ablation paths."""
        config = tiny_config.with_overrides(**overrides)
        service = EmbeddingService.build(ragged_cities, config, seed=0,
                                         compiled=False)
        batch = make_batch(ragged_cities)
        batched = service.embed_batch(batch)
        sequential = service.embed_each(batch)
        for b, s in zip(batched, sequential):
            np.testing.assert_allclose(b, s, rtol=0.0, atol=ATOL)


class TestBatchedTrainer:
    def test_initial_loss_matches_per_city_mean(self, ragged_cities, tiny_config):
        """The batch objective is the mean of per-city objectives: a
        trainer over the batch and three single-city trainers sharing the
        same model must agree before the first step."""
        trainer = BatchedTrainer(ragged_cities, tiny_config, seed=0)
        batched_loss = trainer.loss().item()
        per_city = [
            BatchedTrainer(trainer.batch.select([i]), tiny_config,
                           model=trainer.model).loss().item()
            for i in range(len(ragged_cities))
        ]
        assert batched_loss == pytest.approx(np.mean(per_city), abs=1e-8)

    def test_training_reduces_loss(self, ragged_cities, tiny_config):
        trainer = BatchedTrainer(ragged_cities, tiny_config, seed=0)
        history = trainer.train(epochs=8)
        assert history.improved()
        embeddings = trainer.embed()
        assert [e.shape[0] for e in embeddings] == [12, 9, 14]

    def test_sharded_training_drops_kl(self, ragged_cities, tiny_config):
        shards = shard_viewset(ragged_cities[0].views(), 2)
        trainer = BatchedTrainer(shards, tiny_config, seed=0)
        assert not trainer._use_kl
        assert trainer.train(epochs=4).improved()

    def test_masked_gradients_average_per_city_gradients(self, ragged_cities,
                                                         tiny_config):
        """The batch loss is the mean over cities, so its parameter
        gradients must equal the mean of per-city loss gradients — the
        masked-backward counterpart of the forward parity tests."""
        trainer = BatchedTrainer(ragged_cities, tiny_config, seed=0)
        trainer.model.zero_grad()
        trainer.loss().backward()
        params = trainer.model.parameters()
        grads_batched = [None if p.grad is None else p.grad.copy()
                         for p in params]

        trainer.model.zero_grad()
        for i in range(len(ragged_cities)):
            single = BatchedTrainer(trainer.batch.select([i]), tiny_config,
                                    model=trainer.model)
            (single.loss() * (1.0 / len(ragged_cities))).backward()
        for batched, param in zip(grads_batched, params):
            if batched is None:
                assert param.grad is None
            else:
                np.testing.assert_allclose(batched, param.grad,
                                           rtol=0.0, atol=ATOL)

"""EmbeddingService lockdown: round-trip parity between the scheduler and
the direct batch path, the model's train/eval mode, warm-up packs with
zero record epochs, and provenance."""

import numpy as np
import pytest

from repro.core import HAFusionConfig, make_batch
from repro.nn import RECORD_STATS, PlanCache
from repro.serving import (
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
    WarmupPack,
    default_shape_grid,
)
from serving_utils import TINY, make_views


@pytest.fixture(scope="module")
def cities():
    return [make_views(10, seed=i) for i in range(3)]


@pytest.fixture(scope="module")
def ragged_cities():
    return [make_views(n, seed=n) for n in (10, 7, 4)]


class TestRoundTripParity:
    """Acceptance criterion: the scheduler round-trips bit-identically
    (≤1e-8 in float64) with a direct ``embed_batch``."""

    def test_uniform_traffic_is_bitwise_identical(self, cities):
        service = EmbeddingService.build(
            cities, HAFusionConfig(**TINY), seed=11,
            policy=FlushPolicy(max_batch=len(cities), max_wait=60.0))
        direct = service.embed_batch(make_batch(cities))
        responses = service.run([EmbedRequest(vs) for vs in cities])
        # Same composition, same plan, same resident buffers: the
        # scheduler flush IS the direct batched pass.
        for response, reference in zip(responses, direct):
            assert (response.embeddings == reference).all()

    def test_ragged_traffic_parity(self, ragged_cities):
        service = EmbeddingService.build(
            ragged_cities, HAFusionConfig(**TINY), seed=11,
            policy=FlushPolicy(max_batch=8, max_wait=60.0))
        batch = make_batch(ragged_cities, n_max=service.n_max,
                           view_dims=service.view_dims)
        direct = service.embed_batch(batch)
        responses = service.run([EmbedRequest(vs) for vs in ragged_cities])
        for response, reference in zip(responses, direct):
            assert np.abs(response.embeddings - reference).max() <= 1e-8

    def test_eager_and_compiled_service_agree(self, ragged_cities):
        config = HAFusionConfig(**TINY)
        compiled = EmbeddingService.build(ragged_cities, config, seed=11)
        eager = EmbeddingService(compiled.model, n_max=compiled.n_max,
                                 view_dims=compiled.view_dims,
                                 compiled=False)
        batch = make_batch(ragged_cities)
        for a, b in zip(compiled.embed_batch(batch), eager.embed_batch(batch)):
            assert np.abs(a - b).max() <= 1e-8

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_eager_path_keeps_the_models_mode(self, ragged_cities, training):
        """An eager embed_batch or embed_each leaves the model in the mode
        it found it in, as the compiled path does: an eval-mode model
        must not come back with dropout switched on."""
        service = EmbeddingService.build(ragged_cities, HAFusionConfig(**TINY),
                                         seed=11, compiled=False)
        service.model.train(training)
        batch = make_batch(ragged_cities)
        service.embed_batch(batch)
        assert service.model.training is training
        service.embed_each(batch)
        assert service.model.training is training

    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["eager", "record"])
    def test_raising_forward_keeps_the_models_mode(self, ragged_cities,
                                                   compiled):
        """A forward that raises — here on views 3 columns wider than
        the model's — hands a train-mode model back in train mode, on
        the eager path and while recording a plan."""
        service = EmbeddingService.build(ragged_cities, HAFusionConfig(**TINY),
                                         seed=11, compiled=compiled,
                                         plan_cache=PlanCache())
        assert service.model.training
        wide = make_batch(ragged_cities,
                          view_dims=[d + 3 for d in service.view_dims])
        with pytest.raises(ValueError):
            service.embed_batch(wide)
        assert service.model.training
        with pytest.raises(ValueError):
            service.embed_each(wide)
        assert service.model.training


class TestWarmupPack:
    def test_warm_start_performs_zero_record_epochs(self, ragged_cities,
                                                    tmp_path):
        """Acceptance criterion: after a warm-up pack load, a fresh
        service serves the warmed shape grid without a single record
        epoch, bit-identically."""
        config = HAFusionConfig(**TINY)
        policy = FlushPolicy(max_batch=3, max_wait=60.0)
        reference = EmbeddingService.build(
            ragged_cities, config, seed=11, policy=policy,
            plan_cache=PlanCache(directory=tmp_path))
        pack = WarmupPack.build(reference)
        assert pack.shapes  # the scheduler grid is non-trivial
        warm_responses = reference.run(
            [EmbedRequest(vs) for vs in ragged_cities])

        restarted = EmbeddingService.build(ragged_cities, config, seed=11,
                                           policy=policy)
        WarmupPack.load(tmp_path).attach(restarted)
        RECORD_STATS.reset()
        responses = restarted.run([EmbedRequest(vs) for vs in ragged_cities])
        assert RECORD_STATS.total == 0
        assert restarted.plan_cache.stats()["misses"] == 0
        for a, b in zip(warm_responses, responses):
            assert (a.embeddings == b.embeddings).all()
        assert all(r.plan_event in ("disk", "spec", "hit") for r in responses)

    def test_default_shape_grid_covers_every_edge(self):
        grid = default_shape_grid(4, (8, 16))
        assert grid == [(4, 8), (1, 8), (4, 16), (1, 16)]

    def test_incompatible_pack_rejected(self, ragged_cities, tmp_path):
        config = HAFusionConfig(**TINY)
        service = EmbeddingService.build(
            ragged_cities, config, seed=11,
            plan_cache=PlanCache(directory=tmp_path))
        pack = WarmupPack.build(service, shape_grid=[(1, 10)])
        other = EmbeddingService.build(
            ragged_cities, HAFusionConfig(**{**TINY, "d": 24}), seed=11)
        assert not pack.compatible_with(other)
        with pytest.raises(ValueError, match="different architecture"):
            pack.attach(other)

    def test_manifest_write_is_atomic(self, ragged_cities, tmp_path,
                                      monkeypatch):
        """PR 9 satellite: a crash between the manifest's temp write and
        its atomic rename must leave *no* manifest — ``load()`` (the
        fleet's pre-flight) must never see a partial pack as valid."""
        import os
        service = EmbeddingService.build(
            ragged_cities, HAFusionConfig(**TINY), seed=11,
            plan_cache=PlanCache(directory=tmp_path))
        real_replace = os.replace

        def crashing_replace(src, dst, *args, **kwargs):
            if str(dst).endswith("warmup_pack.json"):
                raise OSError("injected crash mid-manifest-write")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(OSError, match="injected"):
            WarmupPack.build(service, shape_grid=[(1, 10)])
        with pytest.raises(FileNotFoundError):
            WarmupPack.load(tmp_path)

    def test_crashed_rebuild_preserves_existing_manifest(self, ragged_cities,
                                                         tmp_path,
                                                         monkeypatch):
        import os
        service = EmbeddingService.build(
            ragged_cities, HAFusionConfig(**TINY), seed=11,
            plan_cache=PlanCache(directory=tmp_path))
        original = WarmupPack.build(service, shape_grid=[(1, 10)])
        real_replace = os.replace

        def crashing_replace(src, dst, *args, **kwargs):
            if str(dst).endswith("warmup_pack.json"):
                raise OSError("injected crash mid-manifest-write")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(OSError, match="injected"):
            WarmupPack.build(service, shape_grid=[(1, 10), (1, 7)])
        # The previous manifest survives the crashed rebuild intact.
        assert WarmupPack.load(tmp_path).manifest == original.manifest

    def test_pack_requires_a_directory(self, ragged_cities):
        service = EmbeddingService.build(ragged_cities,
                                         HAFusionConfig(**TINY), seed=11)
        with pytest.raises(ValueError, match="on-disk"):
            WarmupPack.build(service, shape_grid=[(1, 10)])

    def test_traffic_shapes_are_valid_warm_shapes(self, ragged_cities,
                                                  tmp_path):
        """Every manifest entry — grid or traffic-derived — must be a
        composition ``service.warm`` accepts (the traffic entries come
        from the flush log, one per co-batch, not one per response)."""
        config = HAFusionConfig(**TINY)
        service = EmbeddingService.build(
            ragged_cities, config, seed=11,
            policy=FlushPolicy(max_batch=2, max_wait=60.0),
            plan_cache=PlanCache(directory=tmp_path))
        pack = WarmupPack.build(service, traffic=ragged_cities)
        traffic_shapes = [s for s in pack.shapes if s.get("from_traffic")]
        assert traffic_shapes
        for shape in pack.shapes:
            assert len(shape["n_regions"]) == shape["batch_size"]
            service.warm(shape["batch_size"], shape["n_regions"])


class TestRequestFeatures:
    def test_region_subset(self, cities):
        service = EmbeddingService.build(cities, HAFusionConfig(**TINY),
                                         seed=11)
        full, subset = service.run([
            EmbedRequest(cities[0]),
            EmbedRequest(cities[0], region_subset=[7, 0, 3]),
        ])
        assert subset.embeddings.shape == (3, TINY["d"])
        assert (subset.embeddings == full.embeddings[[7, 0, 3]]).all()

    def test_region_subset_validated(self, cities):
        with pytest.raises(ValueError, match="out of range"):
            EmbedRequest(cities[0], region_subset=[11])

    def test_stats_report(self, ragged_cities):
        service = EmbeddingService.build(
            ragged_cities, HAFusionConfig(**TINY), seed=11,
            policy=FlushPolicy(max_batch=2, max_wait=60.0))
        service.run([EmbedRequest(vs) for vs in ragged_cities])
        stats = service.stats()
        assert stats["requests"] == stats["responses"] == 3
        assert stats["pending"] == 0
        assert stats["regions"] == sum(vs.n_regions for vs in ragged_cities)
        assert 0.0 <= stats["padding_overhead"] < 1.0
        assert stats["regions_per_sec"] > 0
        for bucket in stats["buckets"].values():
            assert bucket["requests"] >= 1
            assert sum(bucket["plan_events"].values()) == bucket["batches"]
        assert stats["plan_cache"]["misses"] >= 1
        assert "backend" not in stats
        replays = [row["replays"] for row in stats["resident_plans"]]
        assert replays == sorted(replays, reverse=True)

    def test_warm_validates_shapes(self, ragged_cities):
        service = EmbeddingService.build(ragged_cities,
                                         HAFusionConfig(**TINY), seed=11)
        with pytest.raises(ValueError, match="region counts"):
            service.warm(2, [5, 99])
        with pytest.raises(ValueError, match="batch_size"):
            service.warm(2, [5])


class TestMakeBatchForcing:
    def test_forced_layout(self, ragged_cities):
        batch = make_batch(ragged_cities, n_max=12, view_dims=[14, 6])
        assert batch.n_max == 12
        assert batch.view_dims == [14, 6]
        assert batch.is_padded

    def test_forced_layout_validated(self, ragged_cities):
        with pytest.raises(ValueError, match="n_max"):
            make_batch(ragged_cities, n_max=5)
        with pytest.raises(ValueError, match="view_dims"):
            make_batch(ragged_cities, view_dims=[4, 6])

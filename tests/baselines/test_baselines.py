"""Tests for the four baseline models and the DAFusion adapter."""

import numpy as np
import pytest

from repro.baselines import (
    HREP,
    MGFN,
    MVURE,
    DAFusionAdapter,
    PromptedLasso,
    RegionDCL,
    available_baselines,
    cluster_hourly_graphs,
    fit_baseline,
    make_baseline,
    train_baseline,
)
from repro.data import CityConfig, generate_city


@pytest.fixture(scope="module")
def city():
    config = CityConfig(name="tiny", n_regions=24, total_trips=60000, poi_total=2000)
    return generate_city(config, seed=4)


class TestRegistry:
    def test_available_names(self):
        names = available_baselines()
        assert names == ["hrep", "mgfn", "mvure", "region_dcl"]
        with_adapters = available_baselines(with_adapters=True)
        assert "mvure-dafusion" in with_adapters

    def test_make_each_baseline(self, city):
        for name in available_baselines():
            model = make_baseline(name, city, seed=1, d=16)
            assert model.d == 16

    def test_make_dafusion_variant(self, city):
        model = make_baseline("mvure-dafusion", city, seed=1, d=16)
        assert model.name == "mvure-dafusion"

    def test_unknown_name_rejected(self, city):
        with pytest.raises(KeyError):
            make_baseline("node2vec", city)
        with pytest.raises(KeyError):
            make_baseline("mvure-extra", city)

    def test_default_dims_match_paper(self, city):
        assert MVURE.default_dim == 96
        assert MGFN.default_dim == 96
        assert RegionDCL.default_dim == 64
        assert HREP.default_dim == 144


class TestMVURE:
    def test_four_views(self, city):
        model = MVURE(city, d=16, seed=1)
        views = model.view_embeddings()
        assert len(views) == 4
        assert all(v.shape == (24, 16) for v in views)

    def test_embed_shape(self, city):
        assert MVURE(city, d=16, seed=1).embed().shape == (24, 16)

    def test_training_reduces_loss(self, city):
        model = MVURE(city, d=16, seed=1)
        result = fit_baseline(model, epochs=15, lr=3e-3)
        assert result.improved()

    def test_fusion_is_convex(self, city):
        model = MVURE(city, d=16, seed=1)
        views = model.view_embeddings()
        from repro.nn import functional as F
        weights = F.softmax(model.fusion_logits, axis=0).data
        fused = model.fuse(views).data
        expected = sum(w * v.data for w, v in zip(weights, views))
        assert np.allclose(fused, expected)


class TestMGFN:
    def test_cluster_assignment_shape(self, city):
        assignment = cluster_hourly_graphs(city.mobility.hourly, n_patterns=5, seed=1)
        assert assignment.shape == (24,)
        assert set(assignment) <= set(range(5))

    def test_clustering_groups_similar_hours(self, city):
        # Deep-night hours should rarely share a pattern with AM peak.
        assignment = cluster_hourly_graphs(city.mobility.hourly, n_patterns=5, seed=1)
        assert len(set(assignment)) >= 2

    def test_bad_hourly_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            cluster_hourly_graphs(rng.random((24, 5, 6)))

    def test_embed_shape(self, city):
        assert MGFN(city, d=16, seed=1).embed().shape == (24, 16)

    def test_training_reduces_loss(self, city):
        model = MGFN(city, d=16, num_layers=1, seed=1)
        result = fit_baseline(model, epochs=15, lr=3e-3)
        assert result.improved()

    def test_mobility_only_diet(self, city):
        # MGFN never touches POI or land-use data: constructing it from a
        # city with zeroed POIs must give identical embeddings.
        import copy
        city2 = copy.copy(city)
        city2.poi_counts = np.zeros_like(city.poi_counts)
        a = MGFN(city, d=16, seed=1).embed()
        b = MGFN(city2, d=16, seed=1).embed()
        assert np.allclose(a, b)


class TestRegionDCL:
    def test_embed_shape(self, city):
        assert RegionDCL(city, d=16, seed=1).embed().shape == (24, 16)

    def test_training_reduces_loss(self, city):
        model = RegionDCL(city, d=16, seed=1)
        result = fit_baseline(model, epochs=25, lr=3e-3)
        assert result.improved()

    def test_contrastive_pulls_same_region_groups(self, city):
        model = RegionDCL(city, d=16, seed=1)
        fit_baseline(model, epochs=60, lr=3e-3)
        from repro.nn import no_grad
        model.eval()
        with no_grad():
            z = model.group_embeddings().data
        model.train()
        same = model._region_index[:, None] == model._region_index[None, :]
        np.fill_diagonal(same, False)
        diff = ~same
        np.fill_diagonal(diff, False)
        sims = z @ z.T
        assert sims[same].mean() > sims[diff].mean()

    def test_unit_norm_group_embeddings(self, city):
        model = RegionDCL(city, d=16, seed=1)
        from repro.nn import no_grad
        with no_grad():
            z = model.group_embeddings().data
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)


class TestHREP:
    def test_views_are_relations(self, city):
        model = HREP(city, d=16, seed=1)
        views = model.view_embeddings()
        assert len(views) == 3  # mobility, POI, neighbour relations

    def test_embed_shape(self, city):
        assert HREP(city, d=16, seed=1).embed().shape == (24, 16)

    def test_training_reduces_loss(self, city):
        model = HREP(city, d=16, seed=1)
        result = fit_baseline(model, epochs=15, lr=3e-3)
        assert result.improved()

    def test_prompted_lasso_runs(self, city, rng):
        features = rng.standard_normal((24, 16))
        y = features[:, 0] * 10 + rng.normal(0, 0.1, 24)
        model = PromptedLasso(prompt_steps=20)
        model.fit(features[:20], y[:20])
        predictions = model.predict(features[20:])
        assert predictions.shape == (4,)

    def test_prompted_lasso_guard(self, rng):
        with pytest.raises(RuntimeError):
            PromptedLasso().predict(rng.standard_normal((3, 4)))


class TestDAFusionAdapter:
    def test_wraps_mvure(self, city):
        adapter = DAFusionAdapter(MVURE(city, d=16, seed=1))
        assert adapter.name == "mvure-dafusion"
        assert adapter.embed().shape == (24, 16)

    def test_single_view_model_supported(self, city):
        adapter = DAFusionAdapter(RegionDCL(city, d=16, seed=1))
        assert adapter.embed().shape == (24, 16)

    def test_training_reduces_loss(self, city):
        adapter = DAFusionAdapter(MVURE(city, d=16, seed=1))
        result = fit_baseline(adapter, epochs=15, lr=3e-3)
        assert result.improved()

    def test_adapter_changes_embeddings(self, city):
        vanilla = MVURE(city, d=16, seed=1)
        adapter = DAFusionAdapter(MVURE(city, d=16, seed=1))
        assert not np.allclose(vanilla.embed(), adapter.embed())

    def test_adapter_has_more_parameters(self, city):
        vanilla = MVURE(city, d=16, seed=1)
        adapter = DAFusionAdapter(MVURE(city, d=16, seed=1))
        assert adapter.num_parameters() > vanilla.num_parameters()

    def test_fuse_restored_after_loss(self, city):
        adapter = DAFusionAdapter(MVURE(city, d=16, seed=1))
        original = adapter.baseline.fuse
        adapter.loss()
        assert adapter.baseline.fuse == original


@pytest.mark.parametrize("wrap", [False, True], ids=["mvure", "adapter"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_embed_restores_training_mode(city, wrap, training):
    model = MVURE(city, d=16, seed=1)
    if wrap:
        model = DAFusionAdapter(model)
    model.train(training)
    model.embed()
    assert model.training is training


class TestTrainBaseline:
    def test_epoch_budget_scaling(self, city):
        model = RegionDCL(city, d=16, seed=1)
        result = train_baseline(model, epochs=20)
        assert len(result.losses) == max(10, int(20 * 0.6))

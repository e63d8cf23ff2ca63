"""Tests for the assembled HAFusion model, config, and trainer."""

import numpy as np
import pytest

from repro.core import HAFusion, HAFusionConfig, train_hafusion, train_model
from repro.data import CityConfig, generate_city
from repro.nn import Tensor


def _tiny_config(**overrides) -> HAFusionConfig:
    defaults = dict(d=16, d_prime=8, conv_channels=4, memory_size=6,
                    num_heads=2, intra_layers=1, inter_layers=1,
                    fusion_layers=1, epochs=5, dropout=0.0)
    defaults.update(overrides)
    return HAFusionConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_city():
    config = CityConfig(name="tiny", n_regions=20, total_trips=5000, poi_total=1200)
    return generate_city(config, seed=3)


class TestConfig:
    def test_defaults_match_paper(self):
        config = HAFusionConfig()
        assert config.d == 144
        assert config.d_prime == 64
        assert config.conv_channels == 32
        assert config.memory_size == 72
        assert config.epochs == 2500
        assert config.lr == 5e-4

    def test_per_city_layer_counts(self):
        assert HAFusionConfig.for_city("nyc").intra_layers == 3
        assert HAFusionConfig.for_city("chi").intra_layers == 1
        assert HAFusionConfig.for_city("chi").inter_layers == 2
        assert HAFusionConfig.for_city("sf").inter_layers == 2
        # Expanded NYC presets inherit NYC settings.
        assert HAFusionConfig.for_city("nyc_720").intra_layers == 3

    def test_overrides(self):
        config = HAFusionConfig().with_overrides(d=64, epochs=10)
        assert config.d == 64 and config.epochs == 10

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HAFusionConfig(d=10, num_heads=4)
        with pytest.raises(ValueError):
            HAFusionConfig(fusion="average")
        with pytest.raises(ValueError):
            HAFusionConfig(epochs=0)
        with pytest.raises(ValueError):
            HAFusionConfig(mobility_loss_scale="max")


class TestHAFusionModel:
    def test_forward_shape(self, tiny_city, rng):
        views = tiny_city.views()
        model = HAFusion(views.dims(), views.n_regions, _tiny_config(), rng=rng)
        h = model([Tensor(m) for m in views.matrices])
        assert h.shape == (20, 16)

    def test_loss_is_finite_scalar(self, tiny_city, rng):
        views = tiny_city.views()
        model = HAFusion(views.dims(), views.n_regions, _tiny_config(), rng=rng)
        loss = model.loss(views)
        assert loss.size == 1
        assert np.isfinite(loss.item())

    def test_embed_is_deterministic(self, tiny_city, rng):
        views = tiny_city.views()
        model = HAFusion(views.dims(), views.n_regions, _tiny_config(dropout=0.2), rng=rng)
        a = model.embed(views)
        b = model.embed(views)
        assert np.allclose(a, b)

    @pytest.mark.parametrize("training", [True, False],
                             ids=["train", "eval"])
    def test_embed_restores_training_mode(self, tiny_city, rng, training):
        views = tiny_city.views()
        model = HAFusion(views.dims(), views.n_regions, _tiny_config(), rng=rng)
        model.train(training)
        model.embed(views)
        assert model.training is training

    def test_no_mobility_view(self, tiny_city, rng):
        views = tiny_city.views().subset(["poi", "landuse"])
        model = HAFusion(views.dims(), views.n_regions, _tiny_config(),
                         mobility_view=None, rng=rng)
        assert np.isfinite(model.loss(views).item())

    def test_ablation_variants_construct(self, tiny_city, rng):
        views = tiny_city.views()
        for overrides in (dict(fusion="sum"), dict(fusion="concat"),
                          dict(intra_attention="vanilla"),
                          dict(inter_attention="vanilla")):
            model = HAFusion(views.dims(), views.n_regions,
                             _tiny_config(**overrides), rng=rng)
            assert model.embed(views).shape == (20, 16)

    def test_seed_reproducibility(self, tiny_city):
        views = tiny_city.views()
        a = HAFusion(views.dims(), views.n_regions, _tiny_config(),
                     rng=np.random.default_rng(5)).embed(views)
        b = HAFusion(views.dims(), views.n_regions, _tiny_config(),
                     rng=np.random.default_rng(5)).embed(views)
        assert np.allclose(a, b)


class TestTrainer:
    def test_loss_decreases(self, tiny_city):
        config = _tiny_config(epochs=30)
        model, history = train_hafusion(tiny_city, config, seed=1)
        assert history.improved()
        assert len(history.losses) == 30
        assert history.seconds > 0

    def test_view_subset_training(self, tiny_city):
        config = _tiny_config(epochs=5)
        model, history = train_hafusion(tiny_city, config, seed=1,
                                        view_names=["poi", "landuse"])
        assert model.n_views == 2
        assert model.mobility_view is None

    def test_train_model_epoch_override(self, tiny_city, rng):
        views = tiny_city.views()
        model = HAFusion(views.dims(), views.n_regions, _tiny_config(), rng=rng)
        history = train_model(model, views, epochs=3)
        assert len(history.losses) == 3

    def test_history_final_loss_guard(self):
        from repro.core import TrainingHistory
        with pytest.raises(ValueError):
            TrainingHistory().final_loss

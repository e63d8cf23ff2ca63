"""Tests for the HAFusion building blocks: IntraAFL, InterAFL,
HALearning, ViewFusion, RegionFusion, DAFusion."""

import numpy as np
import pytest

from repro.core import (
    ConcatFusion,
    DAFusion,
    HALearning,
    InterAFL,
    IntraAFL,
    RegionFusion,
    RegionSA,
    SumFusion,
    ViewFusion,
    build_fusion,
)
from repro.nn import Tensor


def _views(rng, n=10, dims=(12, 6, 4)):
    return [Tensor(rng.standard_normal((n, d))) for d in dims]


class TestRegionSA:
    def test_output_shape(self, rng):
        sa = RegionSA(d_model=8, n_regions=10, num_heads=2, conv_channels=4, rng=rng)
        out = sa(Tensor(rng.standard_normal((10, 8))))
        assert out.shape == (10, 8)

    def test_wrong_region_count_rejected(self, rng):
        sa = RegionSA(d_model=8, n_regions=10, num_heads=2, conv_channels=4, rng=rng)
        with pytest.raises(ValueError, match="last region is padding"):
            sa(Tensor(rng.standard_normal((9, 8))))   # narrower, no mask

    def test_wider_input_rejected(self, rng):
        sa = RegionSA(d_model=8, n_regions=10, num_heads=2, conv_channels=4, rng=rng)
        x = Tensor(rng.standard_normal((2, 11, 8)))
        with pytest.raises(ValueError, match="built for n=10"):
            sa(x)
        mask = np.ones((2, 11))
        mask[:, -1] = 0.0
        with pytest.raises(ValueError, match="built for n=10"):
            sa(x, mask=mask)

    def test_narrow_input_needs_trailing_padding(self, rng):
        sa = RegionSA(d_model=8, n_regions=10, num_heads=2, conv_channels=4, rng=rng)
        x = Tensor(rng.standard_normal((2, 7, 8)))
        # Row 1 is real up to its last position: no padding cell past it.
        mask = np.zeros((2, 7))
        mask[0, :5] = 1.0
        mask[1, :] = 1.0
        with pytest.raises(ValueError, match="last region is padding"):
            sa(x, mask=mask)

    def test_narrow_masked_input_matches_full_width(self, rng):
        """A batch whose last column is padding runs at its own width
        and gives every real region its full-width answer."""
        sa = RegionSA(d_model=8, n_regions=10, num_heads=2, conv_channels=4, rng=rng)
        sa.conv.bias.data[:] = rng.standard_normal(4)   # a bias the pool can see
        counts = (6, 4)
        data = np.zeros((2, 10, 8))
        mask = np.zeros((2, 10))
        for i, n in enumerate(counts):
            data[i, :n] = rng.standard_normal((n, 8))
            mask[i, :n] = 1.0
        full = sa(Tensor(data), mask=mask).data
        narrow = sa(Tensor(data[:, :7]), mask=mask[:, :7]).data
        assert narrow.shape == (2, 7, 8)
        for i, n in enumerate(counts):
            assert np.abs(narrow[i, :n] - full[i, :n]).max() <= 1e-12

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(ValueError):
            RegionSA(d_model=9, n_regions=10, num_heads=2, rng=rng)

    def test_gradient_reaches_conv_path(self, rng):
        sa = RegionSA(d_model=4, n_regions=6, num_heads=2, conv_channels=2, rng=rng)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        (sa(x) ** 2.0).sum().backward()
        assert sa.conv.weight.grad is not None
        assert np.abs(sa.conv.weight.grad).sum() > 0
        assert sa.correlation_mlp.weight.grad is not None

    def test_differs_from_vanilla_attention(self, rng):
        # The correlation path must actually contribute: zeroing the
        # correlation MLP weight changes the output.
        sa = RegionSA(d_model=8, n_regions=10, num_heads=2, conv_channels=4, rng=rng)
        x = Tensor(rng.standard_normal((10, 8)))
        full = sa(x).data.copy()
        sa.correlation_mlp.weight.data[:] = 0.0
        sa.correlation_mlp.bias.data[:] = 0.0
        ablated = sa(x).data
        assert not np.allclose(full, ablated)


class TestIntraAFL:
    def test_projects_to_model_width(self, rng):
        enc = IntraAFL(input_dim=26, d_model=8, n_regions=10, num_layers=2,
                       num_heads=2, conv_channels=4, dropout=0.0, rng=rng)
        out = enc(Tensor(rng.standard_normal((10, 26))))
        assert out.shape == (10, 8)

    def test_vanilla_variant(self, rng):
        enc = IntraAFL(input_dim=6, d_model=8, n_regions=10, num_layers=1,
                       attention_kind="vanilla", dropout=0.0, rng=rng)
        assert enc(Tensor(rng.standard_normal((10, 6)))).shape == (10, 8)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            IntraAFL(6, 8, 10, attention_kind="linear", rng=rng)


class TestInterAFL:
    def test_shape_preserved(self, rng):
        inter = InterAFL(d_model=8, memory_size=5, num_layers=2, rng=rng)
        out = inter(Tensor(rng.standard_normal((10, 3, 8))))
        assert out.shape == (10, 3, 8)

    def test_vanilla_variant_shape(self, rng):
        inter = InterAFL(d_model=8, memory_size=5, num_layers=1,
                         attention_kind="vanilla", num_heads=2, rng=rng)
        out = inter(Tensor(rng.standard_normal((6, 3, 8))))
        assert out.shape == (6, 3, 8)

    def test_2d_input_rejected(self, rng):
        inter = InterAFL(d_model=8, memory_size=5, rng=rng)
        with pytest.raises(ValueError):
            inter(Tensor(rng.standard_normal((10, 8))))

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            InterAFL(8, attention_kind="cosine", rng=rng)


class TestHALearning:
    def test_one_embedding_per_view(self, rng):
        hal = HALearning([12, 6, 4], n_regions=10, d_model=8, intra_layers=1,
                         inter_layers=1, num_heads=2, conv_channels=4,
                         memory_size=5, dropout=0.0, rng=rng)
        out = hal(_views(rng))
        assert len(out) == 3
        assert all(z.shape == (10, 8) for z in out)

    def test_beta_in_unit_interval(self, rng):
        hal = HALearning([4], n_regions=6, d_model=8, intra_layers=1,
                         inter_layers=1, num_heads=2, conv_channels=2,
                         memory_size=4, rng=rng)
        assert 0.0 <= hal.beta <= 1.0

    def test_view_count_mismatch_rejected(self, rng):
        hal = HALearning([12, 6], n_regions=10, d_model=8, intra_layers=1,
                         inter_layers=1, num_heads=2, conv_channels=2,
                         memory_size=4, rng=rng)
        with pytest.raises(ValueError):
            hal(_views(rng))  # 3 views

    def test_empty_views_rejected(self, rng):
        with pytest.raises(ValueError):
            HALearning([], n_regions=10, d_model=8, rng=rng)


class TestViewFusion:
    def test_weights_sum_to_one(self, rng):
        fusion = ViewFusion(d_model=8, d_prime=4, rng=rng)
        views = [Tensor(rng.standard_normal((10, 8))) for _ in range(3)]
        out = fusion(views)
        assert out.shape == (10, 8)
        assert fusion.last_weights.shape == (3,)
        assert fusion.last_weights.sum() == pytest.approx(1.0)

    def test_single_view_passthrough(self, rng):
        fusion = ViewFusion(d_model=8, rng=rng)
        view = Tensor(rng.standard_normal((10, 8)))
        assert np.allclose(fusion([view]).data, view.data)

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            ViewFusion(d_model=8, rng=rng)([])

    def test_output_is_convex_combination(self, rng):
        fusion = ViewFusion(d_model=4, d_prime=3, rng=rng)
        views = [Tensor(rng.standard_normal((5, 4))) for _ in range(2)]
        out = fusion(views).data
        alphas = fusion.last_weights
        expected = alphas[0] * views[0].data + alphas[1] * views[1].data
        assert np.allclose(out, expected)

    def test_gradient_to_views(self, rng):
        fusion = ViewFusion(d_model=4, d_prime=3, rng=rng)
        views = [Tensor(rng.standard_normal((5, 4)), requires_grad=True) for _ in range(2)]
        (fusion(views) ** 2.0).sum().backward()
        assert all(v.grad is not None for v in views)


class TestFusionVariants:
    def test_dafusion_shape(self, rng):
        fusion = DAFusion(d_model=8, d_prime=4, num_layers=2, num_heads=2,
                          dropout=0.0, rng=rng)
        views = [Tensor(rng.standard_normal((10, 8))) for _ in range(3)]
        assert fusion(views).shape == (10, 8)
        assert fusion.view_weights is not None

    def test_sum_fusion_is_sum(self, rng):
        fusion = SumFusion(8)
        views = [Tensor(rng.standard_normal((5, 8))) for _ in range(3)]
        expected = sum(v.data for v in views)
        assert np.allclose(fusion(views).data, expected)

    def test_concat_fusion_shape(self, rng):
        fusion = ConcatFusion(8, n_views=3, rng=rng)
        views = [Tensor(rng.standard_normal((5, 8))) for _ in range(3)]
        assert fusion(views).shape == (5, 8)

    def test_build_fusion_dispatch(self, rng):
        assert isinstance(build_fusion("dafusion", 8, 3, rng=rng), DAFusion)
        assert isinstance(build_fusion("sum", 8, 3, rng=rng), SumFusion)
        assert isinstance(build_fusion("concat", 8, 3, rng=rng), ConcatFusion)
        with pytest.raises(ValueError):
            build_fusion("mean", 8, 3, rng=rng)


class TestRegionFusion:
    def test_shape_preserved(self, rng):
        fusion = RegionFusion(d_model=8, num_layers=2, num_heads=2,
                              dropout=0.0, rng=rng)
        out = fusion(Tensor(rng.standard_normal((10, 8))))
        assert out.shape == (10, 8)

    def test_mixes_information_between_regions(self, rng):
        # Changing one region's input must change other regions' outputs
        # (that is RegionFusion's entire purpose).
        fusion = RegionFusion(d_model=8, num_layers=1, num_heads=2,
                              dropout=0.0, rng=rng)
        fusion.eval()
        x = rng.standard_normal((6, 8))
        base = fusion(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0] += 10.0
        moved = fusion(Tensor(x2)).data
        assert np.abs(moved[1:] - base[1:]).max() > 1e-6

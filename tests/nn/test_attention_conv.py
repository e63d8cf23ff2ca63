"""Tests for attention modules and convolution/pooling primitives."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Conv2d,
    ExternalAttention,
    MultiHeadSelfAttention,
    Tensor,
    TransformerEncoderBlock,
)
from repro.nn.gradcheck import check_gradients


class TestMultiHeadSelfAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        out = attn(Tensor(rng.standard_normal((5, 8))))
        assert out.shape == (5, 8)

    def test_divisibility_check(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, num_heads=2, rng=rng)

    def test_records_attention_weights(self, rng):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        attn(Tensor(rng.standard_normal((5, 8))))
        assert attn.last_attention.shape == (2, 5, 5)
        assert np.allclose(attn.last_attention.data.sum(axis=-1), 1.0)

    def test_gradients(self, rng):
        attn = MultiHeadSelfAttention(4, num_heads=2, rng=rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_gradients(lambda: (attn(x) ** 2.0).sum(), [x] + attn.parameters(), atol=1e-4)

    def test_permutation_equivariance(self, rng):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        x = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[perm])).data
        assert np.allclose(out[perm], out_perm, atol=1e-8)

    def test_last_attention_detached_and_graph_freed(self, rng):
        # ``last_attention`` must be a detached copy: holding the live
        # autograd tensor would retain the whole backward graph (and its
        # activation buffers) across training steps.
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        x = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        out = (attn(x) ** 2.0).sum()
        stored = attn.last_attention
        assert not stored.requires_grad
        assert stored._prev == () and stored._backward is None
        out.backward()
        # backward() frees the tape eagerly; the detached copy must not
        # have resurrected any of it.
        assert out._prev == () and out._backward is None
        assert attn.last_attention._prev == ()
        assert x.grad is not None

    def test_batched_input(self, rng):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        out = attn(Tensor(rng.standard_normal((3, 5, 8))))
        assert out.shape == (3, 5, 8)
        assert attn.last_attention.shape == (3, 2, 5, 5)


class TestTransformerEncoderBlock:
    def test_output_shape(self, rng):
        block = TransformerEncoderBlock(8, num_heads=2, dropout=0.0, rng=rng)
        out = block(Tensor(rng.standard_normal((5, 8))))
        assert out.shape == (5, 8)

    def test_gradients_no_dropout(self, rng):
        block = TransformerEncoderBlock(4, num_heads=2, dropout=0.0, rng=rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_gradients(lambda: (block(x) ** 2.0).sum(), [x], atol=1e-4)

    def test_custom_attention_module(self, rng):
        from repro.nn import Identity
        block = TransformerEncoderBlock(8, dropout=0.0, attention=Identity(), rng=rng)
        out = block(Tensor(rng.standard_normal((5, 8))))
        assert out.shape == (5, 8)

    def test_eval_mode_is_deterministic(self, rng):
        block = TransformerEncoderBlock(8, num_heads=2, dropout=0.5, rng=rng)
        block.eval()
        x = Tensor(rng.standard_normal((5, 8)))
        assert np.allclose(block(x).data, block(x).data)


class TestExternalAttention:
    def test_output_shape(self, rng):
        ext = ExternalAttention(8, memory_size=6, rng=rng)
        out = ext(Tensor(rng.standard_normal((5, 3, 8))))
        assert out.shape == (5, 3, 8)

    def test_gradients(self, rng):
        ext = ExternalAttention(4, memory_size=3, rng=rng)
        x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        check_gradients(lambda: (ext(x) ** 2.0).sum(), [x, ext.m_key, ext.m_value], atol=1e-4)

    def test_linear_cost_in_regions(self, rng):
        # External attention never materialises an n×n matrix; indirectly
        # verified by handling a large n quickly and exactly.
        ext = ExternalAttention(8, memory_size=4, rng=rng)
        out = ext(Tensor(rng.standard_normal((2000, 2, 8))))
        assert out.shape == (2000, 2, 8)


class TestConv2d:
    def test_shape_preserved(self, rng):
        conv = Conv2d(1, 4, kernel_size=3, rng=rng)
        out = conv(Tensor(rng.standard_normal((1, 7, 7))))
        assert out.shape == (4, 7, 7)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv2d(1, 4, kernel_size=4, rng=rng)

    def test_wrong_input_channels_rejected(self, rng):
        conv = Conv2d(2, 4, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.standard_normal((1, 5, 5))))

    def test_matches_direct_convolution(self, rng):
        conv = Conv2d(1, 1, kernel_size=3, bias=False, rng=rng)
        x = rng.standard_normal((1, 5, 5))
        out = conv(Tensor(x)).data[0]
        kernel = conv.weight.data[0, 0]
        padded = np.pad(x[0], 1)
        expected = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                expected[i, j] = (padded[i:i + 3, j:j + 3] * kernel).sum()
        assert np.allclose(out, expected)

    def test_gradients(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (conv(x) ** 2.0).sum(), [x] + conv.parameters(), atol=1e-4)

    def test_bias_contributes(self, rng):
        conv = Conv2d(1, 2, rng=rng)
        x = Tensor(np.zeros((1, 3, 3)))
        out = conv(x)
        assert np.allclose(out.data[0], conv.bias.data[0])


class TestAvgPool2d:
    def test_shape_preserved(self, rng):
        pool = AvgPool2d(kernel_size=3)
        out = pool(Tensor(rng.standard_normal((4, 6, 6))))
        assert out.shape == (4, 6, 6)

    def test_constant_input_invariant_interior(self):
        pool = AvgPool2d(kernel_size=3)
        out = pool(Tensor(np.ones((1, 5, 5))))
        # Interior cells average nine ones; border cells see zero padding.
        assert np.allclose(out.data[0, 1:-1, 1:-1], 1.0)
        assert out.data[0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            AvgPool2d(kernel_size=2)

    def test_channel_last_input_gives_c_order_output(self, rng):
        """A conv output is a channel-last view; pooling it must not
        inherit those strides, and the values must not move."""
        data = rng.standard_normal((2, 7, 7, 4)).transpose(0, 3, 1, 2)
        pool = AvgPool2d(kernel_size=3)
        out = pool(Tensor(data)).data
        assert out.flags.c_contiguous
        expected = pool(Tensor(np.ascontiguousarray(data))).data
        np.testing.assert_array_equal(out, expected)

    def test_gradients(self, rng):
        pool = AvgPool2d(kernel_size=3)
        x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (pool(x) ** 2.0).sum(), [x], atol=1e-4)

    def test_2d_input_rejected(self, rng):
        pool = AvgPool2d()
        with pytest.raises(ValueError):
            pool(Tensor(rng.standard_normal((4, 4))))

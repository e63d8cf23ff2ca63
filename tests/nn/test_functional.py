"""Tests for composite functional ops."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = _t(rng, 5, 7)
        out = F.softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_stability_with_large_logits(self):
        x = Tensor([[1000.0, 1000.0]])
        out = F.softmax(x)
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_gradient(self, rng):
        x = _t(rng, 3, 4)
        weights = rng.standard_normal((3, 4))
        check_gradients(lambda: (F.softmax(x, axis=-1) * weights).sum(), [x])

    def test_gradient_axis0(self, rng):
        x = _t(rng, 3, 4)
        weights = rng.standard_normal((3, 4))
        check_gradients(lambda: (F.softmax(x, axis=0) * weights).sum(), [x])

    def test_matches_log_softmax(self, rng):
        x = _t(rng, 4, 5)
        assert np.allclose(np.log(F.softmax(x).data), F.log_softmax(x).data)

    def test_log_softmax_gradient(self, rng):
        x = _t(rng, 3, 4)
        weights = rng.standard_normal((3, 4))
        check_gradients(lambda: (F.log_softmax(x, axis=-1) * weights).sum(), [x])


class TestNormalization:
    def test_l2_rows_unit_norm(self, rng):
        x = _t(rng, 4, 6)
        out = F.l2_normalize(x)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-5)

    def test_l2_small_rows_unit_norm(self):
        # Small but nonzero rows are scaled to unit norm, not shrunk by
        # the eps floor; an all-zero row stays zero.
        x = Tensor([[6.103515625e-05] * 3, [1e-4, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = F.l2_normalize(x).data
        assert np.allclose(np.linalg.norm(out[:2], axis=-1), 1.0,
                           rtol=0.0, atol=1e-12)
        assert (out[2] == 0.0).all()

    def test_l2_gradient(self, rng):
        x = _t(rng, 3, 4)
        weights = rng.standard_normal((3, 4))
        check_gradients(lambda: (F.l2_normalize(x) * weights).sum(), [x])

    def test_l1_rows_sum_to_one_for_positive(self, rng):
        x = Tensor(rng.uniform(0.1, 1.0, (4, 6)), requires_grad=True)
        out = F.l1_normalize(x)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_l1_gradient(self, rng):
        x = Tensor(rng.uniform(0.2, 1.0, (3, 4)), requires_grad=True)
        weights = rng.standard_normal((3, 4))
        check_gradients(lambda: (F.l1_normalize(x) * weights).sum(), [x])

    def test_l1_zero_row_safe(self):
        out = F.l1_normalize(Tensor([[0.0, 0.0]]))
        assert np.all(np.isfinite(out.data))


class TestCosineSimilarityMatrix:
    def test_diagonal_is_one(self, rng):
        x = rng.standard_normal((5, 8))
        sim = F.cosine_similarity_matrix(x)
        assert np.allclose(np.diag(sim), 1.0)

    def test_symmetric(self, rng):
        x = rng.standard_normal((5, 8))
        sim = F.cosine_similarity_matrix(x)
        assert np.allclose(sim, sim.T)

    def test_range(self, rng):
        x = rng.standard_normal((6, 4))
        sim = F.cosine_similarity_matrix(x)
        assert sim.min() >= -1.0 - 1e-9 and sim.max() <= 1.0 + 1e-9

    def test_zero_row_safe(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        sim = F.cosine_similarity_matrix(x)
        assert np.all(np.isfinite(sim))

    def test_identical_rows(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        sim = F.cosine_similarity_matrix(x)
        assert np.allclose(sim, 1.0)


class TestDropout:
    def test_eval_is_identity(self, rng):
        x = _t(rng, 10, 10)
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_p_is_identity(self, rng):
        x = _t(rng, 10, 10)
        out = F.dropout(x, 0.0, training=True)
        assert out is x

    def test_expectation_preserved(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            F.dropout(_t(rng, 3), 1.0, training=True)


class TestLosses:
    def test_mse_zero_for_equal(self, rng):
        x = _t(rng, 4)
        assert F.mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_mse_gradient(self, rng):
        x, target = _t(rng, 5), Tensor(rng.standard_normal(5))
        check_gradients(lambda: F.mse_loss(x, target), [x])

    def test_l1_gradient(self, rng):
        x = Tensor(np.array([0.5, -1.5, 2.5]), requires_grad=True)
        target = Tensor(np.zeros(3))
        check_gradients(lambda: F.l1_loss(x, target), [x])


class TestScaledDotProductAttention:
    def test_output_shape(self, rng):
        q, k, v = _t(rng, 6, 8), _t(rng, 6, 8), _t(rng, 6, 8)
        out, weights = F.scaled_dot_product_attention(q, k, v)
        assert out.shape == (6, 8)
        assert weights.shape == (6, 6)

    def test_weights_rows_sum_to_one(self, rng):
        q, k, v = _t(rng, 6, 8), _t(rng, 6, 8), _t(rng, 6, 8)
        _, weights = F.scaled_dot_product_attention(q, k, v)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_batched_heads(self, rng):
        q, k, v = _t(rng, 4, 6, 8), _t(rng, 4, 6, 8), _t(rng, 4, 6, 8)
        out, weights = F.scaled_dot_product_attention(q, k, v)
        assert out.shape == (4, 6, 8)
        assert weights.shape == (4, 6, 6)

    def test_gradient(self, rng):
        q, k, v = _t(rng, 3, 4), _t(rng, 3, 4), _t(rng, 3, 4)

        def f():
            out, _ = F.scaled_dot_product_attention(q, k, v)
            return (out * out).sum()

        check_gradients(f, [q, k, v], atol=1e-4)

    def test_gelu_gradient(self, rng):
        x = _t(rng, 5)
        check_gradients(lambda: F.gelu(x).sum(), [x])

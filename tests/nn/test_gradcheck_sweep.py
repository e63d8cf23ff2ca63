"""Finite-difference gradcheck sweep over the whole nn substrate.

Every differentiable op in :mod:`repro.nn.functional` and every layer in
:mod:`repro.nn.layers` / :mod:`repro.nn.attention` / :mod:`repro.nn.conv`
is checked at both unbatched ``(n, d)`` and batched ``(b, n, d)`` shapes —
the property the multi-city execution engine depends on — plus the
broadcasting edge cases (1-D matmul operands, stretched singleton axes,
masked attention) that the batched paths exercise.
"""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    AvgPool2d,
    Conv2d,
    ExternalAttention,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    Tensor,
    TransformerEncoderBlock,
)
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients

#: (n, d) and (b, n, d) — the two shapes every op must support.
SHAPES = [(3, 4), (2, 3, 4)]

UNARY_OPS = {
    "softmax": lambda x: F.softmax(x, axis=-1),
    "softmax_axis0": lambda x: F.softmax(x, axis=0),
    "log_softmax": lambda x: F.log_softmax(x, axis=-1),
    "relu": F.relu,
    "leaky_relu": F.leaky_relu,
    "sigmoid": F.sigmoid,
    "tanh": F.tanh,
    "gelu": F.gelu,
    "l1_normalize": lambda x: F.l1_normalize(x, axis=-1),
    "l2_normalize": lambda x: F.l2_normalize(x, axis=-1),
    "exp": lambda x: x.exp(),
    "abs": lambda x: x.abs(),
    "sqrt_shifted": lambda x: (x * x + 1.0).sqrt(),
    "mean_lastaxis": lambda x: x.mean(axis=-1),
    "var": lambda x: x.var(axis=-1),
    "max_lastaxis": lambda x: x.max(axis=-1),
    "sum_multi_axis": lambda x: x.sum(axis=(-1, -2), keepdims=True),
}


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_ops(name, shape, rng):
    op = UNARY_OPS[name]
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (op(x) * op(x)).sum(), [x], atol=1e-4)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_scaled_dot_product_attention(shape, rng):
    tensors = [Tensor(rng.standard_normal(shape), requires_grad=True)
               for _ in range(3)]

    def func():
        out, _ = F.scaled_dot_product_attention(*tensors)
        return (out * out).sum()

    check_gradients(func, tensors, atol=1e-4)


def test_scaled_dot_product_attention_masked(rng):
    """Key-masked attention: gradients flow only through kept keys."""
    q, k, v = [Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
               for _ in range(3)]
    keep = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    additive = F.additive_mask(keep)[:, None, :]

    def func():
        out, _ = F.scaled_dot_product_attention(q, k, v, mask=additive)
        return (out * out).sum()

    check_gradients(func, [q, v], atol=1e-4)
    func()
    _, weights = F.scaled_dot_product_attention(q, k, v, mask=additive)
    assert np.all(weights.data[0, :, 3] == 0.0)
    assert np.all(weights.data[1, :, 2:] == 0.0)


class TestMatmulBroadcasting:
    """Edge cases of batched matmul the engine relies on."""

    def test_batched_matrix_times_vector(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        check_gradients(lambda: ((x @ v) ** 2.0).sum(), [x, v], atol=1e-4)

    def test_vector_times_batched_matrix(self, rng):
        v = Tensor(rng.standard_normal(3), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradients(lambda: ((v @ x) ** 2.0).sum(), [v, x], atol=1e-4)

    def test_broadcast_batch_dims(self, rng):
        a = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        check_gradients(lambda: ((a @ b) ** 2.0).sum(), [a, b], atol=1e-4)

    def test_stretched_elementwise_broadcast(self, rng):
        a = Tensor(rng.standard_normal((2, 1, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3, 1)), requires_grad=True)
        check_gradients(lambda: ((a * b) + (a + b)).sum(), [a, b], atol=1e-4)


LAYER_FACTORIES = {
    "linear": lambda rng: Linear(4, 5, rng=rng),
    "linear_nobias": lambda rng: Linear(4, 5, bias=False, rng=rng),
    "mlp": lambda rng: MLP(4, 5, hidden_features=6, rng=rng),
    "feedforward": lambda rng: FeedForward(4, 8, rng=rng),
    "layernorm": lambda rng: LayerNorm(4),
}


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(LAYER_FACTORIES))
def test_layers(name, shape, rng):
    layer = LAYER_FACTORIES[name](rng)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (layer(x) * layer(x)).sum(),
                    [x] + layer.parameters(), atol=1e-4)


ATTENTION_SHAPES = [(3, 4), (2, 3, 4)]


@pytest.mark.parametrize("shape", ATTENTION_SHAPES, ids=str)
def test_multi_head_self_attention(shape, rng):
    attn = MultiHeadSelfAttention(4, num_heads=2, rng=rng)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (attn(x) ** 2.0).sum(),
                    [x] + attn.parameters(), atol=1e-4)


def test_multi_head_self_attention_masked(rng):
    attn = MultiHeadSelfAttention(4, num_heads=2, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    keep = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    check_gradients(lambda: (attn(x, mask=keep) ** 2.0).sum(),
                    [x] + attn.parameters(), atol=1e-4)


@pytest.mark.parametrize("shape", ATTENTION_SHAPES, ids=str)
def test_transformer_encoder_block(shape, rng):
    block = TransformerEncoderBlock(4, num_heads=2, dropout=0.0, rng=rng)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (block(x) ** 2.0).sum(), [x], atol=1e-4)


@pytest.mark.parametrize("shape", [(3, 2, 4), (2, 3, 2, 4)], ids=str)
def test_external_attention(shape, rng):
    ext = ExternalAttention(4, memory_size=3, rng=rng)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (ext(x) ** 2.0).sum(),
                    [x, ext.m_key, ext.m_value], atol=1e-4)


@pytest.mark.parametrize("shape", [(2, 4, 4), (2, 2, 4, 4)], ids=str)
def test_conv2d(shape, rng):
    conv = Conv2d(2, 3, kernel_size=3, rng=rng)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (conv(x) ** 2.0).sum(),
                    [x] + conv.parameters(), atol=1e-4)


@pytest.mark.parametrize("shape", [(2, 4, 4), (2, 2, 4, 4)], ids=str)
def test_avgpool2d(shape, rng):
    pool = AvgPool2d(kernel_size=3)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    check_gradients(lambda: (pool(x) ** 2.0).sum(), [x], atol=1e-4)


# ----------------------------------------------------------------------
# Compiled-plan gradcheck: the replay kernels of repro.nn.compile must
# produce the same gradients finite differences do.  Each case compiles
# a small composite loss, replays it (record + one replay so the replay
# kernels — not just the recording backward — are what is checked), and
# compares every leaf gradient against central differences.
# ----------------------------------------------------------------------

from repro.nn import AvgPool2d as _AvgPool2d
from repro.nn import CompiledStep
from repro.nn.gradcheck import numeric_gradient


def _check_compiled_gradients(loss_fn, tensors, atol=1e-4, rtol=1e-4,
                              lowering=None):
    step = CompiledStep(loss_fn, lowering=lowering)
    step.run()                      # record
    for t in tensors:
        t.zero_grad()
    step.run()                      # replay with preallocated buffers
    assert step.compile_count == 1
    for index, tensor in enumerate(tensors):
        expected = numeric_gradient(loss_fn, tensor)
        actual = (tensor.grad if tensor.grad is not None
                  else np.zeros_like(tensor.data))
        assert np.allclose(actual, expected, atol=atol, rtol=rtol), (
            f"compiled gradient mismatch for tensor #{index} "
            f"(shape {tensor.shape}): max abs err "
            f"{np.abs(actual - expected).max():.3e}")


COMPILED_CASES = {
    "mlp_chain": lambda x: (MLP(4, 5, hidden_features=6,
                                rng=np.random.default_rng(0))(x) ** 2.0).sum(),
    "softmax_logsoftmax": lambda x: (F.softmax(x, axis=-1)
                                     * F.log_softmax(x, axis=-1)).sum(),
    "reductions": lambda x: (x.max(axis=-1) * x.sum(axis=-1)
                             + x.mean(axis=-1)).abs().sum(),
    "shape_ops": lambda x: (x.swapaxes(-1, -2).reshape(x.size)[::2] ** 2.0).sum(),
    "stack_concat": lambda x: ((Tensor.stack([x, x * 2.0], axis=0) ** 2.0).sum()
                               + (Tensor.concat([x, x * 3.0], axis=-1)
                                  * Tensor.concat([x * 0.5, x], axis=-1)).sum()),
    "activations": lambda x: (x.tanh() + x.sigmoid() + x.relu()
                              + x.leaky_relu(0.2) + F.gelu(x)).sum(),
    "normalize": lambda x: (F.l1_normalize(x) * F.l2_normalize(x)).sum(),
}


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(COMPILED_CASES))
def test_compiled_plan_gradcheck(name, shape, rng):
    case = COMPILED_CASES[name]
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    _check_compiled_gradients(lambda: case(x), [x])


def test_compiled_attention_block(rng):
    block = TransformerEncoderBlock(4, num_heads=2, dropout=0.0, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    _check_compiled_gradients(lambda: (block(x) ** 2.0).sum(),
                              [x] + block.parameters())


@pytest.mark.parametrize("lowering", ["v1", "v2"])
def test_compiled_conv_pool_gate_chain(lowering, rng):
    """The RegionSA gate pattern — pool -> softmax -> ⊙ — exercises the
    fused kernels (v1: the channel-blocked gate pair; v2: the whole-chain
    pair); gradcheck pins their backward."""
    conv = Conv2d(1, 3, kernel_size=3, rng=rng)
    pool = _AvgPool2d(kernel_size=3)
    x = Tensor(rng.standard_normal((1, 5, 5)), requires_grad=True)

    def loss_fn():
        corr = pool(conv(x))
        gate = F.softmax(corr, axis=-1)
        return (corr * gate).mean(axis=-3).sum()

    step = CompiledStep(loss_fn, lowering=lowering)
    step.run()
    assert step.plan.num_fused_chains == 1
    _check_compiled_gradients(loss_fn, [x] + conv.parameters(),
                              lowering=lowering)


@pytest.mark.parametrize("lowering", ["v1", "v2"])
def test_compiled_masked_gate_chain(lowering, rng):
    """The masked gate variant — pool -> +additive_key_mask -> softmax
    -> ⊙ — must also compile to the fused kernels (the padded-batch path
    of the execution engine); gradcheck pins the shared backward."""
    conv = Conv2d(1, 3, kernel_size=3, rng=rng)
    pool = _AvgPool2d(kernel_size=3)
    x = Tensor(rng.standard_normal((2, 1, 5, 5)), requires_grad=True)
    keep = np.ones((2, 5))
    keep[0, 3:] = 0.0
    keep[1, 4:] = 0.0
    additive = F.additive_key_mask(keep)     # (2, 1, 1, 5)

    def loss_fn():
        corr = pool(conv(x))
        gate = F.softmax(corr + Tensor(additive), axis=-1)
        return (corr * gate).mean(axis=-3).sum()

    step = CompiledStep(loss_fn, lowering=lowering)
    step.run()
    assert step.plan.num_fused_chains == 1
    _check_compiled_gradients(loss_fn, [x] + conv.parameters(),
                              lowering=lowering)


def _region_chain_loss(conv, pool, x, additive, probe):
    """RegionSA's correlation chain, Eq. 13-14, weighted by ``probe`` so
    the channel-mean gradient is not uniform."""
    def loss_fn():
        corr = pool(conv(x))
        scores = corr if additive is None else corr + Tensor(additive)
        gated = corr * F.softmax(scores, axis=-1)
        return (gated.mean(axis=-3) * probe).sum()
    return loss_fn


def _region_chain_case(rng, n, channels, batched):
    conv = Conv2d(1, channels, kernel_size=3, rng=rng)
    conv.bias.data[...] = rng.standard_normal(channels)
    lead = (2,) if batched else ()
    x = Tensor(rng.standard_normal(lead + (1, n, n)), requires_grad=True)
    probe = Tensor(rng.standard_normal(lead + (n, n)))
    additive = None
    if batched:
        keep = np.ones((2, n))
        keep[0, max(1, n - 2):] = 0.0
        additive = F.additive_key_mask(keep)
    return conv, x, _region_chain_loss(conv, _AvgPool2d(kernel_size=3), x,
                                       additive, probe)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("batched", [False, True],
                         ids=["unbatched", "batched_masked"])
def test_compiled_region_chain_wide(n, batched, rng):
    """c=12 channels (more than the 9 pooled taps) through the whole-chain
    v2 kernel pair; at n ≤ 2 the taps' border corrections overlap."""
    conv, x, loss_fn = _region_chain_case(rng, n, 12, batched)
    step = CompiledStep(loss_fn)
    step.run()
    assert step.plan.num_fused_chains == 1
    _check_compiled_gradients(loss_fn, [x] + conv.parameters())


@pytest.mark.parametrize("lowering", ["v1", "v2"])
def test_region_chain_kernel_lists(lowering, rng):
    """v2 replays a RegionSA chain as one kernel per direction, with no
    conv2d, channel-sum or 1/c scale kernel; v1 keeps all three.  The
    remaining sum/mul kernels are the probe product and the loss sum."""
    from collections import Counter

    _, _, loss_fn = _region_chain_case(rng, 4, 12, batched=False)
    step = CompiledStep(loss_fn, lowering=lowering)
    step.run()
    forward = Counter(tag for tag, _ in step.plan._forward_meta)
    backward = Counter(tag for tag, _ in step.plan._backward_meta)
    if lowering == "v2":
        assert forward == {"F:fused_gate": 1, "F:mul": 1, "F:sum": 1}
        assert backward == {"B:fused_gate": 1, "B:mul": 1, "B:sum": 1}
    else:
        assert forward == {"F:conv2d": 1, "F:fused_gate": 1, "F:mul": 2,
                           "F:sum": 2}
        assert backward == {"B:conv2d": 1, "B:fused_gate": 1, "B:mul": 2,
                            "B:sum": 2}


def test_compiled_external_attention(rng):
    ext = ExternalAttention(4, memory_size=3, rng=rng)
    x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    _check_compiled_gradients(lambda: (ext(x) ** 2.0).sum(),
                              [x, ext.m_key, ext.m_value])


def test_compiled_fused_layernorm_chain(rng):
    """LayerNorm lowers to a 16-node tape chain that the plan collapses
    into one fused forward/backward kernel pair; a stacked
    LN -> Linear -> LN loss must fuse both and gradcheck pins the fused
    backward (x, gamma, beta, and the interleaved Linear weights)."""
    from repro.nn import Linear as _Linear

    ln1, ln2 = LayerNorm(4), LayerNorm(4)
    lin = _Linear(4, 4, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)

    def loss_fn():
        return (ln2(lin(ln1(x))) ** 2.0).sum()

    step = CompiledStep(loss_fn)
    step.run()
    assert step.plan.num_fused_layernorms == 2
    _check_compiled_gradients(
        loss_fn, [x] + ln1.parameters() + lin.parameters()
        + ln2.parameters())


def test_compiled_folded_optimizer_gradcheck(rng):
    """A plan with the clip + Adam update folded in must still produce
    finite-difference-correct leaf gradients on replay.  A vanishing
    learning rate keeps the parameters at their record values (drift
    ~1e-12, far inside the 1e-4 tolerance) while the update kernels —
    including the never-scaling 1e9 clip — actually run each step."""
    from repro.nn import Adam

    mlp = MLP(4, 5, hidden_features=6, rng=rng)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    params = mlp.parameters()
    optimizer = Adam(params, lr=1e-12)

    def loss_fn():
        return (mlp(x) ** 2.0).sum()

    step = CompiledStep(loss_fn, optimizer=optimizer, grad_clip=1e9)
    step.run()                      # record (+ folded update)
    for p in params:
        p.zero_grad()
    step.run()                      # replay_step: fwd+bwd+clip+Adam
    assert step.compile_count == 1
    assert step.plan.num_update_ops > 0
    assert step.plan.last_grad_norm > 0.0       # clip kernel executed
    for index, p in enumerate(params):
        expected = numeric_gradient(loss_fn, p)
        assert p.grad is not None
        assert np.allclose(p.grad, expected, atol=1e-4, rtol=1e-4), (
            f"folded-plan gradient mismatch for parameter #{index} "
            f"(shape {p.shape}): max abs err "
            f"{np.abs(p.grad - expected).max():.3e}")

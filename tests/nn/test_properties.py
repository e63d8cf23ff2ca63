"""Property-based tests (hypothesis) for the autograd engine.

These check algebraic invariants that must hold for *any* input, which is
where hand-written backward passes typically break.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import (
    AvgPool2d,
    CompiledStep,
    Conv2d,
    InferencePlan,
    Tensor,
    no_grad,
    record_forward,
    use_dtype,
)
from repro.nn import functional as F

_FLOATS = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False, width=64)


def _matrices(max_side=6):
    return arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max_side),
                  elements=_FLOATS)


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_softmax_rows_always_sum_to_one(x):
    out = F.softmax(Tensor(x), axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-8)
    assert (out.data >= 0).all()


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_softmax_shift_invariance(x):
    a = F.softmax(Tensor(x), axis=-1).data
    b = F.softmax(Tensor(x + 3.21), axis=-1).data
    assert np.allclose(a, b, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_addition_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    (t + 1.5).sum().backward()
    assert np.allclose(t.grad, 1.0)


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_sum_linear_in_scalar(x):
    t = Tensor(x, requires_grad=True)
    (3.0 * t).sum().backward()
    assert np.allclose(t.grad, 3.0)


@settings(max_examples=30, deadline=None)
@given(_matrices(max_side=5), st.integers(min_value=1, max_value=5))
def test_matmul_identity(x, k):
    t = Tensor(x)
    eye = Tensor(np.eye(x.shape[1]))
    assert np.allclose((t @ eye).data, x)


@settings(max_examples=30, deadline=None)
@given(_matrices(max_side=5))
def test_reshape_roundtrip_preserves_grad(x):
    t = Tensor(x, requires_grad=True)
    (t.reshape(-1).reshape(x.shape) * 2.0).sum().backward()
    assert np.allclose(t.grad, 2.0)


@settings(max_examples=30, deadline=None)
@given(_matrices(max_side=5))
def test_transpose_involution(x):
    t = Tensor(x)
    assert np.allclose(t.T.T.data, x)


@settings(max_examples=30, deadline=None)
@given(_matrices(max_side=5))
def test_l2_normalize_is_idempotent(x):
    row_norms = np.linalg.norm(x, axis=-1)
    if (row_norms < 1e-4).any():
        return  # near-zero rows are eps-clamped, not scale-invariant
    once = F.l2_normalize(Tensor(x)).data
    twice = F.l2_normalize(Tensor(once)).data
    assert np.allclose(once, twice, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(_matrices(max_side=5))
def test_layernorm_statistics(x):
    if x.shape[-1] < 2 or np.any(np.std(x, axis=-1) < 1e-8):
        return
    from repro.nn import LayerNorm
    out = LayerNorm(x.shape[-1])(Tensor(x)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(_matrices(max_side=5))
def test_cosine_similarity_bounded(x):
    sim = F.cosine_similarity_matrix(x)
    assert (sim <= 1.0 + 1e-7).all() and (sim >= -1.0 - 1e-7).all()


#: Fused RegionSA chain vs the eager ops, relative to the largest
#: reference value: the lowering only re-associates (≈1e-16 in float64).
_CHAIN_TOLERANCE = {np.float64: 1e-8, np.float32: 1e-4}


@st.composite
def _region_chain_cases(draw):
    n = draw(st.integers(1, 7))
    channels = draw(st.integers(1, 12))
    batch = draw(st.one_of(st.none(), st.integers(1, 3)))
    keep = None
    if batch is not None:
        # Ragged: each item keeps its first n_i ≥ 1 regions.
        sizes = draw(st.lists(st.integers(1, n), min_size=batch,
                              max_size=batch))
        keep = (np.arange(n) < np.array(sizes)[:, None]).astype(float)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, channels, batch, keep, dtype, seed


def _region_chain(conv, pool, x, additive):
    corr = pool(conv(x))
    scores = corr if additive is None else corr + Tensor(additive)
    return (corr * F.softmax(scores, axis=-1)).mean(axis=-3)


def _assert_close(actual, expected, tolerance):
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=0.0,
                               atol=tolerance * scale)


@given(_region_chain_cases())
def test_fused_region_chain_matches_eager(case):
    """The RegionSA kernel pair — forward through an InferencePlan,
    backward through a replayed training plan — against the eager
    conv -> pool -> [+mask] -> softmax -> ⊙ -> channel-mean chain."""
    n, channels, batch, keep, dtype, seed = case
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    with use_dtype(dtype):
        conv = Conv2d(1, channels, rng=rng)
        conv.bias.data[...] = rng.standard_normal(channels)
        pool = AvgPool2d()
        a = rng.random(lead + (1, n, n))
        additive = None
        if keep is not None:
            a *= keep[:, None, :, None]     # RegionSA zeroes padded rows
            additive = F.additive_key_mask(keep)
        a = a.astype(dtype)
        probe = Tensor(rng.standard_normal(lead + (n, n)))

        x = Tensor(a, requires_grad=True)
        out = _region_chain(conv, pool, x, additive)
        (out * probe).sum().backward()
        expected = [out.data, x.grad] + [p.grad for p in conv.parameters()]
        conv.zero_grad()

        slot = Tensor(a.copy())
        with no_grad():
            output, nodes = record_forward(
                lambda: _region_chain(conv, pool, slot, additive))
        plan = InferencePlan(output, nodes, [slot], params=conv.parameters())
        assert plan.num_fused_chains == 1
        forward = plan.run([a])

        xc = Tensor(a.copy(), requires_grad=True)
        step = CompiledStep(
            lambda: (_region_chain(conv, pool, xc, additive) * probe).sum())
        step.run()
        step.run()      # the lowered forward + backward, not the record
        actual = [forward, xc.grad] + [p.grad for p in conv.parameters()]
    for got, want in zip(actual, expected):
        assert got.dtype == dtype
        _assert_close(got, want, _CHAIN_TOLERANCE[dtype])

"""Property-based tests (hypothesis) for the autograd engine.

These check algebraic invariants that must hold for *any* input, which is
where hand-written backward passes typically break.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.nn import compile as compile_module
from repro.nn import functional as F
from repro.nn.compile import (
    _gate_bound,
    _softmax_needs_shift,
    _unshifted_exp_limit,
)

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

#: Large conv weight scale per dtype: it pushes the gate bound past the
#: unshifted-exp limit (≈86 in float32, ≈707 in float64 at these widths)
#: on most draws, so the max-shifted fallback replays as well as the fast
#: path.  float32 stops at ×100: at ×300 rounding in A' alone moves its
#: input gradient past the 1e-4 tolerance on some draws, on either path.
_LARGE_WEIGHT_SCALE = {np.float32: 100.0, np.float64: 1000.0}


def _keep(n, sizes):
    """Ragged keep mask: each item keeps its first n_i ≥ 1 regions."""
    return (np.arange(n) < np.array(sizes)[:, None]).astype(float)


@st.composite
def _region_chain_cases(draw):
    n = draw(st.integers(1, 7))
    channels = draw(st.integers(1, 12))
    batch = draw(st.one_of(st.none(), st.integers(1, 3)))
    keep = None
    if batch is not None:
        keep = _keep(n, draw(st.lists(st.integers(1, n), min_size=batch,
                                      max_size=batch)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1.0, _LARGE_WEIGHT_SCALE[dtype]]))
    return n, channels, batch, keep, dtype, seed, scale


#: One pinned case per forward path (see
#: test_pinned_region_chains_take_each_gate_path): the same ragged chain
#: with gate bound 3.8 in float32, and 2662 in float64.
_FAST_PATH_CASE = (6, 4, 2, _keep(6, [6, 3]), np.float32, 914433734, 1.0)
_FALLBACK_CASE = (6, 4, 2, _keep(6, [6, 3]), np.float64, 914433734, 1000.0)


def _region_chain(conv, pool, x, additive):
    corr = pool(conv(x))
    scores = corr if additive is None else corr + Tensor(additive)
    return (corr * F.softmax(scores, axis=-1)).mean(axis=-3)


def _assert_close(actual, expected, tolerance):
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=0.0,
                               atol=tolerance * scale)


def _check_fused_region_chain(case):
    """The RegionSA kernel pair — forward through an InferencePlan,
    backward through a replayed training plan — against the eager
    conv -> pool -> [+mask] -> softmax -> ⊙ -> channel-mean chain."""
    n, channels, batch, keep, dtype, seed, scale = case
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    with use_dtype(dtype):
        conv = Conv2d(1, channels, rng=rng)
        conv.bias.data[...] = rng.standard_normal(channels)
        conv.weight.data *= scale
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


@example(_FAST_PATH_CASE)
@example(_FALLBACK_CASE)
@given(_region_chain_cases())
def test_fused_region_chain_matches_eager(case):
    _check_fused_region_chain(case)


def _spy_gate_paths(monkeypatch) -> list[bool]:
    """Record every forward path choice of the fused RegionSA kernel
    (True: the max-shifted fallback)."""
    taken: list[bool] = []
    choose = compile_module._softmax_needs_shift

    def spy(*args):
        taken.append(choose(*args))
        return taken[-1]
    monkeypatch.setattr(compile_module, "_softmax_needs_shift", spy)
    return taken


@pytest.mark.parametrize("case, shift", [(_FAST_PATH_CASE, False),
                                         (_FALLBACK_CASE, True)],
                         ids=["fast", "fallback"])
def test_pinned_region_chains_take_each_gate_path(case, shift, monkeypatch):
    """The two pinned property examples replay one forward path each, so
    every derandomized run covers both."""
    taken = _spy_gate_paths(monkeypatch)
    _check_fused_region_chain(case)
    assert taken and set(taken) == {shift}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 2, 37, 180, 6000])
def test_gate_path_choice_at_the_limit(width, dtype):
    """The limit is the largest bound B whose row sums width·e^B stay
    within finfo.max / 2 and whose e^-B stays a normal number; the fast
    path takes B up to it and nothing past it, NaN or infinite."""
    info = np.finfo(dtype)
    limit = _unshifted_exp_limit(width, dtype)
    assert width * math.exp(limit) <= float(info.max) / 2 * (1 + 1e-12)
    assert math.exp(-limit) >= float(info.tiny) * (1 - 1e-12)
    past = limit * (1 + 1e-9)
    assert (width * math.exp(past) > float(info.max) / 2
            or math.exp(-past) < float(info.tiny))
    assert not _softmax_needs_shift(0.0, width, dtype)
    assert not _softmax_needs_shift(limit, width, dtype)
    assert _softmax_needs_shift(np.nextafter(limit, np.inf), width, dtype)
    for bound in (np.nan, np.inf, -np.inf):
        assert _softmax_needs_shift(bound, width, dtype)


def test_gate_limit_across_widths():
    """≈82.8 (float32) and ≈703.9 (float64) at the paper's width 180,
    shrinking with the width; other dtypes always keep the shift."""
    assert 82.8 < _unshifted_exp_limit(180, np.float32) < 82.9
    assert 703.8 < _unshifted_exp_limit(180, np.float64) < 703.9
    for dtype in (np.float32, np.float64):
        limits = [_unshifted_exp_limit(w, dtype) for w in (1, 180, 6000)]
        assert limits == sorted(limits, reverse=True)
    assert _unshifted_exp_limit(6000, np.float32) > 79.0
    assert _unshifted_exp_limit(6000, np.float64) > 700.0
    assert _softmax_needs_shift(0.0, 180, np.float16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("margin, shift", [(0.99, False), (1.01, True)])
def test_gate_bound_at_the_limit(dtype, margin, shift, monkeypatch):
    """A constant input and equal positive weights put every interior
    A' at the bound itself, the worst case for exp.  Just under the
    limit the unshifted softmax still matches eager; just past it the
    kernel falls back."""
    n, channels = 6, 2
    taken = _spy_gate_paths(monkeypatch)
    with use_dtype(dtype):
        conv = Conv2d(1, channels, rng=np.random.default_rng(0))
        bound = margin * _unshifted_exp_limit(n, dtype)
        conv.weight.data[...] = bound / 10.0
        conv.bias.data[...] = bound / 10.0
        a = np.ones((1, n, n), dtype)
        assert _gate_bound(a[0], conv.weight.data, conv.bias.data,
                           None) == pytest.approx(bound, rel=1e-6)
        pool = AvgPool2d()
        slot = Tensor(a.copy())
        with no_grad():
            expected = _region_chain(conv, pool, slot, None).data
            output, nodes = record_forward(
                lambda: _region_chain(conv, pool, slot, None))
        plan = InferencePlan(output, nodes, [slot], params=conv.parameters())
        got = plan.run([a])
    assert taken == [shift]
    assert np.isfinite(got).all()
    _assert_close(got, expected, _CHAIN_TOLERANCE[dtype])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["fully_masked_item", "positive_mask"])
def test_gate_bound_counts_the_mask(case, dtype, monkeypatch):
    """The bound covers the additive mask too: an item whose keys are all
    masked (every row shifts to a uniform softmax) or a large positive
    additive entry would give 0/0 or overflow without the shift, so the
    kernel falls back and matches eager."""
    n, channels = 5, 3
    keep = _keep(n, [3, n])
    if case == "fully_masked_item":
        keep[0] = 0.0
        additive = F.additive_key_mask(keep)
    else:
        additive = F.additive_key_mask(keep)
        additive[1, ..., 0] = 1000.0     # e^1000 overflows both dtypes
    taken = _spy_gate_paths(monkeypatch)
    rng = np.random.default_rng(3)
    with use_dtype(dtype):
        conv = Conv2d(1, channels, rng=rng)
        a = rng.random((2, 1, n, n)).astype(dtype)
        pool = AvgPool2d()
        slot = Tensor(a.copy())
        with no_grad():
            expected = _region_chain(conv, pool, slot, additive).data
            output, nodes = record_forward(
                lambda: _region_chain(conv, pool, slot, additive))
        plan = InferencePlan(output, nodes, [slot], params=conv.parameters())
        got = plan.run([a])
    assert taken == [True]
    assert np.isfinite(got).all()
    _assert_close(got, expected, _CHAIN_TOLERANCE[dtype])

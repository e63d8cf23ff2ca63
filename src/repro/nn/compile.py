"""Compiled training-step executor: record the autograd tape once, replay
it with preallocated buffers.

HAFusion trains full-batch for thousands of epochs, so every step has
identical shapes: the same ops, on the same buffers, with only the
parameter values changing between steps.  The eager engine nevertheless
rebuilds the whole Python tape each step — thousands of
:class:`~repro.nn.Tensor` objects, backward closures, and fresh numpy
allocations per epoch.  This module removes that cost:

- :func:`repro.nn.tensor.record_tape` captures one eager step's graph in
  creation order (creation order *is* execution order, which is what
  keeps stateful ops like dropout replayable);
- :class:`Plan` lowers the captured graph to a flat list of forward and
  backward kernels over preallocated slot buffers — no ``Tensor``
  construction, no closure allocation, in-place numpy kernels
  (``np.matmul(..., out=)``, ``np.exp(x, out=buf)``, fused
  softmax/log-softmax backward), and gradient buffers reused across
  epochs.  Pure view ops (reshape/swapaxes/slice of a fixed buffer)
  replay as no-ops;
- :class:`CompiledStep` wraps record + replay with an automatic eager
  fallback: when the step signature (e.g. input shapes) changes or a
  parameter array is replaced (``load_state_dict``), the step re-records
  by running eagerly once and continues compiled.

Replay arithmetic is operation-for-operation equivalent to the eager
tape's (locked down by ``tests/core/test_compiled_parity.py`` and the
compiled golden-trajectory test); the admissible differences are the
*order* in which fan-out gradients are accumulated and the
re-associations inside the fused RegionSA chain kernels (pooled taps, a
gate softmax without its row max under a proven bound, row sums on BLAS)
— pure float-rounding effects, which is why parity is ≤1e-8 in float64
rather than bit-exact.

Contract: a compiled step assumes a *static* step — constant inputs and
loss targets, with parameters the only state changing between replays
(exactly full-batch training).  Dropout stays exact: each ``dropout``
node redraws its mask from the same ``Generator`` in recorded order, so
the stream of draws matches what the eager step would have consumed
(dropout on a constant input is off-tape and therefore rejected at
record time rather than silently frozen).

Memory: a buffer-liveness pass pools gradient buffers by last-consumer
position — an interior slot's gradient buffer is recycled as soon as the
slot's own backward kernel has consumed it, so the resident set is the
live gradient window plus the leaf gradients rather than one buffer per
slot (the PR 2 layout, still available via ``pool_gradients=False`` and
reported by :meth:`Plan.buffer_report`).  The forward-only
:class:`InferencePlan` applies the same pass to activation slots, with
rebindable input buffers so one plan serves every same-shaped request;
:mod:`repro.nn.plancache` serializes those plans so repeated runs skip
the record epoch entirely.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .module import Parameter
from .tensor import Tensor, _is_basic_index, _unbroadcast, record_tape

__all__ = ["Plan", "InferencePlan", "CompiledStep", "record_forward",
           "RECORD_STATS", "RecordStats",
           "DEFAULT_LOWERING", "resolve_lowering", "resolve_backend",
           "resolve_workers"]


class RecordStats:
    """Global counter of tape-record events (the expensive eager epochs).

    Every plan (re-)recording — a training step captured by
    :class:`CompiledStep` or an inference pass captured by
    :func:`record_forward` — bumps a counter here, so tests and benchmark
    harnesses can assert that a warm plan cache performs **zero** record
    epochs (`RECORD_STATS.reset(); ...; assert RECORD_STATS.total == 0`).
    """

    def __init__(self):
        self.training_records = 0
        self.inference_records = 0

    @property
    def total(self) -> int:
        return self.training_records + self.inference_records

    def reset(self) -> None:
        self.training_records = 0
        self.inference_records = 0


RECORD_STATS = RecordStats()


# ----------------------------------------------------------------------
# Lowering and replay
# ----------------------------------------------------------------------
#
# Every plan lowers one way: batched GEMMs flattened to single BLAS
# calls, the whole RegionSA correlation chain as one pooled-tap kernel
# pair, the fused LayerNorm chain, preallocated sink temporaries, and
# kernel scratch leased from a per-plan pool instead of private
# per-kernel arrays.
#
# Every plan replays its flat kernel list on the caller's thread, one
# kernel after another; BLAS owns all parallelism.  The resolvers below
# name that one lowering and one replay for the benchmark's machine
# record.

DEFAULT_LOWERING = "v2"


def resolve_lowering(lowering: str | None = None) -> str:
    """The name of the one lowering (the benchmark's machine record
    reports it); any other explicit value is an error."""
    value = lowering or DEFAULT_LOWERING
    if value != DEFAULT_LOWERING:
        raise ValueError(f"unknown plan lowering {value!r}; "
                         f"the only lowering is {DEFAULT_LOWERING!r}")
    return value


def resolve_backend(backend: str | None = None) -> str:
    """The name of the one replay, serial on the caller's thread (the
    benchmark's machine record reports it); any other explicit value is
    an error."""
    value = backend or "serial"
    if value != "serial":
        raise ValueError(f"unknown plan backend {value!r}; "
                         "plans replay serially")
    return value


def resolve_workers(num_workers: int | None = None) -> int:
    """Plan replay threads: always one (the benchmark's machine record
    reports it)."""
    return 1


class _BuildContext:
    """Per-plan build state the kernel builders read from ``scratch``.

    Owns the *kernel scratch lease pool*: kernels that need private
    temporaries (the RegionSA chain's box, plane and gradient buffers,
    the fused LayerNorm rows, accumulate-path products) lease them by
    (shape, dtype, tag) instead of allocating per kernel.  Kernel
    scratch is dead outside its own kernel and kernels replay one at a
    time, so every same-shaped lease shares one buffer; a kernel that
    needs two same-shaped temporaries at once tells them apart with
    ``tag``.
    """

    KEY = "__build__"   # scratch-dict key (node keys are ints, no clash)

    def __init__(self):
        self._leases: dict[tuple, np.ndarray] = {}

    def lease(self, shape, dtype, tag: Hashable = 0) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str, tag)
        buf = self._leases.get(key)
        if buf is None:
            buf = self._leases[key] = np.empty(key[0], dtype=dtype)
        return buf

    @property
    def scratch_bytes(self) -> int:
        return sum(buf.nbytes for buf in self._leases.values())


def _lease(scratch: dict, shape, dtype, tag: Hashable = 0) -> np.ndarray:
    """Kernel scratch from the plan's lease pool (private when there is
    no build context, e.g. a builder exercised standalone in tests)."""
    ctx = scratch.get(_BuildContext.KEY)
    if ctx is None:
        return np.empty(shape, dtype)
    return ctx.lease(shape, dtype, tag)


def record_forward(fn: Callable[[], Tensor]) -> tuple[Tensor, list[Tensor]]:
    """Run ``fn`` under a forward-only tape; returns (output, nodes).

    The standard capture step for :class:`InferencePlan`: call under
    ``no_grad`` with the model in ``eval()`` mode so no backward closures
    are built and dropout is elided.
    """
    with record_tape(forward=True) as nodes:
        output = fn()
    RECORD_STATS.inference_records += 1
    return output, nodes


def _reachable(root: Tensor, nodes: list[Tensor],
               message: str = "output depends on graph nodes created outside "
                              "the recorded forward pass; build the whole "
                              "forward inside the recording",
               ) -> dict[int, Tensor]:
    """``root``'s graph, keyed by ``id`` in depth-first discovery order.

    Raises ``RuntimeError(message)`` when a computed node of it is not in
    ``nodes``, i.e. was built outside the recording and cannot replay.
    """
    recorded = {id(n) for n in nodes}
    reachable: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in reachable:
            continue
        reachable[id(t)] = t
        if t._prev and id(t) not in recorded:
            raise RuntimeError(message)
        stack.extend(t._prev)
    return reachable


def _mark(written: set[int], key: int) -> bool:
    """First write to a gradient buffer stores; later writes accumulate.

    Called at *build* time in exact edge-execution order, so the flag is
    static and replay never needs to zero gradient buffers.
    """
    if key in written:
        return False
    written.add(key)
    return True


def _contrib_sink(pg: np.ndarray, contrib_shape, store: bool) -> Callable:
    """Return ``fn(contribution)`` storing/accumulating into ``pg``,
    reducing broadcast axes first when the shapes differ."""
    if tuple(contrib_shape) == pg.shape:
        if store:
            return lambda c: np.copyto(pg, c)
        return lambda c: np.add(pg, c, out=pg)
    if store:
        return lambda c: np.copyto(pg, _unbroadcast(np.asarray(c), pg.shape))
    return lambda c: np.add(pg, _unbroadcast(np.asarray(c), pg.shape), out=pg)


# ----------------------------------------------------------------------
# Forward kernel builders: op tag -> fn(node, scratch) -> callable | None
# (None = no work at replay time, e.g. a pure view).  Every kernel is
# arithmetically identical to the eager op it replays.
# ----------------------------------------------------------------------

def _is_view(node: Tensor) -> bool:
    return (node.data.base is not None
            and np.may_share_memory(node.data, node._prev[0].data))


def _zeros_with_layout(shape, like: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` laid out in memory like ``like`` (same axis
    order by descending stride), so bulk copies between the two iterate
    both arrays contiguously.  Shapes may differ per axis."""
    order = sorted(range(len(shape)), key=lambda i: -like.strides[i])
    buf = np.zeros(tuple(shape[i] for i in order), dtype=like.dtype)
    return buf.transpose(np.argsort(order))


def _fwd_add(node, scratch):
    a, b = node._prev[0].data, node._prev[1].data
    out = node.data
    return lambda: np.add(a, b, out=out)


def _fwd_mul(node, scratch):
    a, b = node._prev[0].data, node._prev[1].data
    out = node.data
    return lambda: np.multiply(a, b, out=out)


def _fwd_pow(node, scratch):
    (exponent,) = node._ctx
    a, out = node._prev[0].data, node.data
    # ``a ** e`` (not np.power) so numpy's special-cased exponents
    # (2, 0.5, -1, -0.5) match the eager computation bit-for-bit.
    return lambda: np.copyto(out, a ** exponent)


def _fwd_matmul(node, scratch):
    a, b = node._prev[0].data, node._prev[1].data
    out = node.data
    if (a.ndim >= 3 and b.ndim == 2
            and a.flags.c_contiguous and out.flags.c_contiguous):
        # A batch of row blocks times one shared right matrix is a single
        # GEMM on the flattened rows: every output element is the same
        # dot product over the same k-panel, so the result is bitwise
        # identical to the batched call — minus the per-block dispatch
        # of a loop of tiny GEMMs.
        a2 = a.reshape(-1, a.shape[-1])
        o2 = out.reshape(-1, out.shape[-1])
        return lambda: np.matmul(a2, b, out=o2)
    if a.ndim >= 2 and b.ndim >= 2:
        return lambda: np.matmul(a, b, out=out)
    return lambda: np.copyto(out, a @ b)


def _fwd_exp(node, scratch):
    a, out = node._prev[0].data, node.data
    return lambda: np.exp(a, out=out)


def _fwd_log(node, scratch):
    a, out = node._prev[0].data, node.data
    return lambda: np.log(a, out=out)


def _fwd_tanh(node, scratch):
    a, out = node._prev[0].data, node.data
    return lambda: np.tanh(a, out=out)


def _fwd_sigmoid(node, scratch):
    a, out = node._prev[0].data, node.data

    def run():
        np.negative(a, out=out)
        np.exp(out, out=out)
        np.add(out, 1.0, out=out)
        np.divide(1.0, out, out=out)
    return run


def _fwd_relu(node, scratch):
    a, out = node._prev[0].data, node.data
    return lambda: np.maximum(a, 0.0, out=out)


def _fwd_leaky_relu(node, scratch):
    (slope,) = node._ctx
    a, out = node._prev[0].data, node.data

    def run():
        # out = a * where(a > 0, 1, slope): a*1.0 is bitwise a, so the
        # positive branch is a plain masked copy.
        np.multiply(a, slope, out=out)
        np.copyto(out, a, where=a > 0.0)
    return run


def _fwd_abs(node, scratch):
    a, out = node._prev[0].data, node.data
    return lambda: np.abs(a, out=out)


def _fwd_softmax(node, scratch):
    (axis,) = node._ctx
    a, out = node._prev[0].data, node.data

    def run():
        np.subtract(a, a.max(axis=axis, keepdims=True), out=out)
        np.exp(out, out=out)
        np.divide(out, out.sum(axis=axis, keepdims=True), out=out)
    return run


def _fwd_log_softmax(node, scratch):
    (axis,) = node._ctx
    a, out = node._prev[0].data, node.data

    def run():
        np.subtract(a, a.max(axis=axis, keepdims=True), out=out)
        np.subtract(out, np.log(np.exp(out).sum(axis=axis, keepdims=True)),
                    out=out)
    return run


def _fwd_sum(node, scratch):
    axis, keepdims = node._ctx
    a, out = node._prev[0].data, node.data
    return lambda: np.sum(a, axis=axis, keepdims=keepdims, out=out)


def _fwd_max(node, scratch):
    axis, keepdims = node._ctx
    a, out = node._prev[0].data, node.data
    return lambda: np.amax(a, axis=axis, keepdims=keepdims, out=out)


def _fwd_reshape(node, scratch):
    if _is_view(node):
        return None
    a, out = node._prev[0].data, node.data
    return lambda: np.copyto(out, a.reshape(out.shape))


def _fwd_swapaxes(node, scratch):
    if _is_view(node):
        return None
    ax1, ax2 = node._ctx
    a, out = node._prev[0].data, node.data
    return lambda: np.copyto(out, a.swapaxes(ax1, ax2))


def _fwd_transpose(node, scratch):
    if _is_view(node):
        return None
    (axes,) = node._ctx
    a, out = node._prev[0].data, node.data
    return lambda: np.copyto(out, a.transpose(axes))


def _fwd_expand_dims(node, scratch):
    return None if _is_view(node) else _fwd_reshape(node, scratch)


def _fwd_squeeze(node, scratch):
    return None if _is_view(node) else _fwd_reshape(node, scratch)


def _fwd_getitem(node, scratch):
    if _is_view(node):
        return None
    (index,) = node._ctx
    a, out = node._prev[0].data, node.data
    return lambda: np.copyto(out, a[index])


def _fwd_concat(node, scratch):
    (axis,) = node._ctx
    arrays = [p.data for p in node._prev]
    out = node.data
    return lambda: np.concatenate(arrays, axis=axis, out=out)


def _fwd_stack(node, scratch):
    (axis,) = node._ctx
    out = node.data
    ax = axis % out.ndim
    pairs = [(out[(slice(None),) * ax + (i,)], p.data)
             for i, p in enumerate(node._prev)]

    def run():
        for view, src in pairs:
            np.copyto(view, src)
    return run


def _fwd_dropout(node, scratch):
    p, rng, mask = node._ctx
    a, out = node._prev[0].data, node.data
    rand = np.empty(a.shape, dtype=np.float64)
    kept = np.empty(a.shape, dtype=bool)
    # Adopt the eagerly drawn mask as the plan buffer: the recording
    # step's backward then reads the exact mask its forward used.
    scratch[id(node)] = mask

    def run():
        # Same draw, same comparison, same division as the eager op, so
        # the rng stream and the mask values match an eager step exactly.
        rng.random(out=rand)
        np.greater_equal(rand, p, out=kept)
        np.copyto(mask, kept)
        np.divide(mask, 1.0 - p, out=mask)
        np.multiply(a, mask, out=out)
    return run


def _fwd_conv2d(node, scratch):
    # A whole RegionSA chain's conv replays inside the pooled-tap chain
    # kernel instead, so only other convolutions get here.
    kernel, pad, batched, eager_cols = node._ctx
    x = node._prev[0].data
    weight = node._prev[1].data
    bias = node._prev[2].data if len(node._prev) > 2 else None
    out = node.data
    data4 = x if batched else x[None]
    batch, channels, height, width = data4.shape
    out_channels = weight.shape[0]
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad),
                      dtype=x.dtype)
    inner = padded[:, :, pad:pad + height, pad:pad + width]
    s = padded.strides
    # Patch view already laid out as (B, H, W, C, k, k) — one copy into a
    # preallocated buffer replaces _im2col's transpose+reshape copy.
    patches = np.lib.stride_tricks.as_strided(
        padded, shape=(batch, height, width, channels, kernel, kernel),
        strides=(s[0], s[2], s[3], s[1], s[2], s[3]), writeable=False)
    # Adopt the eager im2col buffer: the recording step's backward then
    # reads the exact patch matrix its forward produced.  Plan-cache
    # rebuilds pass cols=None; allocate a fresh buffer in that case.
    cols = eager_cols
    if cols is None:
        cols = np.empty((batch * height * width, channels * kernel * kernel),
                        dtype=x.dtype)
    cols6 = cols.reshape(batch, height, width, channels, kernel, kernel)
    flat_w = weight.reshape(out_channels, -1)
    out4 = out if batched else out[None]
    scratch[id(node)] = cols
    # The eager output is a transposed *view* of the GEMM result; adopt
    # that base array as the matmul target so the replay, like the eager
    # op, never materializes the (B, O, H, W) layout.
    mm = out.base
    adopted = (mm is not None
               and mm.shape == (batch * height * width, out_channels))
    # Channel-first contiguous output — an InferencePlan's pooled slot
    # at batch 1, which the liveness pass rebinds to a fresh C-contiguous
    # buffer: run the GEMM transposed — flat_w @ colsᵀ lands directly in
    # the (O, H·W) layout, so no transposition pass is ever materialized.
    transposed = (not adopted and batch == 1 and out4.flags.c_contiguous)
    if not (adopted or transposed):
        mm = np.empty((batch * height * width, out_channels), dtype=x.dtype)
    out_flat = out4.reshape(out_channels, -1) if transposed else None

    def run():
        np.copyto(inner, data4)
        np.copyto(cols6, patches)
        if transposed:
            np.matmul(flat_w, cols.T, out=out_flat)
            if bias is not None:
                np.add(out_flat, bias[:, None], out=out_flat)
            return
        np.matmul(cols, flat_w.T, out=mm)
        if bias is not None:
            np.add(mm, bias, out=mm)
        if not adopted:
            np.copyto(out4, mm.reshape(batch, height, width,
                                       out_channels).transpose(0, 3, 1, 2))
    return run


def _fwd_avgpool2d(node, scratch):
    kernel, pad = node._ctx
    a, out = node._prev[0].data, node.data
    height, width = a.shape[-2:]
    scale = 1.0 / (kernel * kernel)
    padded = _zeros_with_layout(
        a.shape[:-2] + (height + 2 * pad, width + 2 * pad), a)
    inner = padded[..., pad:pad + height, pad:pad + width]

    def run():
        np.copyto(inner, a)
        out.fill(0.0)
        for ky in range(kernel):
            for kx in range(kernel):
                np.add(out, padded[..., ky:ky + height, kx:kx + width],
                       out=out)
        np.multiply(out, scale, out=out)
    return run


_FWD = {
    "add": _fwd_add,
    "mul": _fwd_mul,
    "pow": _fwd_pow,
    "matmul": _fwd_matmul,
    "exp": _fwd_exp,
    "log": _fwd_log,
    "tanh": _fwd_tanh,
    "sigmoid": _fwd_sigmoid,
    "relu": _fwd_relu,
    "leaky_relu": _fwd_leaky_relu,
    "abs": _fwd_abs,
    "softmax": _fwd_softmax,
    "log_softmax": _fwd_log_softmax,
    "sum": _fwd_sum,
    "max": _fwd_max,
    "reshape": _fwd_reshape,
    "swapaxes": _fwd_swapaxes,
    "transpose": _fwd_transpose,
    "expand_dims": _fwd_expand_dims,
    "squeeze": _fwd_squeeze,
    "getitem": _fwd_getitem,
    "concat": _fwd_concat,
    "stack": _fwd_stack,
    "dropout": _fwd_dropout,
    "conv2d": _fwd_conv2d,
    "avgpool2d": _fwd_avgpool2d,
}

# ----------------------------------------------------------------------
# Backward kernel builders:
#   op tag -> fn(node, grads, written, scratch) -> callable | None
# ``grads`` maps id(tensor) -> preallocated gradient buffer; ``written``
# is the static first-write analysis driven by _mark().
# ----------------------------------------------------------------------

def _bwd_add(node, grads, written, scratch):
    g = grads[id(node)]
    sinks = []
    for p in node._prev:
        if p.requires_grad:
            sinks.append(_contrib_sink(grads[id(p)], g.shape,
                                       _mark(written, id(p))))

    def run():
        for sink in sinks:
            sink(g)
    return run


def _bwd_mul(node, grads, written, scratch):
    g = grads[id(node)]
    a, b = node._prev
    runs = []
    for self_t, other_t in ((a, b), (b, a)):
        if not self_t.requires_grad:
            continue
        pg = grads[id(self_t)]
        other = other_t.data
        store = _mark(written, id(self_t))
        if pg.shape == g.shape:
            if store:
                runs.append(lambda pg=pg, other=other:
                            np.multiply(g, other, out=pg))
            else:
                tmp = _lease(scratch, g.shape, g.dtype, "mul")

                def accumulate(pg=pg, other=other, tmp=tmp):
                    np.multiply(g, other, out=tmp)
                    np.add(pg, tmp, out=pg)
                runs.append(accumulate)
        else:
            sink = _contrib_sink(pg, g.shape, store)
            runs.append(lambda sink=sink, other=other: sink(g * other))

    def run():
        for fn in runs:
            fn()
    return run


def _bwd_pow(node, grads, written, scratch):
    (exponent,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    a = parent.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g * exponent * a ** (exponent - 1.0))


def _bwd_matmul(node, grads, written, scratch):
    g = grads[id(node)]
    a_t, b_t = node._prev
    a, b = a_t.data, b_t.data
    runs = []
    if a_t.requires_grad:
        pg = grads[id(a_t)]
        store = _mark(written, id(a_t))
        if b.ndim == 1:
            shape = g.shape + b.shape
            sink = _contrib_sink(pg, shape, store)
            runs.append(lambda sink=sink: sink(np.expand_dims(g, -1) * b))
        elif a.ndim == 1:
            axes = tuple(range(b.ndim - 2)) + (-1,)
            sink = _contrib_sink(pg, a.shape, store)
            runs.append(lambda sink=sink, axes=axes:
                        sink((np.expand_dims(g, -2) * b).sum(axis=axes)))
        else:
            b_T = b.swapaxes(-1, -2)
            shape = (np.broadcast_shapes(g.shape[:-2], b_T.shape[:-2])
                     + (g.shape[-2], b_T.shape[-1]))
            flat = (b.ndim == 2 and g.ndim >= 3
                    and tuple(shape) == pg.shape
                    and g.flags.c_contiguous and pg.flags.c_contiguous)
            if flat:
                # Same flattened-GEMM rewrite as the forward: dA rows
                # are independent dot products against b_T, so one flat
                # GEMM is bitwise the batched loop.
                g2 = g.reshape(-1, g.shape[-1])
                pg2 = pg.reshape(-1, pg.shape[-1])
                if store:
                    runs.append(lambda pg2=pg2, g2=g2, b_T=b_T:
                                np.matmul(g2, b_T, out=pg2))
                else:
                    tmp = _lease(scratch, pg2.shape, pg.dtype, "mm")

                    def acc_a(pg2=pg2, g2=g2, b_T=b_T, tmp=tmp):
                        np.matmul(g2, b_T, out=tmp)
                        np.add(pg2, tmp, out=pg2)
                    runs.append(acc_a)
            elif store and tuple(shape) == pg.shape:
                runs.append(lambda pg=pg, b_T=b_T: np.matmul(g, b_T, out=pg))
            elif tuple(shape) == pg.shape:
                # Accumulate path without the per-replay allocation: GEMM
                # into leased scratch, then one in-place add.
                tmp = _lease(scratch, shape, pg.dtype, "mm")

                def acc_a2(pg=pg, b_T=b_T, tmp=tmp):
                    np.matmul(g, b_T, out=tmp)
                    np.add(pg, tmp, out=pg)
                runs.append(acc_a2)
            else:
                sink = _contrib_sink(pg, shape, store)
                runs.append(lambda sink=sink, b_T=b_T: sink(g @ b_T))
    if b_t.requires_grad:
        pg = grads[id(b_t)]
        store = _mark(written, id(b_t))
        if a.ndim == 1:
            if b.ndim == 1:
                sink = _contrib_sink(pg, b.shape, store)

                def run_b(sink=sink):
                    contrib = np.expand_dims(a, -1) * np.expand_dims(g, -2)
                    sink(contrib.sum(axis=tuple(range(contrib.ndim - 1))))
                runs.append(run_b)
            else:
                shape = np.broadcast_shapes(
                    (a.shape[0], 1), np.expand_dims(g, -2).shape)
                sink = _contrib_sink(pg, shape, store)
                runs.append(lambda sink=sink: sink(
                    np.expand_dims(a, -1) * np.expand_dims(g, -2)))
        elif b.ndim == 1:
            axes = tuple(range(a.ndim - 1))
            sink = _contrib_sink(pg, b.shape, store)
            runs.append(lambda sink=sink, axes=axes:
                        sink((np.expand_dims(g, -1) * a).sum(axis=axes)))
        else:
            a_T = a.swapaxes(-1, -2)
            shape = (np.broadcast_shapes(a_T.shape[:-2], g.shape[:-2])
                     + (a_T.shape[-2], g.shape[-1]))
            flat = (b.ndim == 2 and a.ndim >= 3
                    and a.shape[:-2] == g.shape[:-2]
                    and a.flags.c_contiguous and g.flags.c_contiguous)
            if flat:
                # dB = Σ_batch a[i]ᵀ @ g[i]: flattening the batch rows
                # turns the materialize-then-unbroadcast reduction (a
                # (B, k, n) temporary per replay) into one GEMM whose
                # k-loop runs over the same products in a different
                # association — ≈1e-15 relative rounding, inside the
                # ≤1e-8 parity budget like the fused-gate re-association.
                a2_T = a.reshape(-1, a.shape[-1]).T
                g2 = g.reshape(-1, g.shape[-1])
                if store:
                    runs.append(lambda pg=pg, a2_T=a2_T, g2=g2:
                                np.matmul(a2_T, g2, out=pg))
                else:
                    tmp = _lease(scratch, pg.shape, pg.dtype, "mm")

                    def acc_b(pg=pg, a2_T=a2_T, g2=g2, tmp=tmp):
                        np.matmul(a2_T, g2, out=tmp)
                        np.add(pg, tmp, out=pg)
                    runs.append(acc_b)
            elif store and tuple(shape) == pg.shape:
                runs.append(lambda pg=pg, a_T=a_T: np.matmul(a_T, g, out=pg))
            elif tuple(shape) == pg.shape:
                tmp = _lease(scratch, shape, pg.dtype, "mm")

                def acc_b2(pg=pg, a_T=a_T, tmp=tmp):
                    np.matmul(a_T, g, out=tmp)
                    np.add(pg, tmp, out=pg)
                runs.append(acc_b2)
            else:
                sink = _contrib_sink(pg, shape, store)
                runs.append(lambda sink=sink, a_T=a_T: sink(a_T @ g))

    def run():
        for fn in runs:
            fn()
    return run


def _bwd_exp(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    out = node.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g * out)


def _bwd_log(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    a = parent.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g / a)


def _bwd_tanh(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    out = node.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g * (1.0 - out ** 2))


def _bwd_sigmoid(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    out = node.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g * out * (1.0 - out))


def _bwd_relu(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    a = parent.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g * (a > 0.0))


def _bwd_leaky_relu(node, grads, written, scratch):
    (slope,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    a = parent.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    # g * where(a > 0, 1, slope): the kept branch g*1.0 is bitwise g.
    return lambda: sink(np.where(a > 0.0, g, g * slope))


def _bwd_abs(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    a = parent.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))
    return lambda: sink(g * np.sign(a))


def _bwd_softmax(node, grads, written, scratch):
    (axis,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    out = node.data
    pg = grads[id(parent)]
    store = _mark(written, id(parent))
    # dx = out ⊙ (g − Σ g⊙out) staged through one buffer: the parent
    # grad itself when storing, a preallocated scratch when accumulating.
    if store and pg.shape == g.shape:
        tmp = pg
    else:
        tmp = _lease(scratch, g.shape, g.dtype, "softmax")

    def run():
        np.multiply(g, out, out=tmp)
        dot = tmp.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=tmp)
        np.multiply(out, tmp, out=tmp)
        if tmp is not pg:
            np.add(pg, tmp, out=pg)
    return run


def _bwd_log_softmax(node, grads, written, scratch):
    (axis,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    out = node.data
    sink = _contrib_sink(grads[id(parent)], g.shape, _mark(written, id(parent)))

    def run():
        total = g.sum(axis=axis, keepdims=True)
        sink(g - np.exp(out) * total)
    return run


def _bwd_sum(node, grads, written, scratch):
    axis, keepdims = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    pg = grads[id(parent)]
    store = _mark(written, id(parent))
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else axis
        expand = tuple(ax % parent.ndim for ax in axes)
    else:
        expand = None

    def run():
        ge = np.expand_dims(g, expand) if expand is not None else g
        if store:
            np.copyto(pg, ge)       # copyto broadcasts ge up to pg
        else:
            np.add(pg, ge, out=pg)
    return run


def _bwd_max(node, grads, written, scratch):
    axis, keepdims = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    a = parent.data
    sink = _contrib_sink(grads[id(parent)], a.shape, _mark(written, id(parent)))

    def run():
        expanded = a.max(axis=axis, keepdims=True)
        mask = (a == expanded).astype(a.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        ge = g
        if axis is not None and not keepdims:
            ge = np.expand_dims(g, axis)
        sink(mask * ge)
    return run


def _bwd_reshape(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    shape = parent.shape
    sink = _contrib_sink(grads[id(parent)], shape, _mark(written, id(parent)))
    return lambda: sink(g.reshape(shape))


def _bwd_swapaxes(node, grads, written, scratch):
    ax1, ax2 = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    sink = _contrib_sink(grads[id(parent)], parent.shape,
                         _mark(written, id(parent)))
    return lambda: sink(g.swapaxes(ax1, ax2))


def _bwd_transpose(node, grads, written, scratch):
    (axes,) = node._ctx
    inverse = np.argsort(axes)
    g = grads[id(node)]
    parent = node._prev[0]
    sink = _contrib_sink(grads[id(parent)], parent.shape,
                         _mark(written, id(parent)))
    return lambda: sink(g.transpose(inverse))


def _bwd_expand_dims(node, grads, written, scratch):
    (axis,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    sink = _contrib_sink(grads[id(parent)], parent.shape,
                         _mark(written, id(parent)))
    return lambda: sink(g.squeeze(axis))


def _bwd_squeeze(node, grads, written, scratch):
    (axis,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    sink = _contrib_sink(grads[id(parent)], parent.shape,
                         _mark(written, id(parent)))
    return lambda: sink(np.expand_dims(g, axis))


def _bwd_getitem(node, grads, written, scratch):
    (index,) = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    pg = grads[id(parent)]
    store = _mark(written, id(parent))
    basic = _is_basic_index(index)

    def run():
        if store:
            pg.fill(0.0)            # a slice write covers pg only partially
        if basic:
            pg[index] += g
        else:
            np.add.at(pg, index, g)
    return run


def _bwd_concat(node, grads, written, scratch):
    (axis,) = node._ctx
    g = grads[id(node)]
    ax = axis % node.ndim
    runs = []
    offset = 0
    for p in node._prev:
        size = p.shape[ax]
        if p.requires_grad:
            idx = (slice(None),) * ax + (slice(offset, offset + size),)
            sink = _contrib_sink(grads[id(p)], p.shape, _mark(written, id(p)))
            runs.append(lambda sink=sink, idx=idx: sink(g[idx]))
        offset += size

    def run():
        for fn in runs:
            fn()
    return run


def _bwd_stack(node, grads, written, scratch):
    (axis,) = node._ctx
    g = grads[id(node)]
    ax = axis % node.ndim
    runs = []
    for i, p in enumerate(node._prev):
        if p.requires_grad:
            idx = (slice(None),) * ax + (i,)
            sink = _contrib_sink(grads[id(p)], p.shape, _mark(written, id(p)))
            runs.append(lambda sink=sink, idx=idx: sink(g[idx]))

    def run():
        for fn in runs:
            fn()
    return run


def _bwd_dropout(node, grads, written, scratch):
    g = grads[id(node)]
    parent = node._prev[0]
    mask = scratch[id(node)]
    pg = grads[id(parent)]
    store = _mark(written, id(parent))
    if store:
        return lambda: np.multiply(g, mask, out=pg)
    return lambda: np.add(pg, g * mask, out=pg)


def _bwd_conv2d(node, grads, written, scratch):
    kernel, pad, batched, _ = node._ctx
    g = grads[id(node)]
    x_t, w_t = node._prev[0], node._prev[1]
    bias_t = node._prev[2] if len(node._prev) > 2 else None
    x, weight = x_t.data, w_t.data
    cols = scratch[id(node)]
    data4_shape = x.shape if batched else (1,) + x.shape
    batch, channels, height, width = data4_shape
    out_channels = weight.shape[0]
    flat_w = weight.reshape(out_channels, -1)
    g4 = g if batched else g[None]
    # Gradient buffers are C-contiguous, so at batch 1 the whole backward
    # runs off the transposed (O, H·W) view of the channel-first
    # gradient — the same dot products, no transposition pass.
    transposed = batch == 1 and g4.flags.c_contiguous
    if transposed:
        g_om = g4.reshape(out_channels, -1)
        gs4 = gflat = None
    else:
        g_om = None
        gs4 = np.empty((batch, height, width, out_channels), dtype=g.dtype)
        gflat = gs4.reshape(-1, out_channels)
    runs = []
    if w_t.requires_grad:
        wg = grads[id(w_t)]
        store = _mark(written, id(w_t))
        wg_flat = wg.reshape(out_channels, -1)
        if transposed:
            if store:
                runs.append(lambda: np.matmul(g_om, cols, out=wg_flat))
            else:
                runs.append(lambda: np.add(wg_flat, g_om @ cols, out=wg_flat))
        elif store:
            runs.append(lambda: np.matmul(gflat.T, cols, out=wg_flat))
        else:
            runs.append(lambda: np.add(
                wg, (gflat.T @ cols).reshape(wg.shape), out=wg))
    if bias_t is not None and bias_t.requires_grad:
        sink = _contrib_sink(grads[id(bias_t)], (out_channels,),
                             _mark(written, id(bias_t)))
        if transposed:
            runs.append(lambda: sink(g_om.sum(axis=1)))
        else:
            runs.append(lambda: sink(gflat.sum(axis=0)))
    if x_t.requires_grad:
        pg = grads[id(x_t)]
        store = _mark(written, id(x_t))
        gcols = np.empty((channels * kernel * kernel,
                          batch * height * width) if transposed else
                         (batch * height * width,
                          channels * kernel * kernel), dtype=g.dtype)
        if transposed:
            gcols6 = gcols.reshape(channels, kernel, kernel,
                                   batch, height, width)
        else:
            gcols6 = gcols.reshape(batch, height, width,
                                   channels, kernel, kernel)
        gpadded = np.empty((batch, channels, height + 2 * pad,
                            width + 2 * pad), dtype=g.dtype)
        crop = (gpadded[:, :, pad:-pad, pad:-pad] if pad else gpadded)

        def run_x():
            if transposed:
                np.matmul(flat_w.T, g_om, out=gcols)
            else:
                np.matmul(gflat, flat_w, out=gcols)
            gpadded.fill(0.0)
            for ky in range(kernel):
                for kx in range(kernel):
                    if transposed:
                        gpadded[:, :, ky:ky + height, kx:kx + width] += \
                            gcols6[:, ky, kx].swapaxes(0, 1)
                    else:
                        gpadded[:, :, ky:ky + height, kx:kx + width] += \
                            gcols6[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
            contrib = crop if batched else crop[0]
            if store:
                np.copyto(pg, contrib)
            else:
                np.add(pg, contrib, out=pg)
        runs.append(run_x)

    def run():
        if not transposed:
            np.copyto(gs4, g4.transpose(0, 2, 3, 1))
        for fn in runs:
            fn()
    return run


def _bwd_avgpool2d(node, grads, written, scratch):
    kernel, pad = node._ctx
    g = grads[id(node)]
    parent = node._prev[0]
    pg = grads[id(parent)]
    store = _mark(written, id(parent))
    height, width = parent.shape[-2:]
    scale = 1.0 / (kernel * kernel)
    gpadded = _zeros_with_layout(
        parent.shape[:-2] + (height + 2 * pad, width + 2 * pad), g)
    crop = gpadded[..., pad:-pad, pad:-pad] if pad else gpadded

    def run():
        gpadded.fill(0.0)
        for ky in range(kernel):
            for kx in range(kernel):
                gpadded[..., ky:ky + height, kx:kx + width] += g
        np.multiply(gpadded, scale, out=gpadded)
        if store:
            np.copyto(pg, crop)
        else:
            np.add(pg, crop, out=pg)
    return run


# ----------------------------------------------------------------------
# RegionSA chain fusion (Eq. 13-14)
# ----------------------------------------------------------------------
#
# RegionSA's correlation path — conv2d(1→c, 3x3) -> avgpool2d(3) ->
# [+ additive key mask] -> softmax(-1) -> ⊙ -> sum(axis=-3) -> ×1/c —
# is memory bound: at the paper's c=32 every op sweeps a (c, n, n) array
# that was just written.  One n×n plane already fits in L2 (130 KB at
# n=180 in float32), so tiling rows buys nothing; the only lever is
# making fewer passes.
#
# The plan lowers the whole chain to one kernel pair (_RegionFusion).
# Conv and pool are both linear, so
#
#     pool(conv(A)) = ([W | b] / 9) · Q
#
# where Q stacks the nine *pooled taps* of A — tap (ky, kx) is the
# same-padded 3x3 window sum of the conv's (ky, kx)-shifted input — and
# the window counts 9·pool(1) as the bias row.  One K=10 GEMM writes A'
# in place of the conv GEMM plus c per-channel pools (and, backward,
# their adjoints), and the nine taps come from one extended box of A
# (_pooled_taps).  Per channel the kernel then runs the gate softmax and
# ⊙ and accumulates the channel mean in channel order, so neither the
# conv output nor A' ⊙ softmax(A') is ever a buffer.  The backward kernel
# reads the (n, n) mean gradient directly in each channel's softmax/⊙
# adjoint, then forms [dW | db] = dA'·Qᵀ / 9 and dA as the tap builder's
# adjoint of Wᵀ·dA' / 9.
#
# Per channel the forward makes five passes over the n×n plane when a
# bound allows it, seven otherwise.  A textbook softmax subtracts each
# row's max before exp so that exp cannot overflow; the kernel skips
# that row max and subtract when a bound on A' proves them unneeded.
# Each tap is a window sum of nine zero-padded cells of A, so every conv
# output obeys |conv_ch| ≤ max|A|·Σ_k|W_ch,k| + |b_ch|, and the pool, a
# mean of nine conv cells that reads padding as zeros, cannot exceed
# that: B = max_ch(max|A|·Σ_k|W_ch,k| + |b_ch|) bounds |A'| (_gate_bound,
# an O(c) pass over the weights plus one max|A| pass, every replay).  A
# mask raises B by its largest entry and by minus the smallest of its
# per-item key maxima, both 0 for the engine's 0 / MASK_NEG masks.  The
# limit on B (_unshifted_exp_limit) is the largest value with
# width·e^B ≤ finfo.max / 2, the factor 2 being headroom for the
# rounding of exp and of the row sum, and e^-B ≥ finfo.tiny: ≈82.8 in
# float32 and ≈703.9 in float64 at width 180.  Under it no exp or row sum
# overflows and each row's largest entry stays a normal number, so
# exp(A') runs unshifted; masked keys, A' + MASK_NEG, still give exactly
# 0.  A NaN or inf bound, or a dtype other than float32 and float64,
# keeps the max-shifted path (_softmax_needs_shift).  On both paths the
# row sums are a BLAS product with a ones column, and each row is
# multiplied by the reciprocal of its sum, in place of np.sum and a
# divide.  The backward
# forms its softmax row dot Σ_j(dg·A'·g) with one einsum instead of
# writing the triple product and summing it (five passes, not six).
# Channels stay unbatched: one plane fits in L2, the (c, n, n) stack
# does not, and the whole-stack pass measured slower.
#
# Channels are independent and softmax rows reduce per row either way,
# so the only deviations from the eager arithmetic are re-associations
# of the same algebra (the order of the pooled additions, the 1/9 riding
# on the weights, the unshifted exp, the BLAS row sums and their
# reciprocal, the factored softmax/⊙ adjoint and its einsum row dot):
# ≈1e-16..1e-14 relative rounding in float64, inside the ≤1e-8 parity
# budget but not bitwise.  Patterns are matched conservatively (each
# intermediate consumed only inside the chain);
# anything else — a conv without bias, a gate chain without its conv, a
# ⊙ feeding something other than the channel mean — replays as the
# generic per-op kernels.
#
# The masked variant — softmax(A' + additive_key_mask) from the padded
# batches of the execution engine — fuses too: the additive mask is a
# constant (..., 1, 1, n) leaf, the extra ``add`` is folded into the
# per-channel softmax (its backward into the pool input is the
# identity), and the gradient never touches the mask, so the backward
# kernel is the unmasked one verbatim.
#
# Every fusion exposes the same build interface: ``head`` / ``bwd_head``
# (the nodes whose tape positions emit the fused forward / backward
# kernel), ``fused_away`` / ``bwd_fused_away`` (nodes whose generic
# kernels it replaces), ``inference_dead`` (buffers a forward-only plan
# never materializes), ``written_at_head`` (buffers the forward kernel
# fills, born at the head in a forward-only plan), ``traffic_nodes`` and
# ``grad_targets``.


def _consumers(nodes: list[Tensor]) -> dict[int, list[Tensor]]:
    """id(tensor) -> the recorded nodes that read it, in tape order."""
    consumers: dict[int, list[Tensor]] = {}
    for n in nodes:
        for p in n._prev:
            consumers.setdefault(id(p), []).append(n)
    return consumers


def _const_scalar(t: Tensor) -> bool:
    """A constant 0-d leaf (a python scalar operand on the tape)."""
    return (not t._prev and not t.requires_grad
            and getattr(t.data, "ndim", None) == 0)


class _RegionFusion(NamedTuple):
    """One whole RegionSA correlation chain, conv -> pool -> [+mask] ->
    softmax -> ⊙ -> sum(axis=-3) -> ×1/c, lowered to one kernel pair.
    The forward kernel runs at ``conv`` and the backward one at
    ``scale``; the nodes between them get neither kernels nor gradient
    buffers."""

    conv: Tensor
    pool: Tensor
    gate: Tensor
    mul: Tensor
    total: Tensor         # A' ⊙ softmax(A') summed over channels
    scale: Tensor         # total × 1/c: the chain's output
    add: Tensor | None
    mask: Tensor | None

    @property
    def head(self) -> Tensor:
        return self.conv

    @property
    def bwd_head(self) -> Tensor:
        return self.scale

    @property
    def interior(self) -> tuple[Tensor, ...]:
        nodes = (self.pool, self.gate, self.mul, self.total)
        return nodes if self.add is None else nodes + (self.add,)

    @property
    def fused_away(self) -> tuple[Tensor, ...]:
        return self.interior + (self.scale,)

    @property
    def bwd_fused_away(self) -> tuple[Tensor, ...]:
        return (self.conv,) + self.interior

    @property
    def inference_dead(self) -> tuple[Tensor, ...]:
        # A forward-only plan leases A' and the gate planes instead.
        return self.bwd_fused_away

    @property
    def written_at_head(self) -> tuple[Tensor, ...]:
        return (self.scale,)

    @property
    def traffic_nodes(self) -> tuple[Tensor, ...]:
        return (self.conv._prev[0], self.pool, self.gate, self.scale)

    @property
    def grad_targets(self) -> tuple[Tensor, ...]:
        return tuple(t for t in self.conv._prev if t.requires_grad)


def _find_region_fusions(nodes: list[Tensor]) -> list[_RegionFusion]:
    """Every whole RegionSA chain of a tape: a conv2d(1→c, 3x3, same,
    with bias) read only by a 3x3 avgpool, whose output feeds
    [+ additive mask ->] softmax(-1) and the ⊙ with that gate, the ⊙
    feeding only a channel sum that feeds only a constant scale."""
    consumers = _consumers(nodes)

    def sole(t: Tensor) -> Tensor | None:
        cons = consumers.get(id(t), [])
        return cons[0] if len(cons) == 1 else None

    fusions = []
    for mul in nodes:
        if mul._op != "mul" or len(mul._prev) != 2:
            continue
        pool, gate = mul._prev
        if pool._op != "avgpool2d" or gate._op != "softmax":
            continue
        if pool._ctx != (3, 1) or pool.ndim < 3:
            continue
        scores = gate._prev[0]
        add = mask = None
        if scores is not pool:
            # Masked chain: softmax(pool + additive mask) where the mask
            # is a constant (..., 1, 1, n) leaf broadcast over channels
            # and query rows — the engine's additive_key_mask layout.
            if (scores._op != "add" or len(scores._prev) != 2
                    or scores._prev[0] is not pool):
                continue
            add, mask = scores, scores._prev[1]
            if mask._prev or mask.requires_grad:
                continue
            if (mask.ndim != pool.ndim or mask.shape[-3:-1] != (1, 1)
                    or mask.shape[-1] != pool.shape[-1]
                    or mask.shape[:-3] != pool.shape[:-3]):
                continue
            if add.shape != pool.shape or sole(add) is not gate:
                continue
        if gate._ctx[0] not in (-1, pool.ndim - 1):
            continue
        if not (pool.shape == gate.shape == mul.shape):
            continue
        first = add if add is not None else gate
        pool_cons = consumers.get(id(pool), [])
        if (len(pool_cons) != 2
                or {id(c) for c in pool_cons} != {id(first), id(mul)}
                or sole(gate) is not mul):
            continue
        conv = pool._prev[0]
        total = sole(mul)
        scale = sole(total) if total is not None else None
        if not (conv._op == "conv2d" and len(conv._prev) == 3
                and conv._ctx[:2] == (3, 1)
                and conv._prev[1].shape[1:] == (1, 3, 3)
                and sole(conv) is pool
                and total is not None and total._op == "sum"
                and total._ctx in ((-3, False), (mul.ndim - 3, False))
                and scale is not None and scale._op == "mul"
                and scale._prev[0] is total
                and _const_scalar(scale._prev[1])):
            continue
        fusions.append(_RegionFusion(conv, pool, gate, mul, total, scale,
                                     add, mask))
    return fusions


def _find_fusions(nodes: list[Tensor]):
    """(RegionSA chain, LayerNorm) fusions of a tape."""
    return _find_region_fusions(nodes), _find_layernorm_fusions(nodes)


def _window_counts(height: int, width: int, dtype) -> np.ndarray:
    """9·pool(1): how many cells of each position's 3x3 window lie inside
    the (height, width) image — the bias row of the pooled-tap GEMM."""
    rows = np.full(height, 3.0)
    cols = np.full(width, 3.0)
    rows[0] -= 1.0
    rows[-1] -= 1.0
    cols[0] -= 1.0
    cols[-1] -= 1.0
    return np.multiply.outer(rows, cols).astype(dtype)


def _tap_corners(height: int, width: int):
    """(taps index, extended-box index) of the four corner taps'
    inclusion–exclusion terms (see :func:`_pooled_taps`)."""
    taps = (Ellipsis, [8, 6, 2, 0], [0, 0, height - 1, height - 1],
            [0, width - 1, 0, width - 1])
    box = (Ellipsis, [0, 0, height + 1, height + 1],
           [0, width + 1, 0, width + 1])
    return taps, box


def _pooled_taps(a: np.ndarray, taps: np.ndarray, scratch) -> Callable:
    """Kernel writing the nine pooled conv taps of ``a`` (..., H, W) into
    ``taps`` (..., 9, H, W).

    Tap 3·ky + kx is the same-padded 3x3 window sum of the conv's
    (ky, kx) input shift — 9 × the avgpool of that im2col row.  All nine
    are crops of one extended box E, the 3x3 window sum of the
    zero-padded ``a`` over the (H+2, W+2) positions the conv output's
    zero border spans: tap (ky, kx) = E[ky:ky+H, kx:kx+W], except where
    the pool window hangs over the conv output's border, whose cells the
    pool reads as zeros but the crop counts.  Only outer taps lose such a
    line and it is one of E's own edges: taps with ky=2 drop E's top row
    at output row 0, ky=0 its bottom row at row H-1, kx=2 / kx=0 its left
    / right column at column 0 / W-1, and the four corner taps add E's
    corner back (inclusion–exclusion).  At H or W ≤ 2 several
    corrections hit one cell; each is a separate in-place op, so they
    compose.
    """
    *lead, height, width = a.shape
    lead = tuple(lead)
    vbox = _lease(scratch, lead + (height + 2, width), a.dtype, "taps_vbox")
    ebox = _lease(scratch, lead + (height + 2, width + 2), a.dtype,
                  "taps_ebox")
    window = np.lib.stride_tricks.sliding_window_view
    crops = window(ebox, (height, width), axis=(-2, -1))   # (..., 3, 3, H, W)
    edges = (
        (taps[..., 6:9, 0, :], window(ebox[..., 0, :], width, axis=-1)),
        (taps[..., 0:3, height - 1, :],
         window(ebox[..., height + 1, :], width, axis=-1)),
        (taps[..., 2::3, :, 0], window(ebox[..., :, 0], height, axis=-1)),
        (taps[..., 0::3, :, width - 1],
         window(ebox[..., :, width + 1], height, axis=-1)),
    )
    corner_taps, corner_box = _tap_corners(height, width)

    def run():
        # Vertical then horizontal 3-tap sums, each extended by one line
        # on both sides.
        np.copyto(vbox[..., :height, :], a)
        vbox[..., height:, :] = 0.0
        np.add(vbox[..., 1:height + 1, :], a, out=vbox[..., 1:height + 1, :])
        np.add(vbox[..., 2:, :], a, out=vbox[..., 2:, :])
        np.copyto(ebox[..., :, :width], vbox)
        ebox[..., :, width:] = 0.0
        np.add(ebox[..., :, 1:width + 1], vbox, out=ebox[..., :, 1:width + 1])
        np.add(ebox[..., :, 2:], vbox, out=ebox[..., :, 2:])
        for ky in range(3):
            np.copyto(taps[..., 3 * ky:3 * ky + 3, :, :],
                      crops[..., ky, :, :, :])
        for dst, edge in edges:
            np.subtract(dst, edge, out=dst)
        taps[corner_taps] += ebox[corner_box]
    return run


def _pooled_taps_adjoint(dtaps: np.ndarray, da: np.ndarray,
                         scratch) -> Callable:
    """Kernel writing into ``da`` (..., H, W) the adjoint of
    :func:`_pooled_taps` applied to ``dtaps`` (..., 9, H, W): scatter the
    taps back into E's gradient (a col2im), undo the border corrections,
    then run the two box sums backwards."""
    *lead, _, height, width = dtaps.shape
    lead = tuple(lead)
    debox = _lease(scratch, lead + (height + 2, width + 2), da.dtype,
                   "taps_ebox")
    dvbox = _lease(scratch, lead + (height + 2, width), da.dtype, "taps_vbox")
    scatter = [(debox[..., ky:ky + height, kx:kx + width],
                dtaps[..., 3 * ky + kx, :, :])
               for ky in range(3) for kx in range(3)]
    edges = ([(debox[..., 0, k:k + width], dtaps[..., 6 + k, 0, :])
              for k in range(3)]
             + [(debox[..., height + 1, k:k + width],
                 dtaps[..., k, height - 1, :]) for k in range(3)]
             + [(debox[..., k:k + height, 0], dtaps[..., 3 * k + 2, :, 0])
                for k in range(3)]
             + [(debox[..., k:k + height, width + 1],
                 dtaps[..., 3 * k, :, width - 1]) for k in range(3)])
    corner_taps, corner_box = _tap_corners(height, width)

    def run():
        debox.fill(0.0)
        for dst, src in scatter:
            np.add(dst, src, out=dst)
        for dst, src in edges:
            np.subtract(dst, src, out=dst)
        debox[corner_box] += dtaps[corner_taps]
        np.add(debox[..., :, :width], debox[..., :, 1:width + 1], out=dvbox)
        np.add(dvbox, debox[..., :, 2:], out=dvbox)
        np.add(dvbox[..., :height, :], dvbox[..., 1:height + 1, :], out=da)
        np.add(da, dvbox[..., 2:, :], out=da)
    return run


def _scaled_weights(weight: np.ndarray, bias: np.ndarray,
                    scratch) -> Callable[[], np.ndarray]:
    """Return ``fn()`` filling and returning [W | b] / 9 (c, 10): the
    conv weights with the pool's 1/9 folded in, an O(c) pass instead of
    one over A'."""
    channels = weight.shape[0]
    wb = _lease(scratch, (channels, 10), weight.dtype, "region_wb")
    flat = weight.reshape(channels, 9)

    def fill():
        np.multiply(flat, 1.0 / 9.0, out=wb[:, :9])
        np.multiply(bias, 1.0 / 9.0, out=wb[:, 9])
        return wb
    return fill


def _gate_bound(a: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                madd: np.ndarray | None) -> float:
    """Upper bound on |A' [+ mask]| for the gate softmax: B =
    max_ch(max|A|·Σ_k|W_ch,k| + |b_ch|) (see the block comment), raised
    by the mask's largest entry and by minus the smallest of its
    per-item key maxima.  NaN or inf when any operand is."""
    peak = max(a.max(), -a.min())
    channels = weight.shape[0]
    per_channel = (np.abs(weight).reshape(channels, 9).sum(axis=1) * peak
                   + np.abs(bias))
    bound = float(per_channel.max())
    if madd is not None:
        bound += float(max(madd.max(), -madd.max(axis=-1).min()))
    return bound


def _unshifted_exp_limit(width: int, dtype) -> float:
    """Largest B with width·e^B ≤ finfo.max / 2 and e^-B ≥ finfo.tiny:
    softmax rows of ``width`` entries bounded by B in absolute value need
    no max shift.  -inf for dtypes other than float32 and float64."""
    if np.dtype(dtype) not in (np.float32, np.float64):
        return -np.inf
    info = np.finfo(dtype)
    return min(math.log(float(info.max) / (2.0 * width)),
               -math.log(float(info.tiny)))


def _softmax_needs_shift(bound: float, width: int, dtype) -> bool:
    """Whether the gate softmax must subtract its row max: unless
    0 ≤ ``bound`` ≤ the limit, which a NaN or ±inf bound fails."""
    return not 0.0 <= bound <= _unshifted_exp_limit(width, dtype)


def _fused_region_forward(fusion: _RegionFusion, scratch,
                          inference: bool = False):
    """Forward kernel of a whole RegionSA chain (see the block comment).

    Each replay bounds |A'| from max|A| and the conv weights; under the
    limit each channel's softmax runs exp, a BLAS row sum against a ones
    column and a multiply by its reciprocal, and over it (or at a NaN or
    inf bound) the row max and the subtract come first.

    Training plans keep A' and the gate in the pool and softmax nodes'
    buffers and the pooled taps in a per-chain buffer, all read by the
    backward kernel.  The taps are seeded from the recorded input here,
    because the recording step's backward runs before any lowered
    forward.  Inference plans lease all three and write only the chain's
    output.
    """
    x_t, w_t, b_t = fusion.conv._prev
    a = x_t.data[..., 0, :, :]
    *lead, height, width = a.shape
    lead = tuple(lead)
    channels = w_t.shape[0]
    dt = a.dtype
    plane = lead + (height, width)
    if inference:
        taps = _lease(scratch, lead + (10, height, width), dt, "region_taps")
        corr = _lease(scratch, lead + (channels, height, width), dt,
                      "region_corr")
        gates = [_lease(scratch, plane, dt, "region_gate")] * channels
    else:
        taps = np.empty(lead + (10, height, width), dt)
        corr = fusion.pool.data
        gates = [fusion.gate.data[..., ch, :, :] for ch in range(channels)]
    taps[..., 9, :, :] = _window_counts(height, width, dt)
    build_taps = _pooled_taps(a, taps[..., :9, :, :], scratch)
    if not inference:
        build_taps()
        scratch[id(fusion.conv)] = taps
    taps2 = taps.reshape(lead + (10, height * width))
    corr2 = corr.reshape(lead + (channels, height * width))
    weight, bias = w_t.data, b_t.data
    scaled_weights = _scaled_weights(weight, bias, scratch)
    madd = fusion.mask.data[..., 0, :, :] if fusion.mask is not None else None
    out = fusion.scale.data
    factor = fusion.scale._prev[1].data
    tmp = _lease(scratch, plane, dt, "region_t1")
    red = _lease(scratch, lead + (height, 1), dt, "region_red")
    ones = np.ones((width, 1), dt)
    planes = [(corr[..., ch, :, :], gc) for ch, gc in enumerate(gates)]

    def run():
        build_taps()
        np.matmul(scaled_weights(), taps2, out=corr2)
        shift = _softmax_needs_shift(
            _gate_bound(a, weight, bias, madd), width, dt)
        for ch, (cc, gc) in enumerate(planes):
            scores = cc
            if madd is not None:
                np.add(cc, madd, out=gc)
                scores = gc
            if shift:
                np.amax(scores, axis=-1, keepdims=True, out=red)
                np.subtract(scores, red, out=gc)
                scores = gc
            np.exp(scores, out=gc)
            np.matmul(gc, ones, out=red)         # row sums on BLAS
            np.reciprocal(red, out=red)
            np.multiply(gc, red, out=gc)
            if ch == 0:
                np.multiply(cc, gc, out=out)
            else:
                np.multiply(cc, gc, out=tmp)
                np.add(out, tmp, out=out)
        np.multiply(out, factor, out=out)
    return run


def _fused_region_backward(fusion: _RegionFusion, grads, written, scratch):
    """Backward kernel of a whole RegionSA chain.

    Each channel's softmax/⊙ adjoint reads the (n, n) mean gradient
    directly — no broadcast (c, n, n) gradient, no sum backward — forms
    its row dot Σ_j(dg·A'·g) with one ``einsum`` over dg·A' and the
    gate, and writes dA' into leased scratch; then [dW | db] = dA'·Qᵀ / 9
    and dA is the tap builder's adjoint of Wᵀ·dA' / 9.  ``_mark`` runs in
    the generic conv kernel's edge order (weight, bias, input)."""
    x_t, w_t, b_t = fusion.conv._prev
    corr, gate = fusion.pool.data, fusion.gate.data
    taps = scratch[id(fusion.conv)]
    g_out = grads[id(fusion.scale)]
    factor = fusion.scale._prev[1].data
    *lead, channels, height, width = corr.shape
    lead = tuple(lead)
    dt = corr.dtype
    plane = lead + (height, width)
    hw = height * width
    dg = _lease(scratch, plane, dt, "region_dg")
    t1 = _lease(scratch, plane, dt, "region_t1")
    red = _lease(scratch, lead + (height, 1), dt, "region_red")
    rowdot = red[..., 0]
    dcorr = _lease(scratch, corr.shape, dt, "region_dcorr")
    dcorr2 = dcorr.reshape(lead + (channels, hw))
    planes = [(corr[..., ch, :, :], gate[..., ch, :, :], dcorr[..., ch, :, :])
              for ch in range(channels)]
    scaled_weights = _scaled_weights(w_t.data, b_t.data, scratch)
    runs = []
    if w_t.requires_grad or b_t.requires_grad:
        taps2T = taps.reshape(lead + (10, hw)).swapaxes(-1, -2)
        dwb = _lease(scratch, (channels, 10), dt, "region_dwb")
        # Per-item products of a batch, summed after (tiny: c×10 each).
        per_item = (_lease(scratch, lead + (channels, 10), dt,
                           "region_dwb_items") if lead else dwb)
        w_sink = (_contrib_sink(grads[id(w_t)], w_t.shape,
                                _mark(written, id(w_t)))
                  if w_t.requires_grad else None)
        b_sink = (_contrib_sink(grads[id(b_t)], b_t.shape,
                                _mark(written, id(b_t)))
                  if b_t.requires_grad else None)

        def param_grads(wb):
            np.matmul(dcorr2, taps2T, out=per_item)
            if lead:
                np.sum(per_item, axis=tuple(range(len(lead))), out=dwb)
            np.multiply(dwb, 1.0 / 9.0, out=dwb)
            if w_sink is not None:
                w_sink(dwb[:, :9].reshape(w_t.shape))
            if b_sink is not None:
                b_sink(dwb[:, 9])
        runs.append(param_grads)
    if x_t.requires_grad:
        pg = grads[id(x_t)][..., 0, :, :]
        store = _mark(written, id(x_t))
        dtaps = _lease(scratch, lead + (9, height, width), dt, "region_dtaps")
        dtaps2 = dtaps.reshape(lead + (9, hw))
        da = pg if store else _lease(scratch, plane, dt, "region_da")
        adjoint = _pooled_taps_adjoint(dtaps, da, scratch)

        def input_grad(wb):
            np.matmul(wb[:, :9].T, dcorr2, out=dtaps2)
            adjoint()
            if not store:
                np.add(pg, da, out=pg)
        runs.append(input_grad)

    def run():
        np.multiply(g_out, factor, out=dg)
        for cc, gc, dc in planes:
            np.multiply(dg, cc, out=t1)          # ⊙ adjoint toward the gate
            np.einsum("...ij,...ij->...i", t1, gc, out=rowdot)
            np.subtract(t1, red, out=t1)         # softmax adjoint ...
            np.add(t1, dg, out=t1)               # ... plus ⊙'s toward A'
            np.multiply(gc, t1, out=dc)
        wb = scaled_weights()
        for fn in runs:
            fn(wb)
    return run


class _LNFusion(NamedTuple):
    """One fusable LayerNorm chain: the 16-node tape pattern
    ``mean -> var -> (x - mean) * (var + eps)**-0.5 * gamma + beta``
    that :class:`repro.nn.layers.LayerNorm` records.  ``s1`` (the first
    node created) heads the fused forward kernel; ``out`` (the last)
    heads the fused backward kernel."""

    x: Tensor
    s1: Tensor      # sum(x, -1, keep)          — mean numerator
    m1: Tensor      # s1 * (1/d)                — mean (normalization)
    s2: Tensor      # sum(x, -1, keep)          — var's own mean
    m2: Tensor      # s2 * (1/d)
    neg_a: Tensor   # m2 * -1
    c1: Tensor      # x + neg_a                 — centered (variance)
    sq: Tensor      # c1 * c1
    s3: Tensor      # sum(sq, -1, keep)
    var: Tensor     # s3 * (1/d)
    neg_b: Tensor   # m1 * -1
    c2: Tensor      # x + neg_b                 — centered (bitwise == c1)
    ve: Tensor      # var + eps
    rstd: Tensor    # ve ** -0.5
    norm: Tensor    # c2 * rstd
    ng: Tensor      # norm * gamma
    out: Tensor     # ng + beta
    gamma: Tensor
    beta: Tensor
    inv: float      # 1/d, the recorded mean scale
    eps: float

    @property
    def head(self) -> Tensor:
        return self.s1

    @property
    def bwd_head(self) -> Tensor:
        return self.out

    @property
    def written_at_head(self) -> tuple[Tensor, ...]:
        return (self.out,)

    @property
    def fused_away(self) -> tuple[Tensor, ...]:
        """Interior nodes the fused *forward* replaces (head ``s1``
        emits the kernel; everything downstream through ``out`` is
        written by it or elided)."""
        return (self.m1, self.s2, self.m2, self.neg_a, self.c1, self.sq,
                self.s3, self.var, self.neg_b, self.c2, self.ve,
                self.rstd, self.norm, self.ng, self.out)

    @property
    def bwd_fused_away(self) -> tuple[Tensor, ...]:
        """Nodes whose generic backward kernels (and gradient buffers)
        the fused backward at head ``out`` replaces."""
        return (self.s1, self.m1, self.s2, self.m2, self.neg_a, self.c1,
                self.sq, self.s3, self.var, self.neg_b, self.c2, self.ve,
                self.rstd, self.norm, self.ng)

    @property
    def inference_dead(self) -> tuple[Tensor, ...]:
        """Buffers a forward-only plan never materializes (only ``out``
        survives; the training plan keeps c1/ve/rstd/norm for backward)."""
        return (self.s1,) + self.fused_away[:-1]

    @property
    def traffic_nodes(self) -> tuple[Tensor, ...]:
        return (self.x, self.c1, self.norm, self.out)

    @property
    def grad_targets(self) -> tuple[Tensor, ...]:
        return tuple(t for t in (self.beta, self.gamma, self.x)
                     if t.requires_grad)


def _find_layernorm_fusions(nodes: list[Tensor]) -> list[_LNFusion]:
    consumers = _consumers(nodes)
    pos = {id(n): i for i, n in enumerate(nodes)}

    def sole(t: Tensor, expected: Tensor) -> bool:
        cons = consumers.get(id(t), [])
        return len(cons) == 1 and cons[0] is expected

    def last_axis_sum(t: Tensor, src: Tensor) -> bool:
        if t._op != "sum" or t._prev[0] is not src:
            return False
        axis, keepdims = t._ctx
        return keepdims and axis in (-1, src.ndim - 1)

    fusions: list[_LNFusion] = []
    claimed: set[int] = set()
    for out in nodes:
        if out._op != "add" or len(out._prev) != 2:
            continue
        ng, beta = out._prev
        if ng._op != "mul" or len(ng._prev) != 2 or beta._prev:
            continue
        norm, gamma = ng._prev
        if norm._op != "mul" or gamma._prev or not sole(ng, out):
            continue
        c2, rstd = norm._prev
        if (c2._op != "add" or rstd._op != "pow"
                or rstd._ctx != (-0.5,) or not sole(norm, ng)):
            continue
        x, neg_b = c2._prev
        ve = rstd._prev[0]
        if (ve._op != "add" or neg_b._op != "mul"
                or not sole(c2, norm) or not sole(rstd, norm)):
            continue
        var, eps_t = ve._prev
        m1, neg1b = neg_b._prev
        if (var._op != "mul" or not _const_scalar(eps_t)
                or m1._op != "mul" or not _const_scalar(neg1b)
                or not sole(ve, rstd) or not sole(neg_b, c2)):
            continue
        s3, c_var = var._prev
        s1, c_m1 = m1._prev
        if (s3._op != "sum" or not _const_scalar(c_var)
                or not last_axis_sum(s1, x) or not _const_scalar(c_m1)
                or not sole(var, ve) or not sole(m1, neg_b)
                or not sole(s1, m1)):
            continue
        sq = s3._prev[0]
        if (sq._op != "mul" or sq._prev[0] is not sq._prev[1]
                or not last_axis_sum(s3, sq) or not sole(s3, var)
                or not sole(sq, s3)):
            continue
        c1 = sq._prev[0]
        if c1._op != "add" or c1._prev[0] is not x:
            continue
        c1_cons = consumers.get(id(c1), [])
        if len(c1_cons) != 2 or any(c is not sq for c in c1_cons):
            continue
        neg_a = c1._prev[1]
        if neg_a._op != "mul" or not sole(neg_a, c1):
            continue
        m2, neg1a = neg_a._prev
        if (m2._op != "mul" or not _const_scalar(neg1a)
                or not sole(m2, neg_a)):
            continue
        s2, c_m2 = m2._prev
        if (not last_axis_sum(s2, x) or not _const_scalar(c_m2)
                or not sole(s2, m2)):
            continue
        # Shapes: the affine output must keep x's shape (the direct
        # same-shape gradient paths below depend on it), reductions are
        # (..., 1).
        red = x.shape[:-1] + (1,)
        if not (out.shape == ng.shape == norm.shape == c1.shape
                == c2.shape == sq.shape == x.shape):
            continue
        if not all(t.shape == red for t in (s1, m1, s2, m2, neg_a, neg_b,
                                            s3, var, ve, rstd)):
            continue
        inv = float(c_m1.data)
        if (float(c_m2.data) != inv or float(c_var.data) != inv
                or float(neg1a.data) != -1.0 or float(neg1b.data) != -1.0):
            continue
        members = (s1, m1, s2, m2, neg_a, c1, sq, s3, var, neg_b, c2,
                   ve, rstd, norm, ng, out)
        if any(id(t) in claimed for t in members):
            continue
        # The fused backward reorders nothing only if no foreign kernel
        # interleaves the chain: require the 16 nodes to be consecutive
        # on the tape (straight-line eager code always is).
        indices = sorted(pos[id(t)] for t in members)
        if indices[-1] - indices[0] != len(members) - 1:
            continue
        claimed.update(id(t) for t in members)
        fusions.append(_LNFusion(x, s1, m1, s2, m2, neg_a, c1, sq, s3,
                                 var, neg_b, c2, ve, rstd, norm, ng, out,
                                 gamma, beta, inv, float(eps_t.data)))
    return fusions


def _fused_ln_forward(fusion: _LNFusion, scratch, inference: bool = False):
    """One kernel for the whole LayerNorm forward chain.

    Arithmetic is the generic kernels' bit-for-bit: the duplicate mean
    (``m2``) is computed once, ``x - mean`` replaces ``x + (-mean)``
    (IEEE-identical), and ``c2`` aliases ``c1`` (bitwise equal on the
    tape).  Training plans materialize c1/ve/rstd/norm into their
    adopted node buffers for the backward pass; inference plans route
    everything through leased kernel scratch and write only ``out``.
    """
    x = fusion.x.data
    gamma, beta = fusion.gamma.data, fusion.beta.data
    out = fusion.out.data
    inv, eps = fusion.inv, fusion.eps
    red_shape = x.shape[:-1] + (1,)
    if inference:
        c1 = _lease(scratch, x.shape, x.dtype, ("ln_row", 0))
        ve = _lease(scratch, red_shape, x.dtype, ("ln_red", 0))
        rstd = _lease(scratch, red_shape, x.dtype, ("ln_red", 1))
        norm = c1      # c1 is dead once norm is formed; aligned in-place
    else:
        c1 = fusion.c1.data
        ve = fusion.ve.data
        rstd = fusion.rstd.data
        norm = fusion.norm.data
    red = _lease(scratch, red_shape, x.dtype, ("ln_red", 2))
    sq = _lease(scratch, x.shape, x.dtype, ("ln_row", 1))
    ng = sq            # sq is dead once its sum is taken

    def run():
        np.sum(x, axis=-1, keepdims=True, out=red)
        np.multiply(red, inv, out=red)
        np.subtract(x, red, out=c1)
        np.multiply(c1, c1, out=sq)
        np.sum(sq, axis=-1, keepdims=True, out=red)
        np.multiply(red, inv, out=red)
        np.add(red, eps, out=ve)
        np.copyto(rstd, ve ** -0.5)
        np.multiply(c1, rstd, out=norm)
        np.multiply(norm, gamma, out=ng)
        np.add(ng, beta, out=out)
    return run


def _fused_ln_backward(fusion: _LNFusion, grads, written, scratch):
    """One kernel for the whole LayerNorm backward chain.

    Replays exactly what the 16 generic backward kernels compute, in
    the same dx contribution order (c2 store, c1 accumulate, then the
    two broadcast mean terms), with every interior gradient held in
    leased scratch instead of pooled buffers.  ``_mark`` is called in
    the generic kernels' leaf order (beta, gamma, x) so store-vs-
    accumulate decisions are unchanged when a leaf is shared with other
    chains."""
    x_t, gamma_t, beta_t = fusion.x, fusion.gamma, fusion.beta
    g_out = grads[id(fusion.out)]
    c1 = fusion.c1.data
    ve = fusion.ve.data
    rstd = fusion.rstd.data
    norm = fusion.norm.data
    gamma = gamma_t.data
    inv = fusion.inv
    row = g_out.shape
    red_shape = row[:-1] + (1,)
    dt = g_out.dtype
    runs = []
    if beta_t.requires_grad:
        beta_sink = _contrib_sink(grads[id(beta_t)], row,
                                  _mark(written, id(beta_t)))
        runs.append(lambda: beta_sink(g_out))
    if gamma_t.requires_grad:
        gamma_sink = _contrib_sink(grads[id(gamma_t)], row,
                                   _mark(written, id(gamma_t)))
        prod = _lease(scratch, row, dt, ("ln_grow", 0))

        def d_gamma():
            np.multiply(g_out, norm, out=prod)
            gamma_sink(prod)
        runs.append(d_gamma)
    if x_t.requires_grad:
        gx = grads[id(x_t)]
        store = _mark(written, id(x_t))
        D1 = _lease(scratch, row, dt, ("ln_grow", 0))
        D2 = _lease(scratch, row, dt, ("ln_grow", 1))
        S1 = _lease(scratch, red_shape, dt, ("ln_gred", 0))
        S2 = _lease(scratch, red_shape, dt, ("ln_gred", 1))
        P1 = _lease(scratch, red_shape, dt, ("ln_gred", 2))

        def d_x():
            # dnorm = dout ⊙ gamma  (dout ≡ dng: the +beta edge copies)
            np.multiply(g_out, gamma, out=D1)
            # rstd edge of norm = c2 ⊙ rstd: reduce (dnorm ⊙ c2) — c2
            # is bitwise c1, which the forward materialized.
            np.multiply(D1, c1, out=D2)
            np.copyto(S1, _unbroadcast(D2, S1.shape))
            # c2 edge: first dx contribution (the static store slot)
            np.multiply(D1, rstd, out=D2)
            if store:
                np.copyto(gx, D2)
            else:
                np.add(gx, D2, out=gx)
            # neg_b <- c2 (reduced); finished below as the s1 term
            np.copyto(S2, _unbroadcast(D2, S2.shape))
            # pow backward: dve = (drstd · -0.5) · ve^(-3/2)
            np.multiply(S1, -0.5, out=S1)
            np.power(ve, -1.5, out=P1)
            np.multiply(S1, P1, out=S1)
            # ve -> var -> s3 (scale), then broadcast to dsq
            np.multiply(S1, inv, out=S1)
            np.copyto(D1, S1)
            # sq = c1 ⊙ c1: the two edges store then accumulate
            np.multiply(D1, c1, out=D2)
            np.multiply(D1, c1, out=D1)
            np.add(D2, D1, out=D2)
            # c1 -> x: second dx contribution
            np.add(gx, D2, out=gx)
            # neg_a <- c1, then m2 -> s2 -> x (third contribution)
            np.copyto(S1, _unbroadcast(D2, S1.shape))
            np.multiply(S1, -1.0, out=S1)
            np.multiply(S1, inv, out=S1)
            np.add(gx, S1, out=gx)
            # neg_b -> m1 -> s1 -> x (fourth contribution)
            np.multiply(S2, -1.0, out=S2)
            np.multiply(S2, inv, out=S2)
            np.add(gx, S2, out=gx)
        runs.append(d_x)

    def run():
        for fn in runs:
            fn()
    return run


_BWD = {
    "add": _bwd_add,
    "mul": _bwd_mul,
    "pow": _bwd_pow,
    "matmul": _bwd_matmul,
    "exp": _bwd_exp,
    "log": _bwd_log,
    "tanh": _bwd_tanh,
    "sigmoid": _bwd_sigmoid,
    "relu": _bwd_relu,
    "leaky_relu": _bwd_leaky_relu,
    "abs": _bwd_abs,
    "softmax": _bwd_softmax,
    "log_softmax": _bwd_log_softmax,
    "sum": _bwd_sum,
    "max": _bwd_max,
    "reshape": _bwd_reshape,
    "swapaxes": _bwd_swapaxes,
    "transpose": _bwd_transpose,
    "expand_dims": _bwd_expand_dims,
    "squeeze": _bwd_squeeze,
    "getitem": _bwd_getitem,
    "concat": _bwd_concat,
    "stack": _bwd_stack,
    "dropout": _bwd_dropout,
    "conv2d": _bwd_conv2d,
    "avgpool2d": _bwd_avgpool2d,
}


def _fusion_forward(fusion, scratch, inference: bool = False):
    """(kernel, profile tag) for the forward kernel at a fusion's head."""
    if isinstance(fusion, _LNFusion):
        return (_fused_ln_forward(fusion, scratch, inference),
                "F:fused_layernorm")
    return _fused_region_forward(fusion, scratch, inference), "F:fused_gate"


def _fusion_backward(fusion, grads, written, scratch):
    """(kernel, profile tag) for the backward kernel at a fusion's
    ``bwd_head``."""
    if isinstance(fusion, _LNFusion):
        return (_fused_ln_backward(fusion, grads, written, scratch),
                "B:fused_layernorm")
    return (_fused_region_backward(fusion, grads, written, scratch),
            "B:fused_gate")


# ----------------------------------------------------------------------
# Plan: the lowered program
# ----------------------------------------------------------------------

class _BufferPool:
    """Free-list allocator shared by the liveness passes.

    Buffers are recycled by exact (shape, dtype).  Both passes drive it
    with the same discipline — acquire every buffer *born* at a step
    before releasing the ones that *die* there — which guarantees a
    kernel never reads and writes the same array (a buffer consumed by
    step ``i`` only re-enters the free list after step ``i``'s births
    were served).
    """

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}
        self.allocated_bytes = 0
        self.live_bytes = 0
        self.peak_live_bytes = 0

    def acquire(self, shape, dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        bucket = self._free.get(key)
        if bucket:
            buf = bucket.pop()
        else:
            buf = np.empty(key[0], dtype=key[1])
            self.allocated_bytes += buf.nbytes
        self.live_bytes += buf.nbytes
        self.peak_live_bytes = max(self.peak_live_bytes, self.live_bytes)
        return buf

    def release(self, buf: np.ndarray) -> None:
        self._free.setdefault((buf.shape, buf.dtype), []).append(buf)
        self.live_bytes -= buf.nbytes

    def count_external(self, nbytes: int) -> None:
        """Account for a private (never-recycled) buffer."""
        self.allocated_bytes += nbytes


def _node_bytes(node: Tensor) -> int:
    """Approximate memory traffic of one kernel: output + read operands."""
    total = node.data.nbytes
    for p in node._prev:
        if p.data is not None:
            total += p.data.nbytes
    return total


def _fusion_bytes(fusion) -> int:
    total = 0
    for t in fusion.traffic_nodes:
        if t is not None and t.data is not None:
            total += t.data.nbytes
    return total


def _lower_forward(nodes: list[Tensor], fusions: list, scratch: dict,
                   inference: bool = False):
    """Forward kernels for ``nodes`` in order, with their ``(tag, bytes)``
    profile meta; each fused chain lowers to one kernel at its head."""
    heads = {id(f.head): f for f in fusions}
    fused_away = {id(t) for f in fusions for t in f.fused_away}
    ops: list[Callable[[], None]] = []
    meta: list[tuple[str, int]] = []
    for node in nodes:
        if id(node) in fused_away:
            continue
        fusion = heads.get(id(node))
        if fusion is not None:
            fn, tag = _fusion_forward(fusion, scratch, inference)
            ops.append(fn)
            meta.append((tag, _fusion_bytes(fusion)))
            continue
        builder = _FWD.get(node._op)
        if builder is None:
            raise NotImplementedError(
                f"op {node._op!r} has no compiled forward kernel")
        fn = builder(node, scratch)
        if fn is not None:
            ops.append(fn)
            meta.append((f"F:{node._op}", _node_bytes(node)))
    return ops, meta


def _profile_ops(ops, meta, stats, kernels) -> float:
    """Time one replay of ``ops`` kernel-by-kernel into ``stats`` (keyed
    by op tag) and ``kernels`` (keyed by kernel index within the list)."""
    total = 0.0
    for i, (fn, (tag, nbytes)) in enumerate(zip(ops, meta)):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        total += dt
        entry = stats.setdefault(tag, {"count": 0, "calls": 0,
                                       "seconds": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["seconds"] += dt
        entry["bytes"] += nbytes
        kern = kernels.setdefault((tag, i), {"kernel": f"{tag}#{i}",
                                             "seconds": 0.0, "bytes": nbytes})
        kern["seconds"] += dt
    return total


def _profile_report(stats, kernels, replays, total) -> dict:
    for entry in stats.values():
        entry["count"] = entry["calls"] // replays
        entry["calls"] = entry["calls"]
    top = sorted(kernels.values(), key=lambda k: -k["seconds"])[:5]
    for kern in top:
        kern["seconds"] /= replays
    return {
        "replays": replays,
        "seconds_per_replay": total / replays,
        "ops": dict(sorted(stats.items(), key=lambda kv: -kv[1]["seconds"])),
        "top_kernels": top,
    }


# ----------------------------------------------------------------------
# Folded optimizer: gradient clipping + parameter update as plan kernels
# ----------------------------------------------------------------------


def _build_update_ops(plan: "Plan", optimizer, grad_clip: float):
    """Lower ``clip_grad_norm`` + ``optimizer.step`` into flat kernels.

    The kernels capture the plan's leaf gradient buffers and the
    optimizer's own moment/scratch arrays, so a replayed epoch becomes a
    single flat kernel list — forward, backward, update — with no eager
    optimizer code on the hot path.  The arithmetic replicates
    :mod:`repro.nn.optim` expression for expression (same in-place
    sequence, same python-float norm summation order), so trajectories
    stay bit-identical to the unfused path.  Runtime-dependent scalars
    (the clip threshold test, Adam's bias correction) are recomputed on
    every replay, and the optimizer's ``_step_count`` is advanced so
    eager and folded steps can interleave consistently.
    """
    from .optim import SGD, Adam   # deferred: optim never imports compile

    grad_of = {id(t): g for t, g in plan.leaves}
    # After ``zero_grad`` + ``plan.backward()`` the parameters with
    # non-None grads are exactly the plan's leaves, in this order.
    entries = [(i, p, grad_of[id(p)])
               for i, p in enumerate(optimizer.parameters)
               if id(p) in grad_of]
    ops: list[Callable[[], None]] = []
    meta: list[tuple[str, int]] = []
    state: dict = {"scale": None, "norm": None}

    if grad_clip > 0:
        norm_bufs = [(g, plan._build.lease(g.shape, g.dtype, "opt_norm"))
                     for _, _, g in entries]
        max_norm = float(grad_clip)

        def clip_kernel():
            total = 0
            for g, ws in norm_bufs:
                np.power(g, 2, out=ws)
                total = total + float(ws.sum())
            total = float(np.sqrt(total))
            state["norm"] = total
            if total > max_norm and total > 0.0:
                scale = max_norm / total
                state["scale"] = scale
                for g, _ in norm_bufs:
                    np.multiply(g, scale, out=g)
            else:
                state["scale"] = None

        ops.append(clip_kernel)
        meta.append(("U:clip_grad_norm",
                     2 * sum(g.nbytes for _, _, g in entries)))

    if isinstance(optimizer, Adam):
        beta1, beta2 = optimizer.beta1, optimizer.beta2
        lr, eps, wd = optimizer.lr, optimizer.eps, optimizer.weight_decay

        def bias_kernel():
            optimizer._step_count += 1
            state["bias1"] = 1.0 - beta1 ** optimizer._step_count
            state["bias2"] = 1.0 - beta2 ** optimizer._step_count

        ops.append(bias_kernel)
        meta.append(("U:adam_bias", 0))
        for i, param, g in entries:

            def adam_kernel(g=g, m=optimizer._m[i], v=optimizer._v[i],
                            s1=optimizer._s1[i], s2=optimizer._s2[i],
                            data=param.data):
                grad = g
                if wd:
                    # grad + wd·data, staged through s2 (free until the
                    # divide phase, which runs after grad's last read).
                    np.multiply(data, wd, out=s2)
                    np.add(g, s2, out=s2)
                    grad = s2
                m *= beta1
                np.multiply(grad, 1.0 - beta1, out=s1)
                m += s1
                v *= beta2
                np.multiply(grad, 1.0 - beta2, out=s1)
                s1 *= grad
                v += s1
                np.divide(m, state["bias1"], out=s1)
                s1 *= lr
                np.divide(v, state["bias2"], out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 /= s2
                data -= s1

            ops.append(adam_kernel)
            meta.append(("U:adam", g.nbytes * 8))
    elif isinstance(optimizer, SGD):
        lr = optimizer.lr
        momentum = optimizer.momentum
        wd = optimizer.weight_decay
        for i, param, g in entries:

            def sgd_kernel(g=g, velocity=optimizer._velocity[i],
                           data=param.data,
                           ws=plan._build.lease(g.shape, g.dtype, "opt_sgd")):
                grad = g
                if wd:
                    np.multiply(data, wd, out=ws)
                    np.add(g, ws, out=ws)
                    grad = ws
                if momentum:
                    velocity *= momentum
                    velocity += grad
                    grad = velocity
                np.multiply(grad, lr, out=ws)
                data -= ws

            ops.append(sgd_kernel)
            meta.append(("U:sgd", g.nbytes * (4 if momentum else 2)))
    else:
        raise ValueError(
            f"cannot fold optimizer of type {type(optimizer).__name__}; "
            "expected Adam or SGD")
    return ops, meta, state


class Plan:
    """A recorded step lowered to flat forward/backward kernel lists.

    Built from the loss tensor of one eager step run under
    :func:`repro.nn.tensor.record_tape`.  Adopts every traced array as a
    permanent slot buffer: parameters contribute their (in-place updated)
    ``.data`` arrays, constants keep the values recorded at trace time,
    and each intermediate keeps the array the eager op allocated.
    Gradient buffers are preallocated per slot and never zeroed — a
    static first-write analysis turns the first contribution into a
    store.
    """

    def __init__(self, loss: Tensor, nodes: list[Tensor],
                 pool_gradients: bool = True):
        if not loss.requires_grad or loss.size != 1:
            raise ValueError("plan requires a scalar loss with requires_grad")
        # Reachable-from-loss subgraph (the part that owes gradients).
        reachable = _reachable(
            loss, nodes, "loss depends on graph nodes created outside the "
            "recorded step; build all differentiable state inside the loss "
            "function")

        self._loss_data = loss.data
        region_fusions, ln_fusions = _find_fusions(nodes)
        fusions = region_fusions + ln_fusions
        fuse_bwd_head = {id(f.bwd_head): f for f in fusions}
        fuse_bwd_skip = {id(t) for f in fusions for t in f.bwd_fused_away}
        # The per-channel chain kernels read contiguous channel-first
        # planes and the chain's GEMM writes A' through a reshape, so fix
        # those layouts before any builder captures one.  Eager pool and
        # softmax outputs already are contiguous.
        for fusion in region_fusions:
            for t in (fusion.pool, fusion.gate):
                if not t.data.flags.c_contiguous:
                    t.data = np.ascontiguousarray(t.data)

        # Gradient buffers are C-contiguous: BLAS wants contiguous `out=`
        # targets for the direct matmul-backward fast path.  Fused-away
        # intermediates keep their gradients in kernel-local scratch
        # instead.
        grads = self._allocate_gradients(loss, nodes, reachable,
                                         fuse_bwd_head, fuse_bwd_skip,
                                         pool_gradients)
        grads[id(loss)][...] = 1.0   # seed; loss has no consumers
        self._grads = grads

        build = _BuildContext()
        scratch: dict = {_BuildContext.KEY: build}
        self._build = build
        self._forward_ops, self._forward_meta = _lower_forward(
            nodes, fusions, scratch)

        self._backward_ops: list[Callable[[], None]] = []
        self._backward_meta: list[tuple[str, int]] = []
        written: set[int] = {id(loss)}
        for node in reversed(nodes):
            if id(node) not in reachable or id(node) in fuse_bwd_skip:
                continue
            fusion = fuse_bwd_head.get(id(node))
            if fusion is not None:
                if node.requires_grad:
                    fn, tag = _fusion_backward(fusion, grads, written,
                                               scratch)
                    self._backward_ops.append(fn)
                    self._backward_meta.append((tag, _fusion_bytes(fusion)))
                continue
            builder = _BWD.get(node._op)
            if builder is None:
                raise NotImplementedError(
                    f"op {node._op!r} has no compiled backward kernel")
            fn = builder(node, grads, written, scratch)
            if fn is not None:
                self._backward_ops.append(fn)
                self._backward_meta.append((f"B:{node._op}", _node_bytes(node)))
        self.num_fused_chains = len(region_fusions)
        self.num_fused_layernorms = len(ln_fusions)

        #: requires-grad leaves (parameters and gradcheck inputs) in
        #: discovery order, with their plan-owned gradient buffers.
        self.leaves = [(t, grads[tid]) for tid, t in reachable.items()
                       if t.requires_grad and not t._prev]
        self._param_buffers = [(t, t.data) for t, _ in self.leaves
                               if isinstance(t, Parameter)]
        self.op_counts = dict(Counter(node._op for node in nodes))

        # Optimizer folding (see fuse_optimizer): empty until requested.
        self._update_ops: list[Callable[[], None]] = []
        self._update_meta: list[tuple[str, int]] = []
        self._update_state: dict = {}
        self.fused_optimizer = None

    # ------------------------------------------------------------------
    def _allocate_gradients(self, loss: Tensor, nodes: list[Tensor],
                            reachable: dict[int, Tensor],
                            fuse_bwd_head: dict, fuse_bwd_skip: set[int],
                            pool_gradients: bool) -> dict[int, np.ndarray]:
        """Assign a gradient buffer to every slot that needs one.

        With ``pool_gradients`` (the liveness pass) an interior slot's
        gradient is *live* only from the first backward kernel that
        writes it (its last consumer in forward order) until the slot's
        own backward kernel consumes it; afterwards the buffer returns to
        a free pool keyed on (shape, dtype) and is handed to the next
        slot whose gradient is born.  Buffers are released only *after*
        the consuming kernel, so a kernel never reads and writes the same
        array — the first write to a recycled buffer is always a store
        (the same static analysis that lets buffers skip zeroing).  Leaf
        gradients (the optimizer reads them after replay) and the
        once-seeded loss gradient stay persistent.  Without pooling, one
        buffer per slot for the plan's lifetime (the PR 2 layout).
        """
        needed = [(tid, t) for tid, t in reachable.items()
                  if t.requires_grad and tid not in fuse_bwd_skip]
        self._grad_bytes_unpooled = sum(
            t.data.nbytes for _, t in needed)
        self._pool_gradients = pool_gradients
        if not pool_gradients:
            grads = {tid: np.empty(t.data.shape, dtype=t.data.dtype)
                     for tid, t in needed}
            self._grad_bytes = self._grad_bytes_unpooled
            self._grad_peak_bytes = self._grad_bytes_unpooled
            return grads

        # Backward kernel order (one kernel per node; a fused chain one
        # kernel at its bwd_head).
        bwd_nodes = [n for n in reversed(nodes)
                     if id(n) in reachable and id(n) not in fuse_bwd_skip]
        own_pos = {id(n): i for i, n in enumerate(bwd_nodes)}
        birth: dict[int, int] = {}
        for i, n in enumerate(bwd_nodes):
            if id(n) in fuse_bwd_head:
                targets = fuse_bwd_head[id(n)].grad_targets
            else:
                targets = tuple(p for p in n._prev if p.requires_grad)
            for p in targets:
                birth.setdefault(id(p), i)

        grads: dict[int, np.ndarray] = {}
        persistent_bytes = 0
        births_at: dict[int, list[Tensor]] = {}
        deaths_at: dict[int, list[int]] = {}
        for tid, t in needed:
            # Persistent: leaves (optimizer-visible), the loss seed, and
            # any slot the analysis cannot place (defensive).
            if (not t._prev or tid == id(loss) or tid not in birth
                    or tid not in own_pos):
                grads[tid] = np.empty(t.data.shape, dtype=t.data.dtype)
                persistent_bytes += grads[tid].nbytes
                continue
            births_at.setdefault(birth[tid], []).append(t)
            deaths_at.setdefault(own_pos[tid], []).append(tid)

        pool = _BufferPool()
        for i in range(len(bwd_nodes)):
            for t in births_at.get(i, ()):
                grads[id(t)] = pool.acquire(t.data.shape, t.data.dtype)
            # Release only after the kernel at i has consumed its grad.
            for tid in deaths_at.get(i, ()):
                pool.release(grads[tid])
        self._grad_bytes = persistent_bytes + pool.allocated_bytes
        self._grad_peak_bytes = persistent_bytes + pool.peak_live_bytes
        return grads

    def buffer_report(self) -> dict:
        """Gradient-buffer byte accounting (the liveness-pool metric).

        ``grad_buffer_bytes`` is what this plan actually allocated;
        ``grad_buffer_bytes_unpooled`` is the PR 2 one-buffer-per-slot
        footprint the pool replaces.
        """
        unpooled = self._grad_bytes_unpooled
        return {
            "pooled": self._pool_gradients,
            "grad_buffer_bytes": self._grad_bytes,
            "grad_buffer_peak_bytes": self._grad_peak_bytes,
            "grad_buffer_bytes_unpooled": unpooled,
            "grad_buffer_reduction": (
                1.0 - self._grad_bytes / unpooled if unpooled else 0.0),
            "kernel_scratch_bytes": self._build.scratch_bytes,
        }

    def profile(self, replays: int = 3, include_update: bool = False) -> dict:
        """Per-op-kind replay timing/byte histogram.

        Replays the plan ``replays`` times with a ``perf_counter`` pair
        around every kernel and aggregates by op tag (``F:matmul``,
        ``B:fused_gate``, ...).  This is a separate instrumented walk of
        the same kernel lists — :meth:`forward`/:meth:`backward` carry
        zero profiling overhead when it is not called.  Returns op-kind
        aggregates sorted by time plus the five hottest individual
        kernels (``tag#index``, seconds averaged per replay).

        ``include_update`` also times any folded optimizer kernels —
        note this *applies* ``replays`` real parameter updates, so only
        use it on throwaway models/benchmarks, never mid-training.
        """
        stats: dict[str, dict] = {}
        kernels: dict[tuple, dict] = {}
        total = 0.0
        for _ in range(max(1, replays)):
            total += _profile_ops(self._forward_ops, self._forward_meta,
                                  stats, kernels)
            total += _profile_ops(self._backward_ops, self._backward_meta,
                                  stats, kernels)
            if include_update and self._update_ops:
                total += _profile_ops(self._update_ops, self._update_meta,
                                      stats, kernels)
        return _profile_report(stats, kernels, max(1, replays), total)

    # ------------------------------------------------------------------
    @property
    def num_forward_ops(self) -> int:
        return len(self._forward_ops)

    @property
    def num_backward_ops(self) -> int:
        return len(self._backward_ops)

    def params_current(self) -> bool:
        """Whether every traced parameter still owns its adopted buffer
        (``load_state_dict`` and manual reassignment break this)."""
        return all(t.data is buf for t, buf in self._param_buffers)

    @property
    def num_threaded_ops(self) -> int:
        """Kernels replayed off the caller's thread: none (the benchmark's
        training probe reports it)."""
        return 0

    def forward(self) -> float:
        """Replay the forward pass in-place; returns the loss value."""
        for fn in self._forward_ops:
            fn()
        return float(self._loss_data)

    def backward(self) -> None:
        """Replay the backward pass and bind leaf gradients.

        Leaf ``.grad`` attributes are pointed at the plan's reusable
        buffers (marked not-owned, so any later eager accumulation copies
        rather than corrupting them).
        """
        for fn in self._backward_ops:
            fn()
        for t, buf in self.leaves:
            t.grad = buf
            t._grad_owned = False

    def replay(self) -> float:
        """One full step: forward + backward; returns the loss value."""
        value = self.forward()
        self.backward()
        return value

    # -- optimizer folding ---------------------------------------------
    def fuse_optimizer(self, optimizer, grad_clip: float = 0.0) -> None:
        """Append gradient clipping + the optimizer update to the plan.

        After fusing, :meth:`replay_step` runs one flat kernel list per
        epoch (forward, backward, clip, update) — bit-identical to
        ``plan.replay()`` followed by eager ``clip_grad_norm`` +
        ``optimizer.step()``.  Pass ``grad_clip <= 0`` to skip clipping,
        matching the eager loop's guard.
        """
        ops, meta, state = _build_update_ops(self, optimizer, grad_clip)
        self._update_ops = ops
        self._update_meta = meta
        self._update_state = state
        self.fused_optimizer = optimizer

    @property
    def num_update_ops(self) -> int:
        return len(self._update_ops)

    @property
    def last_grad_norm(self) -> float | None:
        """Pre-clip gradient norm from the most recent update replay
        (None before the first, or when fused without clipping)."""
        return self._update_state.get("norm")

    def update(self) -> None:
        """Replay the folded clip + optimizer-update kernels."""
        if not self._update_ops:
            raise RuntimeError(
                "no optimizer fused onto this plan; call fuse_optimizer "
                "first")
        for fn in self._update_ops:
            fn()

    def replay_step(self) -> float:
        """One full training epoch as a single flat kernel list:
        forward + backward + folded optimizer update."""
        value = self.forward()
        self.backward()
        self.update()
        return value


# ----------------------------------------------------------------------
# InferencePlan: the forward-only serving program
# ----------------------------------------------------------------------

#: Ops whose output can alias their parent's buffer (replayed as no-ops).
_VIEW_OPS = {"reshape", "swapaxes", "transpose", "expand_dims", "squeeze",
             "getitem"}


def _view_candidate(node: Tensor, shape: tuple[int, ...]) -> np.ndarray | None:
    """Rebuild ``node`` as a view of its parent's current buffer, or None
    when the op materializes a copy on that layout (e.g. a reshape of a
    non-contiguous view)."""
    op = node._op
    if op not in _VIEW_OPS:
        return None
    if op == "getitem" and not _is_basic_index(node._ctx[0]):
        return None
    parent = node._prev[0].data
    if op == "reshape":
        cand = parent.reshape(shape)
    elif op == "swapaxes":
        cand = parent.swapaxes(*node._ctx)
    elif op == "transpose":
        cand = parent.transpose(node._ctx[0])
    elif op == "expand_dims":
        cand = np.expand_dims(parent, node._ctx[0])
    elif op == "squeeze":
        cand = np.squeeze(parent, node._ctx[0])
    else:
        cand = parent[node._ctx[0]]
    if cand.shape != tuple(shape) or not np.may_share_memory(cand, parent):
        return None
    return cand


class InferencePlan:
    """A recorded forward pass lowered to flat in-place kernels.

    Built from the output tensor of one ``no_grad`` + ``eval()`` forward
    run captured by :func:`record_forward` (or from a deserialized
    :class:`repro.nn.plancache.PlanSpec`).  Differences from the training
    :class:`Plan`:

    - **forward only** — no gradient buffers, no backward kernels, and
      dropout is structurally absent (eval mode elides it; an active
      dropout is rejected at record time);
    - **rebindable inputs** — the declared ``inputs`` are slot buffers
      that :meth:`run` refills per request, so one plan serves every
      same-shaped batch;
    - **activation liveness pool** — with ``pool_buffers`` (default) an
      intermediate's buffer is recycled once its last consumer kernel has
      run, so resident memory is the live working set rather than one
      buffer per slot.  View chains share their root's buffer and extend
      its lifetime; what a fused chain's kernel writes is born at the
      chain head, where that kernel runs.  Buffers are released only
      after the consuming kernel, so no kernel ever reads and writes the
      same array.
    """

    def __init__(self, output: Tensor, nodes: list[Tensor],
                 inputs: Sequence[Tensor], params: Sequence[Tensor] | None = None,
                 pool_buffers: bool = True):
        if not output._prev:
            raise ValueError("inference plan output must be a computed node")
        reachable = _reachable(output, nodes)
        for t in inputs:
            if t._prev:
                raise ValueError("plan inputs must be leaf tensors")
        order = [n for n in nodes if id(n) in reachable]
        self._order = order

        # Fusion decisions first (they fix birth positions); consumers
        # are computed over live nodes only — dead branches never replay.
        region_fusions, ln_fusions = _find_fusions(order)
        fusions = region_fusions + ln_fusions
        skip_alloc = {id(t) for f in fusions for t in f.inference_dead}
        # What a fused kernel writes is born when it runs, at the head.
        pos = {id(n): i for i, n in enumerate(order)}
        birth_override = {id(t): pos[id(f.head)]
                          for f in fusions for t in f.written_at_head}

        shapes = {id(n): n.data.shape for n in order}
        dtypes = {id(n): n.data.dtype for n in order}
        self._pooled = pool_buffers
        if pool_buffers:
            self._assign_buffers(order, output, shapes, dtypes,
                                 skip_alloc, birth_override)
        else:
            # Adopt the traced buffers as-is (the PR 2 layout): one array
            # per non-view slot for the plan's lifetime.
            self._slot_bytes_unpooled = sum(
                n.data.nbytes
                for n in order
                if id(n) not in skip_alloc and not _is_view(n))
            self._slot_bytes = self._slot_bytes_unpooled
            self._slot_peak_bytes = self._slot_bytes_unpooled

        build = _BuildContext()
        scratch: dict = {_BuildContext.KEY: build}
        self._build = build
        self._forward_ops, self._forward_meta = _lower_forward(
            order, fusions, scratch, inference=True)

        self.num_fused_chains = len(region_fusions)
        self.num_fused_layernorms = len(ln_fusions)
        self.op_counts = dict(Counter(node._op for node in order))
        self._inputs = list(inputs)
        self._input_arrays = [t.data for t in inputs]
        self._output = output.data
        self._param_buffers = ([(p, p.data) for p in params]
                               if params is not None else [])
        #: Residency hook: how many requests this plan has replayed.
        #: A long-lived serving process reads this (via
        #: ``PlanCache.resident_report`` / ``EmbeddingService.stats``)
        #: to see which resident plans are hot.
        self.replays = 0

    # ------------------------------------------------------------------
    def _assign_buffers(self, order, output, shapes, dtypes,
                        skip_alloc, birth_override) -> None:
        """The activation liveness pass: classify views, compute per-root
        last-use positions, then rebind every interior node to a pooled
        C-contiguous buffer (or a view of one)."""
        # Pass A: provisional view/root classification on the incoming
        # buffers.  Pooled roots are contiguous, so a pass-A view can
        # only become *more* viewable in pass C; drift the other way is
        # handled there by materializing a private buffer.
        root: dict[int, int] = {}
        is_view: set[int] = set()
        own_nodes: list[Tensor] = []
        unpooled = 0
        for n in order:
            if id(n) in skip_alloc:
                continue
            cand = _view_candidate(n, shapes[id(n)])
            if cand is not None:
                is_view.add(id(n))
                root[id(n)] = root.get(id(n._prev[0]), id(n._prev[0]))
            else:
                own_nodes.append(n)
                root[id(n)] = id(n)
                unpooled += n.data.nbytes
        self._slot_bytes_unpooled = unpooled

        # Pass B: last consumer position per storage root (a node's read
        # touches its root's buffer; leaves are their own roots and are
        # never pooled).
        last_use: dict[int, int] = {}
        for i, n in enumerate(order):
            for p in n._prev:
                last_use[root.get(id(p), id(p))] = i
        persistent = {root.get(id(output), id(output))}

        births_at: dict[int, list[Tensor]] = {}
        deaths_at: dict[int, list[Tensor]] = {}
        positions = {id(n): i for i, n in enumerate(order)}
        for n in own_nodes:
            b = birth_override.get(id(n), positions[id(n)])
            births_at.setdefault(b, []).append(n)
            if id(n) in persistent:
                continue
            d = last_use.get(id(n))
            if d is None:
                continue   # never read again (defensive): keep persistent
            deaths_at.setdefault(d, []).append(n)

        # Pass C: linear-scan allocation + final buffer binding.  Views
        # are rebuilt on their parents' final buffers in program order.
        pool = _BufferPool()
        for i, n in enumerate(order):
            for t in births_at.get(i, ()):
                t.data = pool.acquire(shapes[id(t)], dtypes[id(t)])
            if id(n) in skip_alloc:
                # Fused away entirely (the masked chain's add): the fused
                # kernel never touches its buffer.
                n.data = None
            elif id(n) in is_view:
                cand = _view_candidate(n, shapes[id(n)])
                if cand is None:
                    # Layout drift (pass-A view, pass-C copy): keep the
                    # materialized array as a private persistent buffer.
                    n.data = np.empty(shapes[id(n)], dtype=dtypes[id(n)])
                    pool.count_external(n.data.nbytes)
                else:
                    n.data = cand
            for t in deaths_at.get(i, ()):
                pool.release(t.data)
        self._slot_bytes = pool.allocated_bytes
        self._slot_peak_bytes = pool.peak_live_bytes

    # ------------------------------------------------------------------
    @property
    def num_forward_ops(self) -> int:
        return len(self._forward_ops)

    @property
    def inputs(self) -> list[Tensor]:
        return self._inputs

    def matches(self, params: Sequence[Tensor]) -> bool:
        """Whether this plan is bound to exactly these parameter objects
        and their arrays have not been swapped out."""
        if len(params) != len(self._param_buffers):
            return False
        return all(p is q and q.data is buf
                   for (q, buf), p in zip(self._param_buffers, params))

    def buffer_report(self) -> dict:
        """Activation-slot byte accounting (the serving-residency metric)."""
        unpooled = self._slot_bytes_unpooled
        return {
            "pooled": self._pooled,
            "slot_bytes": self._slot_bytes,
            "slot_peak_bytes": self._slot_peak_bytes,
            "slot_bytes_unpooled": unpooled,
            "slot_reduction": (1.0 - self._slot_bytes / unpooled
                               if unpooled else 0.0),
            "kernel_scratch_bytes": self._build.scratch_bytes,
        }

    def profile(self, replays: int = 3) -> dict:
        """Forward-replay timing/byte histogram (see :meth:`Plan.profile`).
        Replays on whatever inputs are currently bound to the slots."""
        stats: dict[str, dict] = {}
        kernels: dict[tuple, dict] = {}
        total = 0.0
        for _ in range(max(1, replays)):
            total += _profile_ops(self._forward_ops, self._forward_meta,
                                  stats, kernels)
        return _profile_report(stats, kernels, max(1, replays), total)

    def run(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Replay the forward pass on fresh inputs.

        Copies each request array into its slot (casting to the slot
        dtype, exactly as the eager path's ``Tensor(m)`` would) and runs
        the kernel list.  Returns the output buffer — a view owned by the
        plan; copy it before the next ``run`` if it must survive.
        """
        if len(arrays) != len(self._input_arrays):
            raise ValueError(f"plan expects {len(self._input_arrays)} "
                             f"inputs, got {len(arrays)}")
        for slot, arr in zip(self._input_arrays, arrays):
            src = np.asarray(arr)
            if src.shape != slot.shape:
                raise ValueError(f"input shape {src.shape} does not match "
                                 f"plan slot {slot.shape}")
            np.copyto(slot, src)
        for fn in self._forward_ops:
            fn()
        self.replays += 1
        return self._output


# ----------------------------------------------------------------------
# CompiledStep: record/replay with automatic eager fallback
# ----------------------------------------------------------------------

class CompiledStep:
    """Record-once/replay-many executor for a fixed-shape training step.

    Parameters
    ----------
    loss_fn:
        Zero-argument callable returning the scalar loss tensor.  The
        first call (and any re-record) runs it eagerly under the tape
        recorder; replays never call it.
    signature_fn:
        Optional zero-argument callable returning a hashable signature of
        the step's shapes.  When the signature changes between calls the
        stale plan is dropped and the step falls back to one eager
        (re-recording) execution — the automatic shape-change fallback.
    optimizer, grad_clip:
        When an optimizer is given, clipping and the parameter update are
        folded into the plan (:meth:`Plan.fuse_optimizer`) and ``run()``
        performs the complete training step as one flat kernel list —
        callers must NOT clip or call ``optimizer.step()`` themselves.
        Without one, ``run()`` computes loss + all leaf gradients and
        callers clip/step exactly as in eager mode.
    """

    def __init__(self, loss_fn: Callable[[], Tensor],
                 signature_fn: Callable[[], Hashable] | None = None,
                 optimizer=None, grad_clip: float = 0.0):
        self._loss_fn = loss_fn
        self._signature_fn = signature_fn
        self._optimizer = optimizer
        self._grad_clip = grad_clip
        self._plan: Plan | None = None
        self._signature: Hashable | None = None
        self.compile_count = 0   # number of (re-)recordings performed

    @property
    def plan(self) -> Plan | None:
        return self._plan

    def _stale(self, signature: Hashable | None) -> bool:
        if self._plan is None:
            return True
        if self._signature_fn is not None and signature != self._signature:
            return True
        return not self._plan.params_current()

    def run(self) -> float:
        """One training step (forward+backward, plus the folded update
        when an optimizer was given); returns the loss value."""
        signature = self._signature_fn() if self._signature_fn else None
        if self._stale(signature):
            return self._record(signature)
        if self._optimizer is not None:
            return self._plan.replay_step()
        return self._plan.replay()

    def _record(self, signature: Hashable | None) -> float:
        with record_tape() as nodes:
            loss = self._loss_fn()
        RECORD_STATS.training_records += 1
        self._plan = Plan(loss, nodes)
        if self._optimizer is not None:
            self._plan.fuse_optimizer(self._optimizer, self._grad_clip)
        self._signature = signature
        self.compile_count += 1
        # The eager trace already holds this step's forward values in the
        # adopted buffers; only the backward half needs replaying.
        self._plan.backward()
        if self._optimizer is not None:
            self._plan.update()
        return float(loss.data)

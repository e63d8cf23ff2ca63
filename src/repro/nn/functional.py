"""Composite differentiable operations built from :class:`repro.nn.Tensor` primitives.

Every function here is pure: it takes tensors and returns tensors, with
gradients flowing through the primitive ops recorded in
:mod:`repro.nn.tensor`.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, is_forward_recording, is_recording

__all__ = [
    "softmax",
    "log_softmax",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "gelu",
    "dropout",
    "l1_normalize",
    "l2_normalize",
    "cosine_similarity_matrix",
    "mse_loss",
    "l1_loss",
    "scaled_dot_product_attention",
    "additive_mask",
    "additive_key_mask",
    "MASK_NEG",
]

_EPS = 1e-12

#: Additive score applied to masked-out positions. Large enough that
#: ``exp(score - max)`` underflows to exactly 0.0 in float32/float64, so a
#: masked softmax matches an unpadded softmax bit-for-bit on the kept
#: entries, while staying finite (no inf - inf = nan in the max-shift).
MASK_NEG = -1e30


def additive_mask(keep: np.ndarray) -> np.ndarray:
    """Convert a keep mask (1.0 = real, 0.0 = padded) to an additive score
    mask: 0.0 on kept positions, :data:`MASK_NEG` on padded ones."""
    keep = np.asarray(keep)
    return (1.0 - keep) * MASK_NEG


def additive_key_mask(keep: np.ndarray) -> np.ndarray:
    """A ``(..., n)`` keep mask as an additive key mask ``(..., 1, 1, n)``
    that broadcasts over the head and query axes of a
    ``(..., heads, n_q, n_k)`` score matrix — the layout every
    self-attention module in this package shares."""
    return additive_mask(keep)[..., None, None, :]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused primitive)."""
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (fused primitive)."""
    return x.log_softmax(axis=axis)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation)."""
    inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
    return 0.5 * (x * (1.0 + inner.tanh()))


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)`` at train time.

    Recorded as a dedicated ``dropout`` tape node (rather than a multiply
    by an anonymous constant) so the compiled executor can redraw the
    mask from the same ``rng`` stream on every replay — keeping the draw
    sequence identical to an eager run's.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if is_forward_recording():
        # A forward-only plan has no rng-stream contract to honour —
        # inference must be deterministic. Recording active dropout means
        # the model was left in train mode; refuse rather than bake one
        # arbitrary mask into every replay.
        raise RuntimeError(
            "active dropout cannot be captured on a forward-only tape; "
            "record inference plans with the model in eval() mode")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = Tensor._make(x.data * mask, (x,), "dropout")
    if is_recording() and not out.requires_grad:
        # Off-tape dropout (constant input) cannot be replayed: its mask
        # would freeze and the rng stream silently desynchronize from an
        # eager run. Fail loudly rather than train wrong.
        raise RuntimeError(
            "dropout on a non-differentiable input cannot be compiled; "
            "train this model in eager mode")
    if out.requires_grad:
        # The drawn mask rides along so a compiled plan can adopt it as
        # the replayable mask buffer (redrawn in-place on later replays).
        out._ctx = (p, rng, mask)

        def backward():
            x._accumulate(out.grad * mask)
        out._backward = backward
    return out


def l1_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Normalize so absolute values along ``axis`` sum to one."""
    denom = x.abs().sum(axis=axis, keepdims=True) + _EPS
    return x / denom


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Normalize rows to unit Euclidean norm.

    ``_EPS`` floors the norm, as in :func:`cosine_similarity_matrix`, so
    it enters squared under the root: a row of norm 1e-4 comes out
    unit-norm (normalizing twice changes nothing), while an all-zero row
    stays zero (no 0/0).
    """
    denom = ((x * x).sum(axis=axis, keepdims=True) + _EPS * _EPS) ** 0.5
    return x / denom


def cosine_similarity_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of a plain array.

    Used to build the (constant) similarity targets of the feature
    reconstruction loss (paper Eq. 8); hence it operates on numpy arrays
    and does not build a graph.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms = np.where(norms < _EPS, 1.0, norms)
    unit = x / norms
    return unit @ unit.T


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    return (prediction - target).abs().mean()


def scaled_dot_product_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: Tensor | np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V) = softmax(QKᵀ/√d + mask) V  (paper Eq. 4–5).

    Supports arbitrary leading batch dimensions (e.g. attention heads, or
    a leading city/shard batch axis on top of the head axis).

    Parameters
    ----------
    mask:
        Optional additive mask broadcastable to the score matrix
        ``(..., n_q, n_k)``; use :func:`additive_mask` to turn a 0/1 keep
        mask into scores (:data:`MASK_NEG` at padded key positions makes
        their softmax weight exactly zero).

    Returns
    -------
    (output, attention_weights)
    """
    d = query.shape[-1]
    scores = (query @ key.T) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = scores + (mask if isinstance(mask, Tensor) else Tensor(mask))
    weights = softmax(scores, axis=-1)
    return weights @ value, weights

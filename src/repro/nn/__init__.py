"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

This package replaces PyTorch for the HAFusion reproduction. It provides a
reverse-mode autograd tensor (:class:`Tensor`), module system, layers
(linear, layer-norm, dropout, MLP), attention mechanisms (multi-head self
attention, Transformer encoder blocks, external attention), stride-1 2-D
convolution/pooling, Xavier initialization, and Adam/SGD optimizers.

Every op and layer accepts an optional leading batch axis — ``(b, n, d)``
alongside ``(n, d)``, ``(B, C, H, W)`` alongside ``(C, H, W)`` — and the
attention modules take an optional keep ``mask`` that excludes padded
positions exactly; this is what lets :mod:`repro.core.engine` run a batch
of cities through the model as one fused tensor program.

Every differentiable component is validated against finite-difference
gradient checks in ``tests/nn`` at both unbatched and batched shapes
(``tests/nn/test_gradcheck_sweep.py``).
"""

from . import functional, init
from .attention import ExternalAttention, MultiHeadSelfAttention, TransformerEncoderBlock
from .compile import (
    RECORD_STATS,
    CompiledStep,
    InferencePlan,
    Plan,
    record_forward,
)
from .conv import AvgPool2d, Conv2d
from .gradcheck import check_gradients, numeric_gradient
from .layers import MLP, Dropout, FeedForward, Identity, LayerNorm, Linear
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .plancache import (
    PlanCache,
    PlanSpec,
    default_plan_cache,
    inference_plan_key,
    reset_default_plan_cache,
)
from .tensor import (
    Tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    record_tape,
    set_default_dtype,
    use_dtype,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "record_tape",
    "use_dtype",
    "set_default_dtype",
    "get_default_dtype",
    "Plan",
    "InferencePlan",
    "CompiledStep",
    "record_forward",
    "RECORD_STATS",
    "PlanCache",
    "PlanSpec",
    "default_plan_cache",
    "inference_plan_key",
    "reset_default_plan_cache",
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Linear",
    "MLP",
    "FeedForward",
    "LayerNorm",
    "Dropout",
    "Identity",
    "MultiHeadSelfAttention",
    "TransformerEncoderBlock",
    "ExternalAttention",
    "Conv2d",
    "AvgPool2d",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "check_gradients",
    "numeric_gradient",
    "functional",
    "init",
]

"""2-D convolution and average pooling as autograd primitives.

IntraAFL's lightweight correlation module (paper Eq. 13) applies
``AvgPool(Conv2D(A))`` to the n×n attention-coefficient matrix, treating it
as a one-channel image and producing ``c`` channels of higher-order
(multi-region) correlation maps. Both ops keep the spatial size (same
padding, stride 1) so the result stays aligned with the region indices.

Inputs are ``(C, H, W)`` single images or ``(B, C, H, W)`` batches (one
image per city/shard in the batched execution engine); the batched path
folds the batch into the same single im2col matmul, so a batch costs one
GEMM instead of B.

The implementation uses im2col so that the heavy lifting is a single
matmul; forward and backward are hand-written numpy (registered on the
autograd tape directly) because expressing convolution through the
elementwise primitives would be prohibitively slow.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Conv2d", "AvgPool2d"]


def _zero_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two trailing axes (faster than the general np.pad)."""
    *lead, height, width = x.shape
    padded = np.zeros((*lead, height + 2 * pad, width + 2 * pad), dtype=x.dtype)
    padded[..., pad:pad + height, pad:pad + width] = x
    return padded


def _im2col(x: np.ndarray, kernel: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B*H*W, C*kernel*kernel) patch matrix, stride 1."""
    batch, channels, height, width = x.shape
    padded = _zero_pad(x, pad)
    strides = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, height, width, kernel, kernel),
        strides=(strides[0], strides[1], strides[2], strides[3],
                 strides[2], strides[3]),
        writeable=False,
    )
    return patches.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * height * width, channels * kernel * kernel)


def _col2im(cols: np.ndarray, shape: tuple[int, int, int, int], kernel: int,
            pad: int) -> np.ndarray:
    """Adjoint of :func:`_im2col` — scatter-add patches back to images."""
    batch, channels, height, width = shape
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad),
                      dtype=cols.dtype)
    cols = cols.reshape(batch, height, width, channels, kernel, kernel)
    for ky in range(kernel):
        for kx in range(kernel):
            padded[:, :, ky:ky + height, kx:kx + width] += \
                cols[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


class Conv2d(Module):
    """Same-padding, stride-1 2-D convolution.

    Input shape ``(in_channels, H, W)`` or ``(B, in_channels, H, W)``;
    output keeps the leading layout with ``out_channels`` channels.
    The kernel size must be odd so the padding keeps spatial size.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd for same padding, got {kernel_size}")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.pad = kernel_size // 2
        self.weight = Parameter(init.xavier_uniform(
            (out_channels, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim not in (3, 4) or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"expected input of shape ({self.in_channels}, H, W) or "
                f"(B, {self.in_channels}, H, W), got {x.shape}")
        batched = x.ndim == 4
        data = x.data if batched else x.data[None]
        batch, channels, height, width = data.shape
        kernel, pad = self.kernel_size, self.pad
        cols = _im2col(data, kernel, pad)                         # (B*H*W, C*k*k)
        flat_w = self.weight.data.reshape(self.out_channels, -1)  # (O, C*k*k)
        out_data = (cols @ flat_w.T)                              # (B*H*W, O)
        if self.bias is not None:
            out_data = out_data + self.bias.data
        out_data = out_data.reshape(batch, height, width,
                                    self.out_channels).transpose(0, 3, 1, 2)
        if not batched:
            out_data = out_data[0]

        parents = [x, self.weight] + ([self.bias] if self.bias is not None else [])
        out = Tensor._make(out_data, parents, "conv2d")
        if out._op:
            # ``cols`` rides along so a compiled plan can adopt the im2col
            # buffer instead of reading one it never filled.
            out._ctx = (kernel, pad, batched, cols)
        if out.requires_grad:
            weight, bias = self.weight, self.bias

            def backward():
                grad4 = out.grad if batched else out.grad[None]
                grad = grad4.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
                if weight.requires_grad:
                    grad_w = (grad.T @ cols).reshape(weight.shape)
                    weight._accumulate(grad_w)
                if bias is not None and bias.requires_grad:
                    bias._accumulate(grad.sum(axis=0))
                if x.requires_grad:
                    grad_cols = grad @ flat_w                      # (B*H*W, C*k*k)
                    grad_x = _col2im(grad_cols, (batch, channels, height, width),
                                     kernel, pad)
                    x._accumulate(grad_x if batched else grad_x[0])
            out._backward = backward
        return out


class AvgPool2d(Module):
    """Same-padding, stride-1 average pooling (a fixed uniform convolution).

    Channel-preserving: input/output shape ``(C, H, W)`` or
    ``(B, C, H, W)``. Implemented as a depthwise convolution with a
    constant ``1/k²`` kernel, so its backward pass is the same scatter-add
    used by :class:`Conv2d`.
    """

    def __init__(self, kernel_size: int = 3):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd for same padding, got {kernel_size}")
        self.kernel_size = kernel_size
        self.pad = kernel_size // 2

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim not in (3, 4):
            raise ValueError(f"expected input of shape (C, H, W) or (B, C, H, W), got {x.shape}")
        height, width = x.shape[-2:]
        kernel, pad = self.kernel_size, self.pad
        scale = 1.0 / (kernel * kernel)
        padded = _zero_pad(x.data, pad)
        # C-order like ``padded``: zeros_like would inherit a channel-last
        # conv output's strides and make every window add (and every op
        # downstream) stride across channels.
        out_data = np.zeros(x.shape, dtype=x.dtype)
        for ky in range(kernel):
            for kx in range(kernel):
                out_data += padded[..., ky:ky + height, kx:kx + width]
        out_data *= scale

        out = Tensor._make(out_data, [x], "avgpool2d")
        if out._op:
            out._ctx = (kernel, pad)
        if out.requires_grad:
            def backward():
                grad_padded = np.zeros(x.shape[:-2] + (height + 2 * pad, width + 2 * pad),
                                       dtype=out.grad.dtype)
                for ky in range(kernel):
                    for kx in range(kernel):
                        grad_padded[..., ky:ky + height, kx:kx + width] += out.grad
                grad_padded *= scale
                if pad:
                    grad_padded = grad_padded[..., pad:-pad, pad:-pad]
                x._accumulate(grad_padded)
            out._backward = backward
        return out

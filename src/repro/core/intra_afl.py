"""IntraAFL — intra-view attentive feature learning (paper Sec. V, Fig. 4).

A Transformer-encoder stack whose self-attention is the paper's
**RegionSA**: vanilla multi-head attention augmented with a lightweight
convolutional path over the attention-coefficient matrix that extracts
*multi-region* (higher-order) correlations and injects them back into the
embeddings:

    A'   = AvgPool(Conv2D(A))                (Eq. 13, c channels)
    C_A  = MLP( AVG( A' ⊙ softmax(A') ) )    (Eq. 14)
    C    = C_V + C_A                         (Eq. 15)

where ``A`` is the (head-averaged) n×n coefficient matrix and ``C_V`` the
standard attention output.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    AvgPool2d,
    Conv2d,
    Linear,
    Module,
    ModuleList,
    Tensor,
    TransformerEncoderBlock,
)
from ..nn import functional as F

__all__ = ["RegionSA", "IntraAFL"]


class RegionSA(Module):
    """Region self-attention with the higher-order correlation module.

    Maps (n, d) -> (n, d), or (b, n, d) -> (b, n, d) for a batch of
    cities/shards sharing one set of weights. ``n_regions`` is needed at
    construction time because the correlation MLP projects rows of the
    n×n coefficient matrix to d dimensions.

    With a keep ``mask`` (1.0 = real region, 0.0 = padding), padded keys
    get exactly-zero attention weight, padded query rows of the
    coefficient matrix are zeroed before the convolution (so the conv
    kernel sees the same zero boundary an unpadded matrix would), and the
    gating softmax of Eq. 14 is restricted to real columns — real-region
    outputs are bit-identical to an unbatched padded run.

    A masked input may be narrower than ``n_regions`` when every row's
    last region is padding: the gated coefficients of padded columns are
    exactly zero, so only the first ``w`` columns of the correlation
    MLP's weight can touch a real region.  The padding column must stay
    inside the image because the 3x3 pool at a row's last real region
    reads the conv output one cell further out, which holds the conv
    bias plus its real neighbours — not the zero the pool's border
    would read.  With it inside, real regions match a full-width run up
    to summation order.  At full width the forward pass is unchanged.
    """

    def __init__(self, d_model: int, n_regions: int, num_heads: int = 4,
                 conv_channels: int = 32, conv_kernel: int = 3,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} must be divisible by num_heads={num_heads}")
        rng = rng if rng is not None else np.random.default_rng()
        self.d_model = d_model
        self.n_regions = n_regions
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.w_query = Linear(d_model, d_model, bias=False, rng=rng)
        self.w_key = Linear(d_model, d_model, bias=False, rng=rng)
        self.w_value = Linear(d_model, d_model, bias=False, rng=rng)
        self.w_out = Linear(d_model, d_model, bias=False, rng=rng)
        self.conv = Conv2d(1, conv_channels, kernel_size=conv_kernel, rng=rng)
        self.pool = AvgPool2d(kernel_size=conv_kernel)
        self.correlation_mlp = Linear(n_regions, d_model, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        # (..., n, d) -> (..., heads, n, d_head)
        shape = x.shape[:-1] + (self.num_heads, self.d_head)
        return x.reshape(shape).swapaxes(-3, -2)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        n = x.shape[-2]
        if n > self.n_regions:
            raise ValueError(f"RegionSA built for n={self.n_regions}, got input with n={n}")
        if n < self.n_regions and (mask is None or np.any(mask[..., -1])):
            raise ValueError(
                f"RegionSA built for n={self.n_regions} takes an input of "
                f"width {n} only with a mask whose last region is padding "
                f"in every row")
        query = self._split_heads(self.w_query(x))
        key = self._split_heads(self.w_key(x))
        value = self._split_heads(self.w_value(x))
        additive = None if mask is None else F.additive_key_mask(mask)
        context, weights = F.scaled_dot_product_attention(query, key, value,
                                                          mask=additive)
        if mask is not None:
            # Zero the padded query rows so the coefficient matrix below is
            # exactly zero outside the real n_i × n_i block.
            weights = weights * Tensor(mask[..., None, :, None])
        merged = context.swapaxes(-3, -2).reshape(x.shape[:-1] + (self.d_model,))
        c_v = self.w_out(merged)

        # Higher-order correlation path (Eq. 13-14) on the head-averaged
        # coefficient matrix, treated as a 1-channel image.
        coeff = weights.mean(axis=-3).expand_dims(-3)        # (..., 1, n, n)
        corr = self.pool(self.conv(coeff))                   # (..., c, n, n)
        if mask is None:
            gate = F.softmax(corr, axis=-1)
        else:
            gate = F.softmax(corr + Tensor(F.additive_key_mask(mask)), axis=-1)
        gated = corr * gate                                  # A' ⊙ softmax(A')
        pooled = gated.mean(axis=-3)                         # (..., n, n)
        if n == self.n_regions:
            c_a = self.correlation_mlp(pooled)               # (..., n, d)
        else:
            mlp = self.correlation_mlp
            c_a = pooled @ mlp.weight[:, :n].T + mlp.bias
        return c_v + c_a                                     # Eq. 15


class IntraAFL(Module):
    """Per-view encoder: input projection + stacked RegionSA encoder blocks.

    The input view matrix X_j (n × d_j) — or a (b, n, d_j) batch of view
    matrices — is first projected to the model width d, then refined by
    ``num_layers`` Transformer-encoder blocks whose attention is RegionSA
    (or vanilla multi-head attention for the HAFusion-w/o-S ablation).
    """

    def __init__(self, input_dim: int, d_model: int, n_regions: int,
                 num_layers: int = 3, num_heads: int = 4, conv_channels: int = 32,
                 dropout: float = 0.1, attention_kind: str = "region_sa",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if attention_kind not in ("region_sa", "vanilla"):
            raise ValueError(f"unknown attention_kind {attention_kind!r}")
        rng = rng if rng is not None else np.random.default_rng()
        self.input_projection = Linear(input_dim, d_model, rng=rng)
        blocks = []
        for _ in range(num_layers):
            if attention_kind == "region_sa":
                attention = RegionSA(d_model, n_regions, num_heads=num_heads,
                                     conv_channels=conv_channels, rng=rng)
            else:
                attention = None  # TransformerEncoderBlock default (vanilla MHSA)
            blocks.append(TransformerEncoderBlock(
                d_model, num_heads=num_heads, dropout=dropout,
                attention=attention, rng=rng))
        self.blocks = ModuleList(blocks)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = self.input_projection(x)
        for block in self.blocks:
            h = block(h, mask=mask)
        return h

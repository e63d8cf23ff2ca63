"""DAFusion plug-in adapters (Table IV).

The paper shows DAFusion is generic: bolted onto MVURE / MGFN / HREP in
place of their simple fusion (weighted sum / mean / sum), it improves
every model. :class:`DAFusionAdapter` wraps any
:class:`RegionEmbeddingBaseline`, intercepts ``fuse`` and routes the view
embeddings through a fresh DAFusion module instead; everything else —
encoders, objective, training loop — stays the baseline's own.
"""

from __future__ import annotations

import numpy as np

from ..core.dafusion import DAFusion
from ..nn import Tensor, no_grad
from .base import RegionEmbeddingBaseline

__all__ = ["DAFusionAdapter"]


class DAFusionAdapter(RegionEmbeddingBaseline):
    """``<baseline>-DAFusion``: a baseline with its fusion replaced.

    Parameters
    ----------
    baseline:
        A constructed baseline model (its encoders are reused and trained
        jointly with the new fusion).
    fusion_layers, num_heads, dropout, d_prime:
        DAFusion hyper-parameters (paper defaults).
    """

    def __init__(self, baseline: RegionEmbeddingBaseline,
                 fusion_layers: int = 3, num_heads: int = 4,
                 dropout: float = 0.1, d_prime: int = 64,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        d = baseline.d
        if d % num_heads != 0:
            num_heads = 1
        self.name = f"{baseline.name}-dafusion"
        self.default_dim = baseline.default_dim
        self.d = d
        self.baseline = baseline
        self.dafusion = DAFusion(d, d_prime=d_prime, num_layers=fusion_layers,
                                 num_heads=num_heads, dropout=dropout, rng=rng)

    def view_embeddings(self) -> list[Tensor]:
        return self.baseline.view_embeddings()

    def fuse(self, views: list[Tensor]) -> Tensor:
        if len(views) == 1:
            # Single-view models still gain RegionFusion's higher-order
            # region correlations.
            return self.dafusion.region_fusion(views[0])
        return self.dafusion(views)

    def loss(self) -> Tensor:
        # The baseline's objective, evaluated through the new fusion: we
        # temporarily swap the bound fuse method.
        original = self.baseline.fuse
        self.baseline.fuse = self.fuse
        try:
            return self.baseline.loss()
        finally:
            self.baseline.fuse = original

    def embed(self) -> np.ndarray:
        with self.evaluating(), no_grad():
            original = self.baseline.fuse
            self.baseline.fuse = self.fuse
            try:
                h = self.baseline.forward()
            finally:
                self.baseline.fuse = original
        return h.data.copy()

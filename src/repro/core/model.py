"""The full HAFusion model (paper Fig. 2).

Pipeline: views → HALearning (IntraAFL per view + shared InterAFL) →
DAFusion (ViewFusion + RegionFusion) → region embeddings H, plus the
per-view loss heads of Sec. IV-C (feature-oriented MLPs and the
source/destination mobility heads).
"""

from __future__ import annotations

import numpy as np

from ..data.features import ViewSet
from ..nn import MLP, Linear, Module, ModuleList, Tensor, no_grad
from .config import HAFusionConfig
from .dafusion import build_fusion
from .halearning import HALearning
from .losses import feature_similarity_loss, mobility_kl_loss

__all__ = ["HAFusion"]


class HAFusion(Module):
    """Urban region representation learner.

    Parameters
    ----------
    view_dims:
        Input width of each view (mobility first if present).
    n_regions:
        Number of regions n (needed by RegionSA's correlation MLP).
    config:
        Hyper-parameters; see :class:`HAFusionConfig`.
    mobility_view:
        Index of the mobility view in the inputs, or None if absent
        (Fig. 6 w/o-M ablation) — decides which loss head each view gets.
    rng:
        Generator for weight initialization.
    """

    def __init__(self, view_dims: list[int], n_regions: int,
                 config: HAFusionConfig | None = None,
                 mobility_view: int | None = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        config = config if config is not None else HAFusionConfig()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.n_views = len(view_dims)
        self.mobility_view = mobility_view

        self.halearning = HALearning(
            view_dims, n_regions, config.d,
            intra_layers=config.intra_layers, inter_layers=config.inter_layers,
            num_heads=config.num_heads, conv_channels=config.conv_channels,
            memory_size=config.memory_size, dropout=config.dropout,
            intra_attention=config.intra_attention,
            inter_attention=config.inter_attention, rng=rng)
        self.fusion = build_fusion(
            config.fusion, config.d, self.n_views, d_prime=config.d_prime,
            num_layers=config.fusion_layers, num_heads=config.num_heads,
            dropout=config.dropout, rng=rng)

        # Loss heads (Sec. IV-C): one feature-oriented MLP per
        # non-mobility view; source/destination MLPs for the mobility view.
        self.feature_heads = ModuleList([
            MLP(config.d, config.d, activation="relu", rng=rng)
            for _ in range(self.n_views)
        ])
        self.source_head = MLP(config.d, config.d, activation="relu", rng=rng)
        self.dest_head = MLP(config.d, config.d, activation="relu", rng=rng)

    # ------------------------------------------------------------------
    def forward(self, views: list[Tensor],
                mask: np.ndarray | None = None) -> Tensor:
        """Compute the (n, d) region embedding matrix H.

        Views may carry a leading batch axis — (b, n, d_j) each — in which
        case H is (b, n, d). ``mask`` is the (…, n) keep mask of the
        batched execution engine (1.0 = real region, 0.0 = padding):
        padded regions are excluded from every attention softmax and
        zeroed between stages so they never contaminate real regions.
        """
        view_embeddings = self.halearning(views, mask=mask)
        if mask is not None:
            # Encoder blocks leave nonzero garbage in padded rows (LayerNorm
            # maps a zero row to its bias); re-zero them so ViewFusion's
            # region sums see exact zeros.
            keep = Tensor(mask[..., None])
            view_embeddings = [z * keep for z in view_embeddings]
        return self.fusion(view_embeddings, mask=mask)

    def loss(self, views: ViewSet) -> Tensor:
        """Multi-task objective L = Σ_j L_j (Sec. IV-C).

        The mobility view gets the KL transition loss (Eq. 9-12) *and*
        the generic similarity loss (Eq. 8) — the paper notes Eq. 8
        "also works" for mobility; using both anchors flow-volume
        structure directly in H, which the KL term alone (being
        normalized per row/column) cannot.
        """
        inputs = [Tensor(m) for m in views.matrices]
        h = self.forward(inputs)
        total = None
        for j in range(self.n_views):
            h_j = self.feature_heads[j](h)
            term = feature_similarity_loss(h_j, views.matrices[j])
            if j == self.mobility_view:
                h_source = self.source_head(h)
                h_dest = self.dest_head(h)
                raw_mobility = views.raw[j] if views.raw is not None else views.matrices[j]
                kl = mobility_kl_loss(h_source, h_dest, raw_mobility,
                                      scale=self.config.mobility_loss_scale)
                term = term + kl * self.config.mobility_kl_weight
            total = term if total is None else total + term
        return total

    def embed(self, views: ViewSet) -> np.ndarray:
        """Inference: frozen embeddings for downstream tasks (the
        model's train/eval mode is left as it was)."""
        with self.evaluating(), no_grad():
            h = self.forward([Tensor(m) for m in views.matrices])
        return h.data.copy()

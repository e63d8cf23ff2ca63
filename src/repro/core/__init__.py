"""``repro.core`` — the paper's contribution: HAFusion.

Modules map one-to-one onto the paper's architecture (Fig. 2):

- :class:`IntraAFL` / :class:`RegionSA` — intra-view learning (Fig. 4);
- :class:`InterAFL` — cross-view external attention (Fig. 5);
- :class:`HALearning` — the hybrid of the two (Eq. 18);
- :class:`ViewFusion` / :class:`RegionFusion` / :class:`DAFusion` —
  dual-feature attentive fusion (Fig. 3, Eq. 1–7);
- :mod:`repro.core.losses` — Eq. 8 and Eq. 9–12 objectives;
- :class:`HAFusion` + :func:`train_hafusion` — the assembled model and
  its full-batch Adam trainer;
- :mod:`repro.core.engine` — batched multi-city execution: one
  vectorized ``(b, n, d)`` pass over a padded+masked stack of cities (or
  region shards of one large city) via :func:`batched_embed` /
  :class:`BatchedTrainer`, parity-locked against the per-city loop.
"""

from .config import HAFusionConfig
from .dafusion import ConcatFusion, DAFusion, SumFusion, build_fusion
from .engine import (
    BatchedEmbedResult,
    BatchedTrainer,
    CityBatch,
    batched_embed,
    build_batched_model,
    compiled_speedup_report,
    engine_speedup_report,
    serving_speedup_report,
    make_batch,
    sequential_embed,
    shard_viewset,
)
from .halearning import HALearning
from .inter_afl import InterAFL
from .intra_afl import IntraAFL, RegionSA
from .losses import (
    batched_feature_similarity_loss,
    batched_mobility_kl_loss,
    feature_similarity_loss,
    mobility_kl_loss,
    mobility_transition_probabilities,
    pad_similarity_targets,
    pad_transition_probabilities,
)
from .model import HAFusion
from .region_fusion import RegionFusion
from .trainer import (
    TrainingHistory,
    compiled_optimizer_step,
    optimizer_step,
    train_hafusion,
    train_model,
)
from .view_fusion import ViewFusion

__all__ = [
    "HAFusionConfig",
    "HAFusion",
    "HALearning",
    "IntraAFL",
    "RegionSA",
    "InterAFL",
    "ViewFusion",
    "RegionFusion",
    "DAFusion",
    "SumFusion",
    "ConcatFusion",
    "build_fusion",
    "feature_similarity_loss",
    "mobility_kl_loss",
    "mobility_transition_probabilities",
    "batched_feature_similarity_loss",
    "batched_mobility_kl_loss",
    "pad_similarity_targets",
    "pad_transition_probabilities",
    "TrainingHistory",
    "train_hafusion",
    "train_model",
    "optimizer_step",
    "compiled_optimizer_step",
    "CityBatch",
    "make_batch",
    "shard_viewset",
    "build_batched_model",
    "BatchedEmbedResult",
    "BatchedTrainer",
    "batched_embed",
    "sequential_embed",
    "engine_speedup_report",
    "compiled_speedup_report",
    "serving_speedup_report",
]

"""Batched multi-city execution engine.

Every module in :mod:`repro.nn` and :mod:`repro.core` accepts a leading
batch axis, so a batch of cities (or region shards of one large city) can
run through HAFusion as a single vectorized numpy pass instead of a
Python-level loop. This module packages that capability:

- :func:`make_batch` pads ragged region counts / view widths with zeros
  and builds the keep mask that excludes padding from every attention
  softmax and loss term;
- :func:`build_batched_model` sizes one shared-weight model for a
  padded batch.  Inference over a batch is
  :class:`repro.serving.EmbeddingService`'s job: ``embed_batch`` runs
  one ``(b, n, d)`` forward pass and ``embed_each`` the per-city loop
  over the identical model, equal to within numerical round-off
  (locked to ≤1e-8 in ``tests/core/test_batched_parity.py``), either
  eagerly or by replaying a forward-only
  :class:`~repro.nn.compile.InferencePlan` from a
  :class:`~repro.nn.plancache.PlanCache`;
- :class:`BatchedTrainer` trains one shared-weight model on a city batch
  under the paper's multi-task objective, averaged over cities;
- :func:`shard_viewset` splits one large city into region shards so its
  quadratic attention cost drops to ``O(n²/b)`` per shard while the batch
  axis keeps the hardware busy.

``benchmarks/test_fig7_scalability.py`` gates the batched pass's speedup
over the per-city loop, and ``benchmarks/test_substrate_micro.py`` the
compiled serving path's over the eager tape (≈2.9x regions/sec on
nyc_360); their payload builders live in ``benchmarks/bench_utils.py``.

Padding exactness: padded feature rows are zero, so they project to zero
scores everywhere a sum crosses regions; attention key masks make padded
softmax weights exactly zero (see ``MASK_NEG`` in
:mod:`repro.nn.functional`); and RegionSA's convolution sees an
exactly-zero boundary outside the real n×n block — the same zero boundary
same-padding convolution applies to an unpadded matrix.  Its pool does
not: one cell past the block the conv output holds the conv bias plus
the real neighbours, so padding changes RegionSA's answer for a city
(every width of at least n_i + 1 gives the same one, up to summation
order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..data.city import SyntheticCity
from ..data.features import ViewSet
from ..nn import Adam, CompiledStep, Tensor
from .config import HAFusionConfig
from .losses import (
    batched_feature_similarity_loss,
    batched_mobility_kl_loss,
    pad_similarity_targets,
    pad_transition_probabilities,
)
from ..train.checkpoint import Checkpointer
from .model import HAFusion
from .trainer import TrainingHistory, optimizer_step, run_training_loop

__all__ = [
    "CityBatch",
    "make_batch",
    "shard_viewset",
    "build_batched_model",
    "BatchedTrainer",
]

CityLike = Union[SyntheticCity, ViewSet]


def _as_viewset(city: CityLike) -> ViewSet:
    return city.views() if isinstance(city, SyntheticCity) else city


def _as_batch(cities: "Sequence[CityLike] | CityBatch") -> "CityBatch":
    return cities if isinstance(cities, CityBatch) else make_batch(cities)


@dataclass
class CityBatch:
    """A padded stack of per-city view sets plus its keep mask.

    Attributes
    ----------
    view_names:
        Shared view ordering, e.g. ``("mobility", "poi", "landuse")``.
    matrices:
        One ``(b, n_max, d_j)`` zero-padded array per view.
    mask:
        ``(b, n_max)`` keep mask: 1.0 for real regions, 0.0 for padding.
    view_sets:
        The original (unpadded) per-city view sets, kept for the loss
        targets and for cropping results back to each city's size.
    """

    view_names: tuple[str, ...]
    matrices: list[np.ndarray]
    mask: np.ndarray
    view_sets: list[ViewSet]

    @property
    def batch_size(self) -> int:
        return self.mask.shape[0]

    @property
    def n_max(self) -> int:
        return self.mask.shape[1]

    @property
    def n_regions(self) -> list[int]:
        return [vs.n_regions for vs in self.view_sets]

    @property
    def view_dims(self) -> list[int]:
        """Padded per-view input widths the shared model is built with."""
        return [m.shape[-1] for m in self.matrices]

    @property
    def is_padded(self) -> bool:
        """Whether any city needed padding (regions or view widths)."""
        return bool((self.mask == 0.0).any()) or any(
            vs.dims() != self.view_dims for vs in self.view_sets)

    def forward_mask(self) -> np.ndarray | None:
        """Mask to pass to the model — None when nothing is padded, which
        keeps the unpadded fast path free of masking arithmetic."""
        return self.mask if self.is_padded else None

    def select(self, indices: Sequence[int]) -> "CityBatch":
        """Sub-batch of the given cities, keeping this batch's padded
        layout (n_max and view widths) so it stays compatible with a
        model built for the full batch."""
        indices = list(indices)
        return CityBatch(
            view_names=self.view_names,
            matrices=[m[indices] for m in self.matrices],
            mask=self.mask[indices],
            view_sets=[self.view_sets[i] for i in indices],
        )


def make_batch(cities: Sequence[CityLike], n_max: int | None = None,
               view_dims: Sequence[int] | None = None) -> CityBatch:
    """Stack cities into one padded batch (ragged n and view widths ok).

    ``n_max`` / ``view_dims`` force the padded layout instead of using
    the batch's own maxima.  The serving service pads each flush to the
    model's view widths and to ``min(model n_max, widest + 1)`` regions
    — one padding column past the widest city, which RegionSA's pool
    needs (see :class:`repro.core.intra_afl.RegionSA`) — so a recurring
    co-batch composition recurs as the same shapes and compiled-plan
    cache key.
    """
    view_sets = [_as_viewset(city) for city in cities]
    if not view_sets:
        raise ValueError("need at least one city")
    names = view_sets[0].names
    for vs in view_sets[1:]:
        if vs.names != names:
            raise ValueError(f"cities disagree on views: {vs.names} vs {names}")
    batch = len(view_sets)
    widest = max(vs.n_regions for vs in view_sets)
    if n_max is None:
        n_max = widest
    elif n_max < widest:
        raise ValueError(f"n_max={n_max} below the widest city ({widest})")
    mask = np.zeros((batch, n_max))
    for i, vs in enumerate(view_sets):
        mask[i, :vs.n_regions] = 1.0
    matrices: list[np.ndarray] = []
    for j in range(len(names)):
        d_max = max(vs.matrices[j].shape[1] for vs in view_sets)
        if view_dims is not None:
            if view_dims[j] < d_max:
                raise ValueError(f"view_dims[{j}]={view_dims[j]} below the "
                                 f"widest view ({d_max})")
            d_max = view_dims[j]
        stacked = np.zeros((batch, n_max, d_max))
        for i, vs in enumerate(view_sets):
            m = vs.matrices[j]
            stacked[i, :m.shape[0], :m.shape[1]] = m
        matrices.append(stacked)
    return CityBatch(view_names=names, matrices=matrices, mask=mask,
                     view_sets=view_sets)


def shard_viewset(views: ViewSet, num_shards: int) -> list[ViewSet]:
    """Split one city's regions into contiguous shards.

    Each shard keeps the full view widths (a mobility feature row still
    describes flows to/from *all* regions), so all shards share one model
    and stack without padding when ``n`` divides evenly. Shards drop the
    raw square mobility matrix — the KL loss needs the full city, so
    sharded batches train with the feature-similarity objective only.
    """
    if not 1 <= num_shards <= views.n_regions:
        raise ValueError(f"num_shards must be in [1, {views.n_regions}], got {num_shards}")
    bounds = np.linspace(0, views.n_regions, num_shards + 1).astype(int)
    return [
        ViewSet(names=views.names,
                matrices=[m[start:stop] for m in views.matrices])
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def build_batched_model(batch: CityBatch, config: HAFusionConfig | None = None,
                        seed: int = 0) -> HAFusion:
    """One shared-weight HAFusion sized for the padded batch."""
    config = config if config is not None else HAFusionConfig()
    mobility_view = (batch.view_names.index("mobility")
                     if "mobility" in batch.view_names else None)
    return HAFusion(batch.view_dims, batch.n_max, config,
                    mobility_view=mobility_view,
                    rng=np.random.default_rng(seed))


class BatchedTrainer:
    """Full-batch Adam training of one shared model on a city batch.

    The objective is the mean over cities of the paper's per-city
    multi-task loss (Sec. IV-C): every view contributes the Eq. 8
    similarity term, and the mobility view additionally contributes the
    Eq. 9–12 KL term whenever the batch carries raw square OD matrices
    (region shards drop them — see :func:`shard_viewset`).
    """

    def __init__(self, cities: "Sequence[CityLike] | CityBatch",
                 config: HAFusionConfig | None = None, seed: int = 0,
                 model: HAFusion | None = None, compiled: bool = False):
        self.batch = _as_batch(cities)
        self.config = config if config is not None else HAFusionConfig()
        self.model = model if model is not None else build_batched_model(
            self.batch, self.config, seed)
        self.optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        self._inputs = [Tensor(m) for m in self.batch.matrices]
        self._mobility_view = self.model.mobility_view
        # Loss targets are constant w.r.t. the model — build them once
        # here instead of on every training step.
        self._targets = [
            pad_similarity_targets([vs.matrices[j] for vs in self.batch.view_sets],
                                   self.batch.n_max)
            for j in range(len(self.batch.view_names))
        ]
        self._mobilities = None
        if self._mobility_view is not None:
            # Mirror HAFusion.loss: prefer each city's raw OD matrix,
            # fall back to the normalized mobility view. The KL term
            # needs a square matrix, which region shards don't have —
            # they train with the similarity objective only.
            j = self._mobility_view
            candidates = [vs.raw[j] if vs.raw is not None else vs.matrices[j]
                          for vs in self.batch.view_sets]
            if all(m.shape[0] == m.shape[1] for m in candidates):
                self._mobilities = candidates
        self._use_kl = self._mobilities is not None
        self._mobility_probs = (
            pad_transition_probabilities(self._mobilities, self.batch.n_max)
            if self._use_kl else None)
        # Record-once/replay-many executor: the batch layout is fixed at
        # construction, so one plan covers the whole training run.  The
        # optimizer is folded into the plan — clip + Adam update replay
        # as plan kernels after the backward list.
        self._compiled_step = CompiledStep(
            self.loss,
            signature_fn=lambda: tuple(m.shape for m in self.batch.matrices),
            optimizer=self.optimizer, grad_clip=self.config.grad_clip
        ) if compiled else None

    def loss(self) -> Tensor:
        """Masked multi-view objective over the whole batch."""
        batch, model = self.batch, self.model
        h = model.forward(self._inputs, mask=batch.forward_mask())
        total = None
        for j in range(len(batch.view_names)):
            h_j = model.feature_heads[j](h)
            features = [vs.matrices[j] for vs in batch.view_sets]
            term = batched_feature_similarity_loss(h_j, features, batch.mask,
                                                   targets=self._targets[j])
            if j == self._mobility_view and self._use_kl:
                kl = batched_mobility_kl_loss(
                    model.source_head(h), model.dest_head(h), self._mobilities,
                    batch.mask, scale=self.config.mobility_loss_scale,
                    probabilities=self._mobility_probs)
                term = term + kl * self.config.mobility_kl_weight
            total = term if total is None else total + term
        return total

    def step(self) -> float:
        """One optimizer step; returns the pre-step loss."""
        if self._compiled_step is not None:
            # Clip + update are folded into the plan's kernel list.
            return self._compiled_step.run()
        return optimizer_step(self.optimizer, self.loss,
                              self.model.parameters(), self.config.grad_clip)

    def train(self, epochs: int | None = None, log_every: int = 0,
              checkpoint_dir=None, checkpoint_every: int = 0,
              resume: bool = False, checkpoint_keep: int = 3,
              fault_plan=None,
              check_numerics: bool = True) -> TrainingHistory:
        """Train the shared model; crash-safe when ``checkpoint_dir`` is
        given (same contract as :func:`~repro.core.trainer.train_model`:
        atomic checkpoints every ``checkpoint_every`` epochs, ``resume=True``
        continues bit-identically from the newest intact one)."""
        epochs = epochs if epochs is not None else self.config.epochs
        checkpointer = None
        history = None
        if checkpoint_dir is not None:
            checkpointer = Checkpointer(self.model, self.optimizer,
                                        checkpoint_dir,
                                        every=checkpoint_every,
                                        keep=checkpoint_keep,
                                        fault_plan=fault_plan)
            if resume:
                history = checkpointer.resume()
        elif resume:
            raise ValueError("resume=True requires checkpoint_dir")
        if (self._compiled_step is not None and history is not None
                and history.losses and len(history.losses) < epochs):
            # Warm-record + rewind (see train_model): the resumed epoch
            # must execute as a plan replay, not the recording step.
            self._compiled_step.run()
            checkpointer.rewind()
        named = (list(self.model.named_parameters())
                 if check_numerics else None)
        return run_training_loop(self.step, epochs, log_every=log_every,
                                 history=history, checkpointer=checkpointer,
                                 fault_plan=fault_plan,
                                 named_parameters=named,
                                 check_numerics=check_numerics)

    def embed(self) -> list[np.ndarray]:
        """Frozen per-city embeddings from the shared model."""
        from ..serving import EmbeddingService
        return EmbeddingService(self.model, compiled=False).embed_batch(
            self.batch)

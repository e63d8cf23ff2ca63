"""Batched multi-city execution engine.

Every module in :mod:`repro.nn` and :mod:`repro.core` accepts a leading
batch axis, so a batch of cities (or region shards of one large city) can
run through HAFusion as a single vectorized numpy pass instead of a
Python-level loop. This module packages that capability:

- :func:`make_batch` pads ragged region counts / view widths with zeros
  and builds the keep mask that excludes padding from every attention
  softmax and loss term;
- :func:`batched_embed` / :func:`sequential_embed` run inference for a
  city batch through one ``(b, n, d)`` forward pass vs. a per-city loop
  over the identical model — the two produce embeddings equal to within
  numerical round-off (locked to ≤1e-8 in ``tests/core/test_batched_parity.py``).
  Both are **deprecated shims** over
  :class:`repro.serving.EmbeddingService` — the unified serving facade
  that adds request scheduling, warm-up packs and provenance on the
  same code path.  With ``compiled=True`` they serve through a
  forward-only :class:`~repro.nn.compile.InferencePlan` fetched from a
  :class:`~repro.nn.plancache.PlanCache` — record once (or relower a
  cached spec), then replay flat numpy kernels over pooled buffers for
  every same-shaped request (:func:`serving_speedup_report` measures
  ≈2.9x regions/sec over the eager tape on nyc_360);
- :class:`BatchedTrainer` trains one shared-weight model on a city batch
  under the paper's multi-task objective, averaged over cities;
- :func:`shard_viewset` splits one large city into region shards so its
  quadratic attention cost drops to ``O(n²/b)`` per shard while the batch
  axis keeps the hardware busy;
- :func:`engine_speedup_report` measures batched-vs-sequential speedup
  and parity (recorded by ``benchmarks/test_fig7_scalability.py``).

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

import time
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..data.city import SyntheticCity
from ..data.features import ViewSet
from ..nn import Adam, CompiledStep, Tensor
from ..nn.plancache import PlanCache, default_plan_cache
from .config import HAFusionConfig
from .losses import (
    batched_feature_similarity_loss,
    batched_mobility_kl_loss,
    pad_similarity_targets,
    pad_transition_probabilities,
)
from ..train.checkpoint import Checkpointer
from .model import HAFusion
from .trainer import (
    TrainingHistory,
    compiled_optimizer_step,
    optimizer_step,
    run_training_loop,
)

__all__ = [
    "CityBatch",
    "make_batch",
    "shard_viewset",
    "build_batched_model",
    "BatchedEmbedResult",
    "batched_embed",
    "sequential_embed",
    "BatchedTrainer",
    "engine_speedup_report",
    "compiled_speedup_report",
    "serving_speedup_report",
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


@dataclass
class BatchedEmbedResult:
    """Per-city embeddings plus timing for one engine inference pass."""

    embeddings: list[np.ndarray]
    seconds: float
    batch_size: int
    n_max: int


@dataclass(frozen=True)
class _EmbedOptions:
    """The one shared option set of :func:`batched_embed` and
    :func:`sequential_embed` — both shims build it positionally from an
    identical signature, so the two can never drift apart again (locked
    by ``tests/serving/test_service.py::test_shim_signatures_identical``).
    """

    config: HAFusionConfig | None = None
    seed: int = 0
    model: HAFusion | None = None
    compiled: bool = False
    plan_cache: PlanCache | None = None

    def service(self, batch: CityBatch):
        """The :class:`~repro.serving.EmbeddingService` serving these
        options (building the shared model when none was given)."""
        from ..serving import EmbeddingService
        model = (self.model if self.model is not None
                 else build_batched_model(batch, self.config, self.seed))
        cache = (self.plan_cache if self.plan_cache is not None
                 else default_plan_cache())
        return EmbeddingService(model, n_max=batch.n_max,
                                view_dims=batch.view_dims,
                                compiled=self.compiled, plan_cache=cache)


def _embed_via_service(cities: "Sequence[CityLike] | CityBatch",
                       options: _EmbedOptions,
                       sequential: bool) -> BatchedEmbedResult:
    batch = _as_batch(cities)
    service = options.service(batch)
    start = time.perf_counter()
    embeddings = (service.embed_each(batch) if sequential
                  else service.embed_batch(batch))
    return BatchedEmbedResult(embeddings, time.perf_counter() - start,
                              batch.batch_size, batch.n_max)


def _serving_plan(model: HAFusion, matrices: list[np.ndarray],
                  mask: np.ndarray | None, cache: PlanCache, tag: str):
    """Back-compat alias: fetch (or record) the forward-only plan for one
    request shape through a throwaway service (the logic lives in
    :meth:`repro.serving.EmbeddingService._plan` now)."""
    from ..serving import EmbeddingService
    return EmbeddingService(model, plan_cache=cache)._plan(matrices, mask, tag)


def batched_embed(cities: "Sequence[CityLike] | CityBatch",
                  config: HAFusionConfig | None = None, seed: int = 0,
                  model: HAFusion | None = None, compiled: bool = False,
                  plan_cache: PlanCache | None = None) -> BatchedEmbedResult:
    """Embed a batch of cities in one vectorized forward pass.

    .. deprecated::
        Thin shim over :meth:`repro.serving.EmbeddingService.embed_batch`
        — the unified serving path every embed request flows through.
        New code should construct an :class:`~repro.serving.EmbeddingService`
        (which adds request scheduling, warm-up packs and provenance).

    ``cities`` may be raw cities/view sets or a prebuilt :class:`CityBatch`.
    Builds (or reuses) one shared-weight model over the padded batch and
    runs inference under ``no_grad``; results are cropped back to each
    city's real region count.

    ``compiled=True`` serves through a forward-only
    :class:`~repro.nn.compile.InferencePlan`: the first request for a
    (config, shapes, dtype, mask) signature records the pass once (or
    relowers a cached spec — see :mod:`repro.nn.plancache`), every later
    request replays flat numpy kernels over pooled buffers.
    ``plan_cache`` defaults to the process-wide cache
    (``REPRO_PLAN_CACHE_DIR`` enables on-disk persistence).
    """
    return _embed_via_service(
        cities, _EmbedOptions(config, seed, model, compiled, plan_cache),
        sequential=False)


def sequential_embed(cities: "Sequence[CityLike] | CityBatch",
                     config: HAFusionConfig | None = None, seed: int = 0,
                     model: HAFusion | None = None, compiled: bool = False,
                     plan_cache: PlanCache | None = None) -> BatchedEmbedResult:
    """Reference per-city loop over the identical shared model.

    .. deprecated::
        Thin shim over :meth:`repro.serving.EmbeddingService.embed_each`
        (see :func:`batched_embed`); kept as the parity/baseline twin.

    Same padding, same mask, same weights — just one city at a time.
    ``compiled=True`` replays a per-item-shape inference plan instead of
    the eager tape; unpadded batches share one plan across cities, while
    a ragged batch holds one plan per distinct mask pattern — for very
    wide ragged batches pass a ``plan_cache`` whose capacity exceeds the
    number of distinct masks, or the LRU re-records on every pass.
    """
    return _embed_via_service(
        cities, _EmbedOptions(config, seed, model, compiled, plan_cache),
        sequential=True)


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


def engine_speedup_report(cities: "Sequence[CityLike] | CityBatch",
                          config: HAFusionConfig | None = None, seed: int = 0,
                          repeats: int = 3) -> dict:
    """Time batched vs. sequential inference over the same shared model.

    Returns a JSON-ready dict with the best-of-``repeats`` wall-clock of
    each path, their speedup, and the max absolute embedding difference —
    the number the fig7 benchmark records and asserts on.
    """
    from ..serving import EmbeddingService
    batch = _as_batch(cities)
    model = build_batched_model(batch, config, seed)
    service = EmbeddingService(model, compiled=False)
    # Warm-up (first call pays numpy/BLAS setup) + parity check.
    batched = service.embed_batch(batch)
    sequential = service.embed_each(batch)
    max_abs_diff = max(float(np.abs(b - s).max())
                       for b, s in zip(batched, sequential))
    batched_seconds = min(
        _timed(service.embed_batch, batch) for _ in range(repeats))
    sequential_seconds = min(
        _timed(service.embed_each, batch) for _ in range(repeats))
    return {
        "batch_size": batch.batch_size,
        "n_max": batch.n_max,
        "n_regions": batch.n_regions,
        "padded": batch.is_padded,
        "repeats": repeats,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "max_abs_diff": max_abs_diff,
    }


def _timed(func, *args) -> float:
    start = time.perf_counter()
    func(*args)
    return time.perf_counter() - start


def compiled_speedup_report(city: CityLike,
                            config: HAFusionConfig | None = None,
                            seed: int = 7, epochs: int = 4) -> dict:
    """Time eager vs compiled training steps on identical twin models.

    Two models are built from the same seed (identical weights and rng
    streams); one trains eagerly, the other through the compiled
    record/replay executor.  Per-epoch wall-clock is measured for both
    (the compiled side's recording epoch is reported separately — the
    speedup compares an eager step against a plan *replay*), together
    with the per-epoch loss differences and the final-embedding max
    absolute difference.  This is the JSON payload the substrate
    benchmark records and gates (≥2x, ≤1e-8 in float64);
    ``top_kernels`` are the five hottest kernels of a
    :meth:`~repro.nn.compile.Plan.profile` taken after all timing.
    """
    if epochs < 2:
        raise ValueError(f"epochs must be >= 2 (the first compiled epoch "
                         f"records; at least one replay is timed), got {epochs}")
    views = _as_viewset(city)
    config = config if config is not None else HAFusionConfig()
    mobility_view = (views.names.index("mobility")
                     if "mobility" in views.names else None)

    def build() -> HAFusion:
        return HAFusion(views.dims(), views.n_regions, config,
                        mobility_view=mobility_view,
                        rng=np.random.default_rng(seed))

    eager_model = build()
    parameters = eager_model.parameters()
    optimizer = Adam(parameters, lr=config.lr)
    eager_losses, eager_times = [], []
    for _ in range(epochs):
        start = time.perf_counter()
        eager_losses.append(optimizer_step(
            optimizer, lambda: eager_model.loss(views), parameters,
            config.grad_clip))
        eager_times.append(time.perf_counter() - start)

    compiled_model = build()
    parameters = compiled_model.parameters()
    optimizer = Adam(parameters, lr=config.lr)
    step = CompiledStep(lambda: compiled_model.loss(views))
    compiled_losses, replay_times = [], []
    start = time.perf_counter()
    compiled_losses.append(compiled_optimizer_step(
        optimizer, step, parameters, config.grad_clip))
    record_seconds = time.perf_counter() - start
    for _ in range(epochs - 1):
        start = time.perf_counter()
        compiled_losses.append(compiled_optimizer_step(
            optimizer, step, parameters, config.grad_clip))
        replay_times.append(time.perf_counter() - start)

    max_loss_diff = max(abs(e - c)
                        for e, c in zip(eager_losses, compiled_losses))
    embedding_diff = float(np.abs(eager_model.embed(views)
                                  - compiled_model.embed(views)).max())
    eager_seconds = min(eager_times)
    compiled_seconds = min(replay_times)
    plan = step.plan
    buffers = plan.buffer_report()
    # Last: the profile replays update the gradient buffers, which is
    # fine only because every comparison has already been taken.
    prof = plan.profile(replays=3)
    return {
        "grad_buffer_bytes": buffers["grad_buffer_bytes"],
        "grad_buffer_bytes_unpooled": buffers["grad_buffer_bytes_unpooled"],
        "grad_buffer_reduction": buffers["grad_buffer_reduction"],
        "city": getattr(city, "name", "viewset"),
        "n_regions": views.n_regions,
        "epochs": epochs,
        "plan_forward_ops": plan.num_forward_ops,
        "plan_backward_ops": plan.num_backward_ops,
        "record_seconds": record_seconds,
        "eager_seconds_per_epoch": eager_seconds,
        "compiled_seconds_per_epoch": compiled_seconds,
        "speedup": eager_seconds / compiled_seconds,
        "max_loss_diff": max_loss_diff,
        "final_embedding_max_abs_diff": embedding_diff,
        "top_kernels": prof["top_kernels"],
    }


def serving_speedup_report(cities: "Sequence[CityLike] | CityBatch",
                           config: HAFusionConfig | None = None,
                           seed: int = 7, repeats: int = 5,
                           plan_cache: PlanCache | None = None) -> dict:
    """Time eager vs compiled ``batched_embed`` over one shared model.

    The serving scenario of the ROADMAP north star: a fixed model answers
    repeated embed requests of one shape.  The eager side rebuilds the
    Python tape per request; the compiled side replays the cached
    :class:`~repro.nn.compile.InferencePlan` (the one record epoch is
    reported separately and excluded from the replay timing, exactly as
    a warm server would run).  Reports best-of-``repeats`` wall-clocks,
    regions/sec for both paths, max absolute embedding difference, and
    the plan's activation-pool byte accounting — the JSON payload the
    substrate benchmark records and gates (≥2x, ≤1e-8 in float64).
    """
    from ..serving import EmbeddingService
    batch = _as_batch(cities)
    model = build_batched_model(batch, config, seed)
    cache = plan_cache if plan_cache is not None else PlanCache()
    service = EmbeddingService(model, plan_cache=cache)
    # Warm-up (numpy/BLAS setup + the record epoch) and parity check.
    eager = service.embed_batch(batch, compiled=False)
    start = time.perf_counter()
    compiled = service.embed_batch(batch, compiled=True)
    record_seconds = time.perf_counter() - start
    max_abs_diff = max(float(np.abs(e - c).max())
                       for e, c in zip(eager, compiled))
    eager_seconds = min(
        _timed(service.embed_batch, batch, False) for _ in range(repeats))
    compiled_seconds = min(
        _timed(service.embed_batch, batch, True) for _ in range(repeats))
    plan = service.plan_for(batch)
    buffers = plan.buffer_report()
    total_regions = sum(batch.n_regions)
    return {
        "batch_size": batch.batch_size,
        "n_max": batch.n_max,
        "n_regions_total": total_regions,
        "padded": batch.is_padded,
        "repeats": repeats,
        "record_seconds": record_seconds,
        "eager_seconds": eager_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup": eager_seconds / compiled_seconds,
        "eager_regions_per_sec": total_regions / eager_seconds,
        "compiled_regions_per_sec": total_regions / compiled_seconds,
        "max_abs_diff": max_abs_diff,
        "plan_forward_ops": plan.num_forward_ops,
        "plan_fused_chains": plan.num_fused_chains,
        "slot_bytes": buffers["slot_bytes"],
        "slot_bytes_unpooled": buffers["slot_bytes_unpooled"],
        "slot_reduction": buffers["slot_reduction"],
        "cache_stats": cache.stats(),
    }

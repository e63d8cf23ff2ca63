"""EmbeddingService — the unified serving facade.

One service owns one shared-weight :class:`~repro.core.model.HAFusion`
and one :class:`~repro.nn.plancache.PlanCache`, and every embedding the
repo produces flows through its single batch code path:

- :meth:`embed_batch` runs one padded :class:`~repro.core.engine.CityBatch`
  through the model as a single ``(b, n, d)`` pass, eagerly or by
  replaying a compiled :class:`~repro.nn.compile.InferencePlan` fetched
  from the plan cache (the code path the deprecated
  :func:`repro.core.engine.batched_embed` shim delegates to);
- :meth:`embed_each` is its per-city parity twin (the
  ``sequential_embed`` shim);
- :meth:`submit` / :meth:`poll` / :meth:`flush` queue typed
  :class:`~repro.serving.api.EmbedRequest`\\ s through the
  :class:`~repro.serving.scheduler.ShapeBucketScheduler`, co-batching
  compatible requests per the flush policy and answering each with an
  :class:`~repro.serving.api.EmbedResponse` carrying plan-cache and
  padding provenance;
- :meth:`warm` pre-records the plan for one ``(batch_size, n_regions)``
  serving shape — the primitive :class:`~repro.serving.warmup.WarmupPack`
  builds deploy-time warm-up grids from;
- :meth:`stats` reports per-bucket throughput, padding overhead, plan
  cache hit rates and resident-plan replay counts.

The service is synchronous: there is no background thread, so
time-based (``max_wait``) flushes happen at ``submit``/``poll`` call
boundaries.  Plans stay *resident* for the service's lifetime — the
long-lived process the ROADMAP asks for is simply a process that keeps
one ``EmbeddingService`` alive across requests.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Sequence

import numpy as np

from ..core.config import HAFusionConfig
from ..core.model import HAFusion
from ..nn import Tensor, get_default_dtype, no_grad
from ..nn.compile import InferencePlan, record_forward
from ..nn.plancache import PlanCache, default_plan_cache, inference_plan_key
from .api import (
    AdmissionError,
    EmbedRequest,
    EmbedResponse,
    EmbedTicket,
    FlushPolicy,
)
from .scheduler import BucketKey, ShapeBucketScheduler

__all__ = ["EmbeddingService"]


def _infer_capacity(model: HAFusion) -> tuple[int | None, list[int]]:
    """Read the (n_max, view_dims) capacity off a model's weights.

    ``n_max`` is RegionSA's construction-time attention width: the
    service's capacity, i.e. the widest batch it can run (narrower
    flushes use the first columns of the correlation MLP).  A model
    built with vanilla intra attention has no width constraint and
    returns ``None`` (the caller must then pass ``n_max`` explicitly to
    use the scheduler).
    """
    view_dims = [intra.input_projection.in_features
                 for intra in model.halearning.intra]
    n_max = None
    for intra in model.halearning.intra:
        for block in intra.blocks:
            n = getattr(block.attention, "n_regions", None)
            if n is not None:
                n_max = int(n)
                break
        if n_max is not None:
            break
    return n_max, view_dims


class _BucketStats:
    """Mutable per-bucket counters behind :meth:`EmbeddingService.stats`."""

    def __init__(self):
        self.requests = 0
        self.batches = 0
        self.regions = 0
        self.slots = 0           # b * w per flush (w: its width), summed
        self.seconds = 0.0
        self.plan_events: dict[str, int] = {}

    def report(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "regions": self.regions,
            "padding_overhead": (1.0 - self.regions / self.slots
                                 if self.slots else 0.0),
            "seconds": self.seconds,
            "regions_per_sec": (self.regions / self.seconds
                                if self.seconds > 0 else 0.0),
            "plan_events": dict(self.plan_events),
        }


class EmbeddingService:
    """Serving facade over one model + one plan cache (module docstring).

    Parameters
    ----------
    model:
        The shared-weight :class:`HAFusion` answering every request.
    n_max, view_dims, view_names:
        The service's request capacity — the widest batch it runs and
        the view widths every batch is padded to.  A scheduler flush is
        padded to ``min(n_max, max n_i + 1)`` regions (see
        :mod:`repro.serving.scheduler`).  Inferred from the model's
        weights when omitted (``view_names`` then defaults to the
        request traffic's names).
    compiled:
        Serve through cached :class:`InferencePlan` replays (default) or
        the eager tape (``False`` — the debugging escape hatch).
    plan_cache:
        Defaults to the process-wide cache
        (:func:`repro.nn.plancache.default_plan_cache`), which persists
        specs on disk when ``REPRO_PLAN_CACHE_DIR`` is set.
    policy:
        :class:`FlushPolicy` for the shape-bucket scheduler.
    clock:
        The service's monotonic time source (default
        ``time.monotonic``).  *One* clock drives everything time-shaped
        — ticket ``submitted_at``, age-based flush decisions and the
        responses' ``wait_seconds`` provenance — so tests and replay
        harnesses can inject a deterministic clock (or pass ``now=`` per
        call) without the wait accounting silently falling back to the
        real clock.
    flush_log_cap:
        Retained :attr:`flush_log` entries (a bounded deque; the
        oldest entries are dropped under sustained traffic and counted
        in ``stats()["flush_log_dropped"]``).
    max_tracked_buckets:
        Distinct bucket ids with individual ``stats()`` counters;
        traffic beyond the cap is rolled into an ``"(overflow)"``
        bucket so adversarial dtype/shape churn cannot grow the stats
        map without bound.
    """

    #: Rollup bucket id for per-bucket stats beyond ``max_tracked_buckets``.
    OVERFLOW_BUCKET = "(overflow)"

    def __init__(self, model: HAFusion, *, n_max: int | None = None,
                 view_dims: Sequence[int] | None = None,
                 view_names: Sequence[str] | None = None,
                 compiled: bool = True,
                 plan_cache: PlanCache | None = None,
                 policy: FlushPolicy | None = None,
                 clock: Callable[[], float] | None = None,
                 flush_log_cap: int = 1024,
                 max_tracked_buckets: int = 64):
        inferred_n, inferred_dims = _infer_capacity(model)
        self.model = model
        self.n_max = int(n_max) if n_max is not None else inferred_n
        self.view_dims = (list(view_dims) if view_dims is not None
                          else inferred_dims)
        self.view_names = tuple(view_names) if view_names is not None else None
        self.compiled = compiled
        self.plan_cache = (plan_cache if plan_cache is not None
                           else default_plan_cache())
        self.policy = policy if policy is not None else FlushPolicy()
        self.clock = clock if clock is not None else time.monotonic
        if flush_log_cap < 1:
            raise ValueError(f"flush_log_cap must be >= 1, "
                             f"got {flush_log_cap}")
        if max_tracked_buckets < 1:
            raise ValueError(f"max_tracked_buckets must be >= 1, "
                             f"got {max_tracked_buckets}")
        self.max_tracked_buckets = max_tracked_buckets
        self._scheduler: ShapeBucketScheduler | None = None
        self._bucket_stats: dict[str, _BucketStats] = {}
        self._overflow_flushes = 0
        self._submitted = 0
        self._answered = 0
        #: One entry per scheduler flush (bucket id, batch size, per-row
        #: region counts, plan event, monotone ``seq``) — the exact
        #: compositions served, which is what :meth:`WarmupPack.build`
        #: snapshots from a traffic sample.  Bounded: the oldest entries
        #: fall off after ``flush_log_cap`` flushes.
        self.flush_log: deque[dict] = deque(maxlen=flush_log_cap)
        self._flush_seq = 0

    @classmethod
    def build(cls, cities, config: HAFusionConfig | None = None,
              seed: int = 0, **kwargs) -> "EmbeddingService":
        """Size a fresh shared model for a sample of the expected traffic
        (the padded batch over ``cities``) and wrap it in a service."""
        from ..core.engine import build_batched_model, make_batch
        batch = make_batch(cities)
        model = build_batched_model(batch, config, seed)
        return cls(model, n_max=batch.n_max, view_dims=batch.view_dims,
                   view_names=batch.view_names, **kwargs)

    # ------------------------------------------------------------------
    # The single batch code path
    # ------------------------------------------------------------------
    def _plan(self, matrices: list[np.ndarray], mask: np.ndarray | None,
              tag: str) -> InferencePlan:
        """Fetch (or record) the forward-only plan for one batch shape.

        The cache key carries everything that changes the lowered
        program: config digest, input shapes, compute dtype and the mask
        contents (masks are baked into the plan as constants).
        Parameter *values* are rebound, so one spec serves every model
        of this architecture.
        """
        model = self.model
        params = model.parameters()
        key = inference_plan_key(
            model.config, [m.shape for m in matrices], get_default_dtype(),
            mask, extra=(tag, str(params[0].dtype) if params else "none"))

        def record():
            was_training = model.training
            model.eval()
            # Private slot copies: run() refills these per request, so
            # they must never alias the caller's arrays.
            slots = [Tensor(np.array(m, dtype=get_default_dtype()))
                     for m in matrices]
            with no_grad():
                output, nodes = record_forward(
                    lambda: model.forward(slots, mask=mask))
            model.train(was_training)
            return output, nodes, slots

        return self.plan_cache.get(key, params, record)

    def _plan_event(self, before: dict, after: dict) -> str:
        for field, event in (("misses", "record"), ("disk_hits", "disk"),
                             ("spec_hits", "spec"), ("hits", "hit")):
            if after[field] > before[field]:
                return event
        return "hit"

    def _run_batch(self, batch, compiled: bool | None,
                   tag: str = "batched_embed") -> tuple[list[np.ndarray], str]:
        """One fused ``(b, n, d)`` pass; returns (per-city crops, event)."""
        compiled = self.compiled if compiled is None else compiled
        if not compiled:
            model = self.model
            was_training = model.training
            model.eval()
            with no_grad():
                h = model.forward([Tensor(m) for m in batch.matrices],
                                  mask=batch.forward_mask())
            model.train(was_training)
            return self._crop(h.data, batch), "eager"
        before = self.plan_cache.stats()
        plan = self._plan(batch.matrices, batch.forward_mask(), tag)
        event = self._plan_event(before, self.plan_cache.stats())
        return self._crop(plan.run(batch.matrices), batch), event

    @staticmethod
    def _crop(h: np.ndarray, batch) -> list[np.ndarray]:
        """Per-city **views** into the batch output.

        On the compiled path ``h`` is the resident
        :class:`InferencePlan`'s output buffer, silently overwritten by
        the next replay — so every egress point (:meth:`embed_batch`,
        :meth:`_flush_bucket`) must detach with exactly one copy before
        an array leaves the service.  Cropping lazily keeps that copy
        single: a dtype-converting or region-subset egress pays only its
        own copy, never a second one here.
        """
        return [h[i, :n] for i, n in enumerate(batch.n_regions)]

    @staticmethod
    def _detach(h: np.ndarray, request: EmbedRequest) -> np.ndarray:
        """Detach one response from the plan-owned batch output.

        Applies the request's region subset and dtype with exactly one
        copy, and **never** returns a view into the resident plan's
        output buffer — ``astype(..., copy=False)`` here was the
        aliasing trap: a same-dtype request would have handed the caller
        a window the next replay overwrites.
        """
        owned = False
        if request.region_subset is not None:
            h = h[request.region_subset]          # fancy indexing copies
            owned = True
        if request.dtype is not None and h.dtype != request.dtype:
            h = h.astype(request.dtype)           # dtype change copies
            owned = True
        return h if owned else h.copy()

    def embed_batch(self, batch, compiled: bool | None = None) -> list[np.ndarray]:
        """Embed a prebuilt :class:`CityBatch` in one vectorized pass,
        cropped back to each city's real region count."""
        return [h.copy() for h in self._run_batch(batch, compiled)[0]]

    def embed_each(self, batch, compiled: bool | None = None) -> list[np.ndarray]:
        """Per-city loop over the identical model — the parity/baseline
        twin of :meth:`embed_batch` (same padding, same mask, same
        weights, one city at a time)."""
        compiled = self.compiled if compiled is None else compiled
        mask = batch.forward_mask()
        if not compiled:
            model = self.model
            was_training = model.training
            model.eval()
            outputs = []
            with no_grad():
                for i in range(batch.batch_size):
                    inputs = [Tensor(m[i:i + 1]) for m in batch.matrices]
                    item_mask = None if mask is None else mask[i:i + 1]
                    h = model.forward(inputs, mask=item_mask)
                    outputs.append(h.data[0, :batch.n_regions[i]].copy())
            model.train(was_training)
            return outputs
        outputs = []
        for i in range(batch.batch_size):
            item_mats = [m[i:i + 1] for m in batch.matrices]
            item_mask = None if mask is None else mask[i:i + 1]
            # Unpadded batches share one plan across all cities
            # (mask=None); ragged ones get one plan per distinct mask.
            plan = self._plan(item_mats, item_mask, "sequential_embed")
            h = plan.run(item_mats)
            outputs.append(h[0, :batch.n_regions[i]].copy())
        return outputs

    def plan_for(self, batch) -> InferencePlan:
        """The resident plan serving this batch shape (records on a cold
        cache) — the introspection hook behind the serving reports."""
        return self._plan(batch.matrices, batch.forward_mask(),
                          "batched_embed")

    # ------------------------------------------------------------------
    # Request scheduling
    # ------------------------------------------------------------------
    def _require_scheduler(self) -> ShapeBucketScheduler:
        if self._scheduler is None:
            if self.n_max is None:
                raise ValueError(
                    "service capacity unknown: pass n_max= (the model was "
                    "built with vanilla attention, which has no intrinsic "
                    "region width)")
            params = self.model.parameters()
            model_dtype = str(params[0].dtype) if params else "model"
            self._scheduler = ShapeBucketScheduler(self.n_max, self.policy,
                                                   default_dtype=model_dtype)
        return self._scheduler

    def _flush_width(self, n_regions: Sequence[int]) -> int:
        """The region width a co-batch with these per-row counts runs at:
        ``min(n_max, max n_i + 1)``.

        The one padding column past the widest row keeps RegionSA's pool
        reading the same conv cells it reads at ``n_max`` (see
        :class:`repro.core.intra_afl.RegionSA`).  Flushes and
        :meth:`warm` both size batches here, so a warmed plan is exactly
        the plan a flush asks for.
        """
        return min(self.n_max, max(n_regions) + 1)

    def _check_request(self, request: EmbedRequest) -> None:
        if request.n_regions > self.n_max:
            raise AdmissionError(
                f"request {request.name!r} has {request.n_regions} regions; "
                f"this service is built for n_max={self.n_max}",
                reason="oversize")
        dims = request.views.dims()
        if len(dims) != len(self.view_dims) or any(
                d > cap for d, cap in zip(dims, self.view_dims)):
            raise AdmissionError(
                f"request view widths {dims} incompatible with the service "
                f"model's {self.view_dims}", reason="view_mismatch")
        if self.view_names is None:
            # A service built straight from a model doesn't know its view
            # names; the first request fixes them, so a later request
            # with different names can never be co-batched with it (the
            # flush's make_batch would reject the mix after the tickets
            # were already popped).
            self.view_names = request.views.names
        if request.views.names != self.view_names:
            raise AdmissionError(
                f"request views {request.views.names} != service views "
                f"{self.view_names}", reason="view_mismatch")

    def submit(self, request: EmbedRequest,
               now: float | None = None) -> EmbedTicket:
        """Queue a request; may trigger size- and age-based flushes.

        The returned ticket's ``response`` fills when its bucket
        flushes; call :meth:`flush` to force everything through.
        Inadmissible requests raise :class:`AdmissionError` here, before
        anything is queued — the queues stay clean.
        """
        scheduler = self._require_scheduler()
        self._check_request(request)
        now = self.clock() if now is None else now
        ticket = EmbedTicket(request, "", now)
        # enqueue() computes the bucket key before touching its queue, so
        # an out-of-range size raises here — never mid-flush.
        key = scheduler.enqueue(ticket)
        ticket.bucket_id = key.bucket_id
        self._submitted += 1
        for full in scheduler.full_buckets():
            self._flush_bucket(full, now)
        self.poll(now)
        return ticket

    def poll(self, now: float | None = None) -> list[EmbedResponse]:
        """Flush buckets whose oldest request has aged past ``max_wait``."""
        scheduler = self._require_scheduler()
        now = self.clock() if now is None else now
        responses: list[EmbedResponse] = []
        for key in scheduler.overdue_buckets(now):
            responses.extend(self._flush_bucket(key, now))
        return responses

    def flush(self, now: float | None = None) -> list[EmbedResponse]:
        """Drain every bucket (an empty queue is a no-op)."""
        scheduler = self._require_scheduler()
        now = self.clock() if now is None else now
        responses: list[EmbedResponse] = []
        for key in scheduler.nonempty_buckets():
            while True:
                flushed = self._flush_bucket(key, now)
                if not flushed:
                    break
                responses.extend(flushed)
        return responses

    def run(self, requests: Sequence[EmbedRequest]) -> list[EmbedResponse]:
        """Submit a burst and drain it; responses come back in submission
        order regardless of which buckets (and flushes) served them."""
        tickets = [self.submit(r) for r in requests]
        self.flush()
        return [t.response for t in tickets]

    def _flush_bucket(self, key: BucketKey,
                      now: float | None = None) -> list[EmbedResponse]:
        from ..core.engine import make_batch
        scheduler = self._require_scheduler()
        tickets = scheduler.take(key)
        if not tickets:
            return []
        # Same clock the tickets were stamped on (injectable), so
        # wait_seconds stays truthful when tests/replays drive time.
        flushed_at = self.clock() if now is None else now
        try:
            width = self._flush_width([t.request.n_regions for t in tickets])
            batch = make_batch([t.request.views for t in tickets],
                               n_max=width, view_dims=self.view_dims)
            start = time.perf_counter()
            embeddings, event = self._run_batch(batch, None)
            seconds = time.perf_counter() - start
        except Exception:
            # Never strand popped tickets: put them back (FIFO order
            # preserved) before surfacing the failure.
            scheduler.requeue_front(key, tickets)
            raise

        b = len(tickets)
        real = sum(batch.n_regions)
        slots = b * width
        waste = 1.0 - real / slots
        self._flush_seq += 1
        self.flush_log.append({"seq": self._flush_seq,
                               "bucket_id": key.bucket_id, "batch_size": b,
                               "n_regions": list(batch.n_regions),
                               "plan_event": event})
        bucket_id = key.bucket_id
        if (bucket_id not in self._bucket_stats
                and len(self._bucket_stats) >= self.max_tracked_buckets):
            bucket_id = self.OVERFLOW_BUCKET
            self._overflow_flushes += 1
        stats = self._bucket_stats.setdefault(bucket_id, _BucketStats())
        stats.requests += b
        stats.batches += 1
        stats.regions += real
        stats.slots += slots
        stats.seconds += seconds
        stats.plan_events[event] = stats.plan_events.get(event, 0) + 1

        responses = []
        for ticket, h in zip(tickets, embeddings):
            request = ticket.request
            ticket.response = EmbedResponse(
                request_id=request.request_id, name=request.name,
                embeddings=self._detach(h, request), bucket_id=key.bucket_id,
                n_regions=request.n_regions, batch_size=b,
                padded=batch.is_padded, padding_waste=waste,
                plan_event=event,
                wait_seconds=max(0.0, flushed_at - ticket.submitted_at),
                compute_seconds=seconds)
            responses.append(ticket.response)
        self._answered += b
        return responses

    # ------------------------------------------------------------------
    # Warm-up + observability
    # ------------------------------------------------------------------
    def warm(self, batch_size: int, n_regions: "int | Sequence[int]") -> str:
        """Pre-record (or relower) the plan for one serving shape.

        ``n_regions`` is either one region count shared by all
        ``batch_size`` rows or a per-row sequence; the width
        (``min(n_max, max n_i + 1)``) and mask this builds are exactly
        those a scheduler flush of such requests produces, so the cached
        spec serves real traffic byte-for-byte.  Input *values* are
        irrelevant to a plan spec (only shapes, dtype and the mask
        constants are baked in), so zeros suffice.  Returns the served
        bucket id.
        """
        if self.n_max is None:
            raise ValueError("service capacity unknown; pass n_max=")
        rows = ([int(n_regions)] * batch_size
                if isinstance(n_regions, (int, np.integer))
                else [int(n) for n in n_regions])
        if len(rows) != batch_size:
            raise ValueError(f"{len(rows)} region counts for batch_size="
                             f"{batch_size}")
        if any(not 1 <= n <= self.n_max for n in rows):
            raise ValueError(f"region counts {rows} outside [1, {self.n_max}]")
        width = self._flush_width(rows)
        matrices = [np.zeros((batch_size, width, d)) for d in self.view_dims]
        if all(n == self.n_max for n in rows):
            mask = None
        else:
            mask = np.zeros((batch_size, width))
            for i, n in enumerate(rows):
                mask[i, :n] = 1.0
        self._plan(matrices, mask, "batched_embed")
        scheduler = self._require_scheduler()
        return BucketKey(scheduler.bucket_edge(max(rows)),
                         tuple(self.view_dims),
                         scheduler.default_dtype).bucket_id

    def pending(self) -> int:
        return self._scheduler.pending if self._scheduler is not None else 0

    @property
    def submitted(self) -> int:
        """Requests ever accepted by :meth:`submit` (admission-rejected
        ones never count)."""
        return self._submitted

    @property
    def answered(self) -> int:
        """Responses ever produced — the per-worker liveness/progress
        counter each fleet result carries back to the supervisor."""
        return self._answered

    @property
    def flush_seq(self) -> int:
        """Total flushes ever performed (monotone; unlike
        ``len(flush_log)`` it never shrinks when the bounded log drops
        old entries — mark-and-replay consumers filter on the entries'
        ``seq`` field against this)."""
        return self._flush_seq

    def stats(self) -> dict:
        """Serving report: per-bucket throughput and padding overhead,
        plan-cache hit rates, resident-plan replay counts."""
        buckets = {bid: s.report() for bid, s in self._bucket_stats.items()}
        regions = sum(s["regions"] for s in buckets.values())
        slots = sum(st.slots for st in self._bucket_stats.values())
        seconds = sum(s["seconds"] for s in buckets.values())
        return {
            "n_max": self.n_max,
            "view_dims": list(self.view_dims),
            "compiled": self.compiled,
            "requests": self._submitted,
            "responses": self._answered,
            "pending": self.pending(),
            "batches": sum(s["batches"] for s in buckets.values()),
            "regions": regions,
            "padding_overhead": 1.0 - regions / slots if slots else 0.0,
            "seconds": seconds,
            "regions_per_sec": regions / seconds if seconds > 0 else 0.0,
            "buckets": buckets,
            "flushes": self._flush_seq,
            "flush_log_dropped": self._flush_seq - len(self.flush_log),
            "bucket_stats_overflow_flushes": self._overflow_flushes,
            "plan_cache": self.plan_cache.stats(),
            "resident_plans": self.plan_cache.resident_report(),
        }

"""Shape-bucket request scheduler.

Queued :class:`~repro.serving.api.EmbedRequest`\\ s are grouped by
``(n_regions_bucket, view_dims, dtype)`` so each flush fuses requests
that batch well together:

- the bucket at the service's full ``n_max`` holds full-size requests —
  a flush of those is **unpadded** (no keep mask, the compiled fast
  path, one resident plan per batch size);
- smaller buckets hold ragged traffic quantized to halving edges (a
  request lands in the smallest edge ≥ its ``n_regions``), so a flush
  co-batches cities within 2x of each other's size under one padded +
  masked pass.  The bucket edge decides *who is co-batched*, which is
  what makes mask patterns (and therefore compiled-plan cache keys)
  recur under repeating traffic.  The service pads each flush to
  ``w = min(n_max, max n_i + 1)`` regions, not to the model's
  ``n_max``: RegionSA projects through the first ``w`` columns of its
  correlation MLP (see :class:`repro.core.intra_afl.RegionSA`).  The
  ``+ 1`` is required: the 3x3 average pool at a row's last real region
  reads the conv output one cell further out, and at width ``n_max``
  that cell holds the conv bias plus its real neighbours; with it
  inside the image every answer equals its ``n_max``-padded one up to
  summation order.  The mask fixes ``w``, so the plan cache keys on it
  already;
- ``view_dims`` and ``dtype`` are exact-match keys: requests with
  different native view widths or different requested dtypes are never
  fused into one batch.

Flush triggers (see :class:`~repro.serving.api.FlushPolicy`): a bucket
reaching ``max_batch`` is flushed by ``submit`` itself; a bucket whose
oldest request has waited ``max_wait`` seconds is flushed by the next
``poll``/``submit`` (the service is synchronous — there is no
background thread, so time-based flushes happen at call boundaries);
``flush()`` drains everything.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from .api import (
    AdmissionError,
    EmbedRequest,
    EmbedTicket,
    FlushPolicy,
    default_bucket_edges,
)

__all__ = ["BucketKey", "BucketQueue", "ShapeBucketScheduler"]


@dataclass(frozen=True)
class BucketKey:
    """Co-batching identity: quantized region count, native view widths,
    requested dtype."""

    n_bucket: int
    view_dims: tuple[int, ...]
    dtype: str

    @property
    def bucket_id(self) -> str:
        dims = "x".join(str(d) for d in self.view_dims)
        return f"n{self.n_bucket}/d{dims}/{self.dtype}"


@dataclass
class BucketQueue:
    key: BucketKey
    tickets: deque = field(default_factory=deque)

    @property
    def oldest_at(self) -> float | None:
        return self.tickets[0].submitted_at if self.tickets else None


class ShapeBucketScheduler:
    """FIFO queues per :class:`BucketKey` plus the flush-decision logic.

    The scheduler holds tickets only — building the padded batch and
    running the model is the service's job (`take` hands back up to
    ``max_batch`` tickets in submission order).
    """

    def __init__(self, n_max: int, policy: FlushPolicy | None = None,
                 default_dtype: str = "model"):
        self.policy = policy if policy is not None else FlushPolicy()
        #: dtype label for requests that did not ask for one — the
        #: service passes its model dtype so an explicit request for the
        #: model dtype co-batches with default requests.
        self.default_dtype = default_dtype
        edges = self.policy.bucket_edges
        if edges is None:
            edges = default_bucket_edges(n_max)
        if edges[-1] < n_max:
            raise ValueError(f"largest bucket edge {edges[-1]} is below the "
                             f"service n_max {n_max}")
        self.edges = edges
        self._queues: dict[BucketKey, BucketQueue] = {}

    # ------------------------------------------------------------------
    def bucket_edge(self, n_regions: int) -> int:
        """Smallest edge ≥ ``n_regions``; a request *exactly at* an edge
        belongs to that edge's bucket (no off-by-one promotion).

        Out-of-range sizes raise a typed :class:`AdmissionError`
        (reason ``"oversize"``) so the rejection happens at submit time,
        before the request is queued — never mid-flush.
        """
        if n_regions < 1:
            raise AdmissionError(
                f"n_regions must be >= 1, got {n_regions}", reason="oversize")
        if n_regions > self.edges[-1]:
            raise AdmissionError(
                f"request with n={n_regions} exceeds the largest bucket "
                f"edge {self.edges[-1]}", reason="oversize")
        return self.edges[bisect_left(self.edges, n_regions)]

    def key_for_request(self, request: EmbedRequest) -> BucketKey:
        """The bucket a request would land in — usable before a ticket
        exists (the admission-control path needs the key to read queue
        depth without enqueueing)."""
        return BucketKey(self.bucket_edge(request.n_regions),
                         tuple(request.views.dims()),
                         str(request.dtype) if request.dtype is not None
                         else self.default_dtype)

    def key_for(self, ticket: EmbedTicket) -> BucketKey:
        return self.key_for_request(ticket.request)

    def depth(self, key: BucketKey) -> int:
        """Queued tickets in one bucket (0 for an unknown key)."""
        queue = self._queues.get(key)
        return len(queue.tickets) if queue is not None else 0

    # ------------------------------------------------------------------
    def enqueue(self, ticket: EmbedTicket) -> BucketKey:
        key = self.key_for(ticket)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = BucketQueue(key)
        queue.tickets.append(ticket)
        return key

    def take(self, key: BucketKey,
             limit: int | None = None) -> list[EmbedTicket]:
        """Pop up to ``limit`` (default ``max_batch``) tickets, FIFO."""
        queue = self._queues.get(key)
        if queue is None:
            return []
        limit = limit if limit is not None else self.policy.max_batch
        taken = [queue.tickets.popleft()
                 for _ in range(min(limit, len(queue.tickets)))]
        if not queue.tickets:
            del self._queues[key]
        return taken

    def requeue_front(self, key: BucketKey,
                      tickets: list[EmbedTicket]) -> None:
        """Put taken tickets back at the head of their queue (in their
        original order) — the failed-flush recovery path."""
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = BucketQueue(key)
        queue.tickets.extendleft(reversed(tickets))

    def full_buckets(self) -> list[BucketKey]:
        return [key for key, q in self._queues.items()
                if len(q.tickets) >= self.policy.max_batch]

    def overdue_buckets(self, now: float) -> list[BucketKey]:
        return [key for key, q in self._queues.items()
                if q.oldest_at is not None
                and now - q.oldest_at >= self.policy.max_wait]

    def nonempty_buckets(self) -> list[BucketKey]:
        return list(self._queues)

    @property
    def pending(self) -> int:
        return sum(len(q.tickets) for q in self._queues.values())

"""``repro.serving`` — the unified embedding-serving subsystem.

The production-facing API over everything the execution engine
(:mod:`repro.core.engine`) and the compiled-plan machinery
(:mod:`repro.nn.compile` / :mod:`repro.nn.plancache`) provide:

- :class:`EmbedRequest` / :class:`EmbedResponse` — the typed request
  schema (city views + dtype + optional region subset in; embeddings +
  plan/bucket/padding provenance out);
- :class:`EmbeddingService` — a facade owning one shared model and one
  plan cache, routing every request through a shape-bucket scheduler
  (:class:`ShapeBucketScheduler`) with a max-wait/max-batch flush
  policy (:class:`FlushPolicy`);
- :class:`WarmupPack` — deploy-time pre-recorded plan grids, so a fresh
  service performs zero record epochs on warmed shapes;
- :class:`ServingFrontend` / :class:`FrontendClient` — the network
  layer: an asyncio NDJSON socket server with admission control,
  per-bucket backpressure (load shedding with a ``retry_after`` hint)
  and p50/p99 latency accounting, dispatching scheduler co-batches to
- :class:`ServingFleet` — N worker processes, each holding a resident
  service warmed from a shared :class:`WarmupPack` (zero record epochs
  on start, plan caches preserved across graceful restarts), under a
  supervisor that detects crashes, retries the exact lost batches and
  respawns dead workers against the same pack;
- :class:`AdmissionError` — the typed submit-time rejection
  (``oversize`` / ``view_mismatch`` / ``overload``) — and
  :class:`ServingUnavailable`, its post-admission counterpart (fleet
  down, retries exhausted, deadline missed).

The chaos tests script worker crashes with :class:`repro.faults.FaultPlan`
(``fault_plan=`` on :class:`ServingFleet`).  The experiment runners'
:func:`repro.experiments.common.compute_embeddings` embeds every trained
HAFusion through one :class:`EmbedRequest` to an :class:`EmbeddingService`.
``benchmarks/test_serving_service.py`` gates the scheduler's throughput
against the direct batched path and against sequential serving.
"""

from .api import (
    AdmissionError,
    EmbedRequest,
    EmbedResponse,
    EmbedTicket,
    FlushPolicy,
    ServingUnavailable,
    default_bucket_edges,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from .fleet import FleetResult, ServingFleet
from .frontend import FrontendClient, FrontendThread, ServingFrontend
from .scheduler import BucketKey, ShapeBucketScheduler
from .service import EmbeddingService
from .warmup import WarmupPack, default_shape_grid

__all__ = [
    "AdmissionError",
    "EmbedRequest",
    "EmbedResponse",
    "EmbedTicket",
    "FlushPolicy",
    "ServingUnavailable",
    "default_bucket_edges",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "BucketKey",
    "ShapeBucketScheduler",
    "EmbeddingService",
    "FleetResult",
    "ServingFleet",
    "FrontendClient",
    "FrontendThread",
    "ServingFrontend",
    "WarmupPack",
    "default_shape_grid",
]

"""Network serving frontend: NDJSON socket protocol over a worker fleet.

The step from library to system: an :mod:`asyncio` TCP server speaking
newline-delimited JSON (one JSON object per line, stdlib only) that
accepts embed requests over the wire, feeds them through the same
:class:`~repro.serving.scheduler.ShapeBucketScheduler` the in-process
:class:`~repro.serving.service.EmbeddingService` uses, and dispatches
each flushed co-batch to a :class:`~repro.serving.fleet.ServingFleet`
of resident worker processes.

Protocol
--------

Every line is a JSON object with an ``op``; every reply echoes the
request's optional ``id`` (clients pipeline by tagging requests and
matching replies — replies may interleave across in-flight requests on
one connection):

- ``{"op": "embed", "id"?, "name"?, "dtype"?, "region_subset"?,
  "views": {"names": [...], "matrices": [<matrix>, ...]}}`` →
  ``{"ok": true, "embeddings": <matrix>, "latency_seconds": ...,
  <EmbedResponse provenance>}`` or
  ``{"ok": false, "error": <reason>, "message": ...,
  "retry_after": <seconds or null>}``;
- ``{"op": "flush"}`` → ``{"ok": true, "dispatched": <batches>}``:
  dispatch every queued bucket now;
- ``{"op": "stats"}`` → the frontend report (served/shed counts,
  p50/p99 latency, aggregate regions/sec, queue depths, fleet record
  epochs);
- ``{"op": "ping"}`` → ``{"ok": true, "pong": true}``.

The echoed ``id`` is always a reply's last key.  A ``<matrix>`` is
``{"dtype": "<f8" | "<f4", "shape": [rows, cols], "data": <base64 of
the C-order little-endian bytes>}`` (:mod:`repro.serving.api`): view
matrices travel as float64, embeddings in their own dtype, so
embeddings are **bit-identical** to the in-process service's on the
same trace.  A matrix that fails the decoder's checks gets a typed
``bad_request`` reply.

Admission control and backpressure
----------------------------------

Requests pass the same typed gates as the in-process service
(:class:`~repro.serving.api.AdmissionError`: ``oversize`` /
``view_mismatch`` at submit time), plus a per-bucket queue-depth limit:
when a bucket already holds ``max_queue_depth`` waiting requests the
frontend **sheds** the new one with reason ``"overload"`` and a
``retry_after`` hint (the flush policy's ``max_wait`` — by then the
bucket must have drained or flushed), instead of letting queues grow
without bound.

Lifecycle
---------

``await start()`` brings up the fleet (zero record epochs when warmed
from a pack), the TCP server, the age-flush loop and the result pump;
``await stop()`` drains queued and in-flight work, closes the server
and gracefully stops the fleet — the on-disk plan cache under the
pack directory survives, so the next ``start()`` is exactly as warm.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import threading
import time
from collections import deque
from typing import Sequence

from .api import (
    AdmissionError,
    EmbedRequest,
    EmbedResponse,
    EmbedTicket,
    FlushPolicy,
    ServingUnavailable,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from .fleet import ServingFleet
from .scheduler import ShapeBucketScheduler

__all__ = ["FrontendClient", "FrontendThread", "ServingFrontend"]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile on an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class _LatencyWindow:
    """Bounded reservoir of recent request latencies (p50/p99 source)."""

    def __init__(self, window: int = 4096):
        self.samples: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)

    def report(self) -> dict:
        window = sorted(self.samples)
        return {
            "count": self.count,
            "mean_seconds": self.total / self.count if self.count else 0.0,
            "p50_latency": _percentile(window, 0.50),
            "p99_latency": _percentile(window, 0.99),
            "max_seconds": self.max,
            "window": len(window),
        }


class ServingFrontend:
    """The asyncio frontend (module docstring has protocol + lifecycle).

    Parameters
    ----------
    fleet:
        The worker fleet to dispatch flushed batches to; started by
        :meth:`start` if not already running.
    n_max:
        Serving capacity (the workers' model width) — the admission
        gate's oversize bound and the scheduler's largest edge.
    view_dims, view_names:
        Optional stricter admission caps, mirroring
        :class:`EmbeddingService`'s checks; when ``None`` the first
        request pins ``view_names`` and width checks are left to the
        workers.
    policy:
        Flush policy for the frontend's scheduler.  **Must equal the
        workers' policy** — equal bucket edges and ``max_batch`` are
        what make a dispatched group re-batch identically inside the
        worker (the bit-identical-to-in-process guarantee).
    max_queue_depth:
        Per-bucket admission bound; beyond it new requests for that
        bucket are shed with ``retry_after`` = ``policy.max_wait``.
        The bound **degrades with the fleet**: when only ``k`` of
        ``n_workers`` workers are live the effective depth is scaled by
        ``k / n_workers`` (min 1), so a degraded deployment sheds
        earlier instead of queueing work it has lost the capacity to
        drain; with zero live workers admission raises a typed
        :class:`ServingUnavailable` instead.
    batch_deadline:
        Wall-clock bound on one dispatched batch, dispatch→result.  A
        batch that misses it (worker wedged, straggler, silent loss)
        has its waiters failed with :class:`ServingUnavailable` and is
        dropped from fleet supervision — **no frontend future can hang
        forever**, whatever happens below.
    drain_timeout:
        How long :meth:`stop` waits for queued and in-flight work
        before failing the remaining futures typed (the
        no-pending-future-leak guarantee on shutdown).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    max_line_bytes:
        Stream buffer limit for one protocol line.  A full-city embed
        request carries its view matrices inline as base64 float64,
        8 · 4/3 bytes per value (a full 180-region nyc request is
        ≈760 KB), so this must comfortably exceed the largest
        admissible request (the asyncio default of 64 KiB does not);
        longer lines get a typed ``bad_request`` reply and the
        connection is closed (the stream cannot resynchronize
        mid-line).
    """

    def __init__(self, fleet: ServingFleet, *, n_max: int,
                 view_dims: Sequence[int] | None = None,
                 view_names: Sequence[str] | None = None,
                 policy: FlushPolicy | None = None,
                 max_queue_depth: int = 64,
                 batch_deadline: float = 60.0,
                 drain_timeout: float = 30.0,
                 host: str = "127.0.0.1", port: int = 0,
                 max_line_bytes: int = 64 * 1024 * 1024):
        self.fleet = fleet
        self.n_max = int(n_max)
        self.view_dims = list(view_dims) if view_dims is not None else None
        self.view_names = tuple(view_names) if view_names is not None else None
        self.policy = policy if policy is not None else FlushPolicy()
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, "
                             f"got {max_queue_depth}")
        if batch_deadline <= 0:
            raise ValueError(f"batch_deadline must be > 0, "
                             f"got {batch_deadline}")
        self.max_queue_depth = max_queue_depth
        self.batch_deadline = batch_deadline
        self.drain_timeout = drain_timeout
        self.host = host
        self.port = port
        self.max_line_bytes = int(max_line_bytes)
        self._scheduler = ShapeBucketScheduler(self.n_max, self.policy)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._flush_task: asyncio.Task | None = None
        self._pump_thread: threading.Thread | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._closing = False
        self._batch_ids = itertools.count(1)
        #: batch_id -> (tickets in dispatched order — the worker's
        #: service.run returns responses in that same order — and the
        #: loop-clock instant the batch's deadline expires).
        self._inflight: dict[int, tuple[list[EmbedTicket], float]] = {}
        #: request_id -> future resolved with an EmbedResponse (or an
        #: exception) when the dispatched batch comes back.
        self._waiters: dict[int, asyncio.Future] = {}
        self.latency = _LatencyWindow()
        self.served = 0
        self.shed = 0
        self.rejected = 0
        self.errors = 0
        self.unavailable = 0
        self.deadline_failures = 0
        self.regions = 0
        self._first_request_at: float | None = None
        self._last_response_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("frontend already started")
        self._loop = asyncio.get_running_loop()
        if not self.fleet.started:
            # Worker start pays model build + warm-up; keep the loop
            # responsive while it happens.
            await self._loop.run_in_executor(None, self.fleet.start)
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.max_line_bytes)
        self.port = self._server.sockets[0].getsockname()[1]
        self._flush_task = asyncio.create_task(self._flush_loop())
        self._pump_thread = threading.Thread(
            target=self._pump_results, name="repro-frontend-pump", daemon=True)
        self._pump_thread.start()

    async def drain(self, timeout: float = 60.0) -> None:
        """Dispatch every queued request and wait for all in-flight
        batches to come back (the graceful half of :meth:`stop`)."""
        for key in list(self._scheduler.nonempty_buckets()):
            while self._scheduler.depth(key):
                self._dispatch(key)
        deadline = self._loop.time() + timeout
        while (self._inflight or self._waiters):
            if self._loop.time() > deadline:
                raise TimeoutError(
                    f"drain timed out with {len(self._inflight)} batches "
                    f"in flight")
            await asyncio.sleep(0.005)

    def _fail_pending(self, message: str,
                      retry_after: float | None = None) -> int:
        """Resolve every queued or in-flight request with a typed
        :class:`ServingUnavailable` — the anti-hang backstop used by
        :meth:`stop` (and the deadline path for single batches).  A
        future that never resolves leaves the client blocked until its
        socket timeout; failing it typed lets the client retry against
        the next deployment."""
        failed = 0
        # Queued but never dispatched: pull them out of the scheduler.
        for key in list(self._scheduler.nonempty_buckets()):
            while True:
                tickets = self._scheduler.take(key)
                if not tickets:
                    break
                failed += self._fail_tickets(tickets, message, retry_after)
        # Dispatched, still in flight: forget them in the fleet too so a
        # late result is discarded instead of resolving a dead future.
        for batch_id, (tickets, _) in list(self._inflight.items()):
            self._inflight.pop(batch_id, None)
            self.fleet.forget(batch_id)
            failed += self._fail_tickets(tickets, message, retry_after)
        return failed

    def _fail_tickets(self, tickets, message: str,
                      retry_after: float | None) -> int:
        failed = 0
        for ticket in tickets:
            future = self._waiters.get(ticket.request.request_id)
            if future is not None and not future.done():
                future.set_exception(
                    ServingUnavailable(message, retry_after=retry_after))
                failed += 1
        return failed

    async def stop(self, stop_fleet: bool = True) -> None:
        """Graceful shutdown: drain (bounded by ``drain_timeout``),
        fail whatever could not drain with a typed
        :class:`ServingUnavailable` — never leave a pending future
        unresolved — then close the server, stop the pump (and the
        fleet).  Workers' on-disk plan caches are preserved — a
        restarted frontend+fleet on the same pack directory serves the
        same traffic with zero record epochs."""
        if self._server is None:
            return
        try:
            await self.drain(timeout=self.drain_timeout)
        except TimeoutError:
            pass
        if self._fail_pending("frontend stopped with the request "
                              "still in flight"):
            # Give the per-request handler tasks one tick to pick the
            # failures up and write their typed error replies before the
            # listener goes away.  (They bump errors/unavailable.)
            await asyncio.sleep(0)
        self._closing = True
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Close lingering connections so their handler coroutines finish
        # before the loop is torn down (transports flush buffered replies
        # on close — a typed shutdown error already written still lands).
        for conn_writer in list(self._connections):
            conn_writer.close()
        deadline = self._loop.time() + 1.0
        while self._connections and self._loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._pump_thread is not None:
            await self._loop.run_in_executor(None, self._pump_thread.join)
            self._pump_thread = None
        if stop_fleet:
            await self._loop.run_in_executor(
                None, lambda: self.fleet.stop(graceful=True))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        self._connections.add(writer)

        async def answer(payload: dict) -> None:
            reply = await self._dispatch_op(payload)
            if "id" in payload:
                reply["id"] = payload["id"]
            async with write_lock:
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break
                except ValueError:
                    # Line overran max_line_bytes; the stream cannot
                    # resynchronize mid-line — reply typed and close.
                    async with write_lock:
                        writer.write(json.dumps(
                            {"ok": False, "error": "bad_request",
                             "message": f"protocol line exceeds "
                                        f"{self.max_line_bytes} bytes",
                             "retry_after": None}).encode() + b"\n")
                        await writer.drain()
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("payload must be a JSON object")
                except ValueError as exc:
                    async with write_lock:
                        writer.write(json.dumps(
                            {"ok": False, "error": "bad_request",
                             "message": f"undecodable line: {exc}",
                             "retry_after": None}).encode() + b"\n")
                        await writer.drain()
                    continue
                # One task per line: replies may interleave, which is
                # what lets a single connection keep a bucket full.
                task = asyncio.create_task(answer(payload))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):   # pragma: no cover
                pass

    async def _dispatch_op(self, payload: dict) -> dict:
        op = payload.get("op")
        if op == "embed":
            return await self._handle_embed(payload)
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "flush":
            # Deterministic straggler dispatch: drain every queued
            # bucket now instead of waiting out max_wait.  With a
            # pipelined burst this reproduces exactly the in-process
            # ``run()`` composition (full buckets at max_batch, FIFO
            # remainders), which the bit-identity smoke relies on.
            dispatched = 0
            for key in list(self._scheduler.nonempty_buckets()):
                while self._scheduler.depth(key):
                    self._dispatch(key)
                    dispatched += 1
            return {"ok": True, "dispatched": dispatched}
        if op == "ping":
            return {"ok": True, "pong": True}
        return {"ok": False, "error": "bad_request",
                "message": f"unknown op {op!r}", "retry_after": None}

    async def _handle_embed(self, payload: dict) -> dict:
        received_at = self._loop.time()
        try:
            request = request_from_wire(payload)
            self._admit(request)
        except AdmissionError as exc:
            if exc.reason == "overload":
                self.shed += 1
            else:
                self.rejected += 1
            return {"ok": False, "error": exc.reason, "message": str(exc),
                    "retry_after": exc.retry_after}
        except ServingUnavailable as exc:
            self.unavailable += 1
            self.errors += 1
            return {"ok": False, "error": "unavailable",
                    "message": str(exc), "retry_after": exc.retry_after}
        if self._first_request_at is None:
            self._first_request_at = received_at
        ticket = EmbedTicket(request, "", received_at)
        key = self._scheduler.enqueue(ticket)
        ticket.bucket_id = key.bucket_id
        future: asyncio.Future = self._loop.create_future()
        self._waiters[request.request_id] = future
        if self._scheduler.depth(key) >= self.policy.max_batch:
            self._dispatch(key)
        try:
            response: EmbedResponse = await future
        except ServingUnavailable as exc:
            self.errors += 1
            self.unavailable += 1
            return {"ok": False, "error": "unavailable",
                    "message": str(exc), "retry_after": exc.retry_after}
        except Exception as exc:
            self.errors += 1
            return {"ok": False, "error": "worker_failure",
                    "message": str(exc), "retry_after": None}
        finally:
            self._waiters.pop(request.request_id, None)
        now = self._loop.time()
        latency = now - received_at
        self.latency.add(latency)
        self.served += 1
        self.regions += response.n_regions
        self._last_response_at = now
        wire = response_to_wire(response)
        # The frontend measures true queue wait on its own clock; the
        # worker-side wait (intra-batch rebatching) is not it.
        wire["wait_seconds"] = max(0.0, (now - received_at)
                                   - response.compute_seconds)
        wire["latency_seconds"] = latency
        return wire

    def _effective_queue_depth(self) -> int:
        """The per-bucket admission bound, degraded with fleet health.

        With ``k < n_workers`` live workers the deployment's drain rate
        has dropped by ``k / n_workers``; scaling the depth bound by the
        same factor sheds the excess at admission (with a retry hint)
        instead of queueing work the degraded fleet would serve late.
        Raises :class:`ServingUnavailable` when nothing is live: with a
        respawn possibly in flight it carries a ``retry_after`` hint,
        fully down it is terminal (``retry_after=None``).
        """
        if not self.fleet.started or self.fleet.fully_down:
            raise ServingUnavailable(
                "the serving fleet has no live workers and no respawn "
                "budget left", retry_after=None)
        live = self.fleet.live_workers()
        if live == 0:
            raise ServingUnavailable(
                "the serving fleet has no live workers (respawn pending)",
                retry_after=self.policy.max_wait)
        return max(1, (self.max_queue_depth * live) // self.fleet.n_workers)

    def _admit(self, request: EmbedRequest) -> None:
        """The service's submit-time gates plus the queue-depth bound."""
        if request.n_regions > self.n_max:
            raise AdmissionError(
                f"request {request.name!r} has {request.n_regions} regions; "
                f"this deployment serves n_max={self.n_max}",
                reason="oversize")
        dims = request.views.dims()
        if self.view_dims is not None and (
                len(dims) != len(self.view_dims)
                or any(d > cap for d, cap in zip(dims, self.view_dims))):
            raise AdmissionError(
                f"request view widths {dims} incompatible with the serving "
                f"model's {self.view_dims}", reason="view_mismatch")
        if self.view_names is None:
            self.view_names = request.views.names
        if request.views.names != self.view_names:
            raise AdmissionError(
                f"request views {request.views.names} != serving views "
                f"{self.view_names}", reason="view_mismatch")
        key = self._scheduler.key_for_request(request)   # oversize gate too
        depth_cap = self._effective_queue_depth()
        if self._scheduler.depth(key) >= depth_cap:
            degraded = "" if depth_cap == self.max_queue_depth else \
                f" (degraded from {self.max_queue_depth}: " \
                f"{self.fleet.live_workers()}/{self.fleet.n_workers} " \
                f"workers live)"
            raise AdmissionError(
                f"bucket {key.bucket_id} is at its queue-depth limit "
                f"({depth_cap}){degraded}; retry after the next flush",
                reason="overload", retry_after=self.policy.max_wait)

    # ------------------------------------------------------------------
    # Scheduling and fleet plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, key) -> None:
        tickets = self._scheduler.take(key)
        if not tickets:
            return
        batch_id = next(self._batch_ids)
        self._inflight[batch_id] = (tickets,
                                    self._loop.time() + self.batch_deadline)
        self.fleet.submit(batch_id, [t.request for t in tickets])

    async def _flush_loop(self) -> None:
        """Age-based flushing: what ``poll()`` does for the in-process
        service, a background task does here.  Doubles as the deadline
        watchdog over dispatched batches."""
        interval = max(min(self.policy.max_wait / 2, 0.05), 0.001)
        interval = min(interval, max(self.batch_deadline / 4, 0.001))
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for key in self._scheduler.overdue_buckets(now):
                self._dispatch(key)
            self._expire_deadlines(now)

    def _expire_deadlines(self, now: float) -> None:
        """Fail (typed) every in-flight batch past its deadline.  The
        batch is also forgotten in the fleet: a worker that eventually
        answers it finds nobody waiting, and a crash can no longer
        requeue it — deadline expiry is terminal for that dispatch."""
        for batch_id, (tickets, deadline_at) in list(self._inflight.items()):
            if now < deadline_at:
                continue
            self._inflight.pop(batch_id, None)
            self.fleet.forget(batch_id)
            self.deadline_failures += 1
            self._fail_tickets(
                tickets,
                f"batch {batch_id} missed its {self.batch_deadline}s "
                f"deadline", retry_after=self.policy.max_wait)

    def _pump_results(self) -> None:
        """Blocking thread: drain the fleet's result queue into the
        event loop (mp queues have no awaitable interface)."""
        import queue as queue_mod
        while not self._closing:
            try:
                result = self.fleet.next_result(timeout=0.1)
            except queue_mod.Empty:
                continue
            except (OSError, ValueError):   # queue closed under us
                break
            self._loop.call_soon_threadsafe(self._deliver, result)

    def _deliver(self, result) -> None:
        entry = self._inflight.pop(result.batch_id, None)
        if entry is None:   # late result of a deadline-expired batch
            return
        tickets, _ = entry
        if result.error is not None:
            # Terminal: the supervisor already spent the batch's retry
            # attempts — surface the typed exhaustion to every waiter.
            self._fail_tickets(
                tickets, f"batch {result.batch_id} exhausted its retries:\n"
                         f"{result.error}", retry_after=self.policy.max_wait)
            return
        # service.run preserves submission order, which is exactly the
        # order the batch was dispatched in.
        for ticket, response in zip(tickets, result.responses):
            ticket.response = response
            future = self._waiters.get(ticket.request.request_id)
            if future is not None and not future.done():
                future.set_result(response)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Frontend report: latency percentiles, aggregate throughput,
        shed/reject counters, queue depths and fleet warm-path proof."""
        elapsed = None
        if self._first_request_at is not None \
                and self._last_response_at is not None:
            elapsed = self._last_response_at - self._first_request_at
        depths = {key.bucket_id: self._scheduler.depth(key)
                  for key in self._scheduler.nonempty_buckets()}
        supervision = self.fleet.supervision_report()
        return {
            "served": self.served,
            "shed": self.shed,
            "rejected": self.rejected,
            "errors": self.errors,
            "unavailable": self.unavailable,
            "deadline_failures": self.deadline_failures,
            "batch_deadline": self.batch_deadline,
            "degraded": supervision["live"] < self.fleet.n_workers,
            "pending": self._scheduler.pending,
            "inflight_batches": len(self._inflight),
            "queue_depths": depths,
            "max_queue_depth": self.max_queue_depth,
            "latency": self.latency.report(),
            "regions": self.regions,
            "regions_per_sec": (self.regions / elapsed
                                if elapsed else 0.0),
            "fleet": {
                "n_workers": self.fleet.n_workers,
                "dispatched": self.fleet.dispatched,
                "record_epochs": self.fleet.total_record_epochs(),
                "alive": self.fleet.alive(),
                **supervision,
            },
        }


# ----------------------------------------------------------------------
# Blocking-world adapter
# ----------------------------------------------------------------------

class FrontendThread:
    """Run a :class:`ServingFrontend` on a dedicated event-loop thread.

    The adapter scripts, benchmarks and synchronous tests use to drive
    the asyncio frontend from blocking code::

        with FrontendThread(frontend) as ft:
            with ft.client() as client:
                responses = client.embed_many(requests)
    """

    def __init__(self, frontend: ServingFrontend):
        self.frontend = frontend
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-frontend-loop",
                                        daemon=True)

    def start(self, timeout: float = 180.0) -> "FrontendThread":
        """Start the loop thread and bring the frontend (and its fleet)
        up; blocks until the server is listening."""
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.frontend.start(), self._loop).result(timeout=timeout)
        return self

    def stop(self, stop_fleet: bool = True, timeout: float = 60.0) -> None:
        """Gracefully stop the frontend, then tear the loop down."""
        asyncio.run_coroutine_threadsafe(
            self.frontend.stop(stop_fleet=stop_fleet),
            self._loop).result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    def client(self, timeout: float = 120.0) -> "FrontendClient":
        return FrontendClient(self.frontend.host, self.frontend.port,
                              timeout=timeout)

    def __enter__(self) -> "FrontendThread":
        if not self._thread.is_alive():
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------

class FrontendClient:
    """Blocking NDJSON client for scripts, tests and trace replay.

    :meth:`embed` is one request/one reply.  :meth:`embed_many`
    pipelines a whole trace: every request is written tagged with a
    client-side ``id`` before any reply is read, so the frontend's
    scheduler sees the burst at once and co-batches it exactly as the
    in-process service would.  Replies (which may interleave) are
    matched back by ``id`` and returned in submission order.

    Retry (:meth:`embed` only — a pipelined burst has no single point
    to retry from): with ``retries > 0`` the client honours the typed
    transient failures instead of surfacing them —

    - ``overload`` sheds sleep out the server's ``retry_after`` hint
      (falling back to the exponential backoff when absent) and
      resubmit;
    - ``unavailable`` replies (fleet down, batch retry exhaustion,
      deadline) back off and resubmit — safe because serving is
      deterministic, so a retried request cannot change its answer;
    - a dropped/refused connection backs off, **reconnects** and
      resubmits (the frontend may be mid-restart).

    Permanent rejections (``oversize``, ``view_mismatch``,
    ``bad_request``) are never retried.  Backoff starts at ``backoff``
    seconds and doubles per attempt up to ``max_backoff``.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0,
                 retries: int = 0, backoff: float = 0.05,
                 max_backoff: float = 2.0):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0 or max_backoff < backoff:
            raise ValueError(f"need 0 <= backoff <= max_backoff, got "
                             f"{backoff}/{max_backoff}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._sock = None
        self._rfile = None
        self._ids = itertools.count(1)
        self._connect()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._rfile = self._sock.makefile("rb")

    @property
    def closed(self) -> bool:
        return self._sock is None

    def close(self) -> None:
        """Release the socket.  Idempotent, and safe to call on a
        connection the server already dropped."""
        for handle in (self._rfile, self._sock):
            if handle is not None:
                try:
                    handle.close()
                except OSError:   # pragma: no cover - already dead
                    pass
        self._rfile = None
        self._sock = None

    def reconnect(self) -> None:
        """Drop the current socket (if any) and dial the frontend
        again — the recovery step after a ``ServingUnavailable`` from a
        bounced deployment."""
        self.close()
        self._connect()

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, payload: dict) -> None:
        if self._sock is None:
            raise ConnectionError("client is closed (use reconnect())")
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")

    def _recv(self) -> dict:
        if self._rfile is None:
            raise ConnectionError("client is closed (use reconnect())")
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("frontend closed the connection")
        return json.loads(line)

    def call(self, payload: dict) -> dict:
        """One raw request/reply exchange (no pipelining)."""
        self._send(payload)
        return self._recv()

    def ping(self) -> bool:
        return self.call({"op": "ping"}).get("pong", False)

    def stats(self) -> dict:
        return self.call({"op": "stats"})["stats"]

    @staticmethod
    def _raise(reply: dict) -> None:
        if reply.get("error") == "unavailable":
            raise ServingUnavailable(reply.get("message", "request failed"),
                                     retry_after=reply.get("retry_after"))
        raise AdmissionError(reply.get("message", "request failed"),
                             reason=reply.get("error", "invalid"),
                             retry_after=reply.get("retry_after"))

    #: Error tags worth another attempt; everything else is permanent.
    _TRANSIENT = ("overload", "unavailable", "worker_failure")

    def embed(self, request: EmbedRequest,
              retries: int | None = None) -> EmbedResponse:
        """Serve one request (class docstring documents the retry
        policy; ``retries`` overrides the client default).  Exhausted
        or non-retried failures raise :class:`AdmissionError` /
        :class:`ServingUnavailable`, connection loss
        :class:`ConnectionError`."""
        attempts = (self.retries if retries is None else retries) + 1
        delay = self.backoff
        wire = request_to_wire(request)
        for attempt in range(attempts):
            last = attempt + 1 >= attempts
            try:
                if self._sock is None:
                    self._connect()
                reply = self.call(wire)
            except (ConnectionError, OSError):
                self.close()
                if last:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, self.max_backoff)
                continue
            if reply.get("ok"):
                return response_from_wire(reply)
            if last or reply.get("error") not in self._TRANSIENT:
                self._raise(reply)
            time.sleep(reply.get("retry_after") or delay)
            delay = min(delay * 2, self.max_backoff)
        raise AssertionError("unreachable")   # pragma: no cover

    def embed_many(self, requests: Sequence[EmbedRequest],
                   on_error: str = "raise", flush: bool = True
                   ) -> "list[EmbedResponse | dict]":
        """Pipeline a burst; returns responses in submission order.

        ``flush`` (default) follows the burst with an ``op: "flush"``
        so straggler buckets dispatch immediately — deterministic
        co-batch compositions instead of max-wait timing.
        ``on_error="raise"`` raises on the first failed reply;
        ``"return"`` leaves the raw error payload in that slot instead
        (how the backpressure tests observe load shedding).
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', "
                             f"got {on_error!r}")
        ids = []
        for request in requests:
            wire = request_to_wire(request)
            wire["id"] = next(self._ids)
            ids.append(wire["id"])
            self._send(wire)
        flush_id = None
        if flush:
            flush_id = next(self._ids)
            self._send({"op": "flush", "id": flush_id})
        replies: dict[int, dict] = {}
        expected = len(ids) + (1 if flush else 0)
        for _ in range(expected):
            reply = self._recv()
            replies[reply["id"]] = reply
        if flush_id is not None:
            replies.pop(flush_id, None)
        out: list = []
        for request_id in ids:
            reply = replies[request_id]
            if reply.get("ok"):
                out.append(response_from_wire(reply))
            elif on_error == "raise":
                self._raise(reply)
            else:
                out.append(reply)
        return out

"""Multi-process serving fleet: N resident :class:`EmbeddingService`\\ s,
supervised.

One :class:`ServingFleet` owns ``n_workers`` OS processes.  Each worker
builds its own service from a picklable ``builder`` callable, attaches
the shared :class:`~repro.serving.warmup.WarmupPack` (when given) so it
performs **zero record epochs** on start, then loops on a shared task
queue: take one dispatched batch (a list of
:class:`~repro.serving.api.EmbedRequest`\\ s that the frontend's
shape-bucket scheduler already grouped), run it through the resident
service, and push the :class:`~repro.serving.api.EmbedResponse`\\ s back
on the result queue.

Design notes
------------

- **The frontend batches, the workers execute.**  A dispatched group is
  exactly one scheduler bucket's ``take()`` — every request in it shares
  a bucket in the worker's own scheduler too (same
  :class:`~repro.serving.api.FlushPolicy`), so ``service.run`` serves
  the group as the *same single* ``(b, n, d)`` pass an in-process
  service would have used.  That is what makes fleet responses
  bit-identical to :meth:`EmbeddingService.run` on the same trace.
- **The shared task queue load-balances.**  Any idle worker picks up
  the next batch; there is no per-worker routing state to rebalance.
- **Plan caches live on disk and survive restarts.**  Workers point
  their plan cache at ``pack_dir``; anything they record beyond the
  warmed grid is persisted there, so :meth:`restart` (and a full
  process bounce) starts the next fleet just as warm.
- Every result carries the worker's cumulative
  :data:`~repro.nn.RECORD_STATS` total, so a frontend can *prove* the
  fleet never paid a record epoch (the ``serving-smoke`` CI assertion).

Supervision
-----------

Workers die — OOM kills, segfaults, an operator's ``kill -9`` — and a
fleet that assumes they don't strands every batch the dead worker held:
the frontend future never resolves and the dead slot never refills, so
capacity silently decays to zero.  The supervisor closes that hole:

- **Claims** — before serving a task, a worker announces it on the
  result queue (``FleetResult(claim=True)``), so the supervisor knows
  exactly which ``batch_id``\\ s each worker holds in flight.
- **Crash detection** — :meth:`next_result` doubles as the liveness
  watchdog: whenever the result queue goes quiet (and at a bounded
  interval under load) it sweeps ``alive()``, maps each dead worker to
  its claimed batches, and handles both.
- **Batch retry** — a lost (or failed) batch is requeued with
  ``attempt + 1``, up to ``max_attempts``; beyond that the supervisor
  emits a typed failure result the frontend turns into
  :class:`~repro.serving.api.ServingUnavailable`.  Retry is *safe*
  because compiled-plan embedding is deterministic: re-executing a
  batch is bit-identical to executing it once (the chaos tests assert
  exactly that).  Execution is therefore at-least-once — a worker that
  dies after pushing its result may race a requeue — and the
  per-attempt bookkeeping drops the duplicate.
- **Respawn** — dead workers are respawned *in their slot* (same
  worker id, bumped generation), re-running the same builder and
  re-attaching the same pack directory, so a respawned worker comes up
  exactly as warm as a restarted fleet: zero record epochs.  Respawns
  are bounded by ``max_respawns`` (a crash-looping builder must not
  fork-bomb); once the budget is gone and no worker is live the fleet
  is *fully down* and every outstanding batch fails typed.

A deterministic :class:`~repro.faults.FaultPlan` can be threaded into
every worker (including respawned ones) to reproduce each of these
failure modes in tests without racing a real ``kill``; it fires at
``before_batch`` and ``after_batch``.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..faults import FaultPlan
from .api import EmbedRequest, EmbedResponse

__all__ = ["FleetResult", "ServingFleet"]

#: batch_id of the handshake result each worker sends once its resident
#: service is built (and warmed) — before any traffic is accepted.
READY = -1


@dataclass
class FleetResult:
    """One message on the fleet's result queue.

    ``batch_id == READY`` is the start-up handshake; otherwise it echoes
    the id passed to :meth:`ServingFleet.submit`.  ``claim`` marks the
    "I took this batch" announcement a worker sends before serving it
    (consumed by the supervisor, never returned to callers).
    ``responses`` is ``None`` iff the batch failed (``error`` then
    carries the traceback, or the supervisor's lost-batch message).
    ``attempt`` counts executions of this batch (1 = first try);
    ``generation`` counts respawns of the worker's slot (0 = original).
    ``record_epochs`` is the worker's cumulative record count — 0
    forever on a properly warmed fleet — and ``answered`` its service's
    cumulative response count (the per-worker stats plumbing).
    """

    batch_id: int
    worker_id: int
    responses: list[EmbedResponse] | None = None
    error: str | None = None
    record_epochs: int = 0
    attempt: int = 1
    generation: int = 0
    claim: bool = False
    answered: int = 0


@dataclass
class _Outstanding:
    """Supervisor-side record of one dispatched, unanswered batch."""

    batch_id: int
    requests: list
    attempt: int = 1
    claimed_by: int | None = None


def _worker_main(worker_id: int, generation: int, builder: Callable,
                 builder_args: tuple, pack_dir, task_queue, result_queue,
                 fault_plan: FaultPlan | None = None) -> None:
    """Worker process entry point: build, warm, handshake, serve."""
    from ..nn import RECORD_STATS
    from .warmup import WarmupPack
    try:
        service = builder(*builder_args)
        if pack_dir is not None:
            WarmupPack.load(pack_dir).attach(service)
        # Building the model is not serving: only record epochs paid for
        # *traffic* count against the warm path.
        RECORD_STATS.reset()
    except Exception:
        result_queue.put(FleetResult(READY, worker_id, generation=generation,
                                     error=traceback.format_exc()))
        return
    result_queue.put(FleetResult(READY, worker_id, generation=generation))
    task_index = 0
    while True:
        task = task_queue.get()
        if task is None:
            return
        batch_id, attempt, requests = task
        task_index += 1
        # Claim before serving: if this process dies mid-batch, the
        # supervisor knows exactly which batch_id it takes down with it.
        result_queue.put(FleetResult(batch_id, worker_id, claim=True,
                                     attempt=attempt, generation=generation))
        try:
            if fault_plan is not None:
                fault_plan.apply("before_batch", worker_id=worker_id,
                                 batch_id=batch_id, task_index=task_index,
                                 attempt=attempt)
            responses = service.run(requests)
            result_queue.put(FleetResult(batch_id, worker_id,
                                         responses=responses,
                                         record_epochs=RECORD_STATS.total,
                                         attempt=attempt,
                                         generation=generation,
                                         answered=service.answered))
            if fault_plan is not None:
                fault_plan.apply("after_batch", worker_id=worker_id,
                                 batch_id=batch_id, task_index=task_index,
                                 attempt=attempt)
        except Exception:
            result_queue.put(FleetResult(batch_id, worker_id,
                                         error=traceback.format_exc(),
                                         record_epochs=RECORD_STATS.total,
                                         attempt=attempt,
                                         generation=generation,
                                         answered=service.answered))


class ServingFleet:
    """A supervised pool of worker processes, each holding one resident
    service.

    Parameters
    ----------
    builder:
        Zero-side-effect callable returning a fresh
        :class:`EmbeddingService`; runs inside each worker process.
        Must be picklable under the chosen start method (a module-level
        function; ``fork`` also accepts closures).
    builder_args:
        Positional arguments for ``builder``.
    n_workers:
        Fleet size.
    pack_dir:
        Shared :class:`WarmupPack` directory each worker attaches on
        start (also becomes the workers' persistent plan-cache
        directory).  ``None`` skips warm-up — workers then pay record
        epochs for every cold shape.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast start, closure-friendly) and ``spawn``
        elsewhere.
    max_attempts:
        Executions one batch may consume (first try included) before
        the supervisor emits a typed failure instead of requeueing.
    respawn_workers:
        Whether dead workers are respawned in their slot (warm
        re-attach).  ``False`` lets tests observe a decaying fleet.
    max_respawns:
        Total respawn budget across the fleet's lifetime — the
        crash-loop bound.
    fault_plan:
        Optional deterministic :class:`~repro.faults.FaultPlan` threaded
        into every worker, respawned ones included (test harness only);
        a spec at any point but ``before_batch``/``after_batch`` is
        rejected here.
    """

    def __init__(self, builder: Callable, builder_args: Sequence = (), *,
                 n_workers: int = 2, pack_dir=None,
                 start_method: str | None = None, max_attempts: int = 3,
                 respawn_workers: bool = True, max_respawns: int = 8,
                 fault_plan: FaultPlan | None = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        if fault_plan is not None:
            fault_plan.check_fire_points(("before_batch", "after_batch"),
                                         "the serving fleet")
        self.builder = builder
        self.builder_args = tuple(builder_args)
        self.n_workers = n_workers
        self.pack_dir = Path(pack_dir) if pack_dir is not None else None
        self.max_attempts = max_attempts
        self.respawn_workers = respawn_workers
        self.max_respawns = max_respawns
        self.fault_plan = fault_plan
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self._ctx = mp.get_context(start_method)
        self._processes: list = []
        self._generations: list[int] = []
        self._task_queue = None
        self._result_queue = None
        #: Guards the supervisor's shared state: ``submit``/``forget``
        #: run on the frontend's event-loop thread while
        #: ``next_result``'s supervision sweep runs on the pump thread.
        self._lock = threading.Lock()
        self._outstanding: dict[int, _Outstanding] = {}
        self._failed: deque = deque()
        self._handled_dead: set[int] = set()
        self._last_sweep = 0.0
        #: Latest cumulative record-epoch count seen per worker id.
        self.record_epochs: dict[int, int] = {}
        #: Latest cumulative service response count seen per worker id.
        self.worker_answered: dict[int, int] = {}
        self.dispatched = 0
        self.crashes = 0
        self.retries = 0
        self.respawns = 0
        self.failed_batches = 0

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._processes)

    def alive(self) -> list[bool]:
        return [p is not None and p.is_alive() for p in self._processes]

    def live_workers(self) -> int:
        return sum(self.alive())

    def pids(self) -> list[int | None]:
        """Current worker pids by slot (the chaos smoke's kill targets)."""
        return [p.pid if p is not None else None for p in self._processes]

    @property
    def fully_down(self) -> bool:
        """No live worker and no respawn budget left: nothing queued or
        in flight can ever be served — the typed-failure condition."""
        return (self.started and self.live_workers() == 0
                and not (self.respawn_workers
                         and self.respawns < self.max_respawns))

    def _spawn(self, worker_id: int, generation: int):
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, generation, self.builder, self.builder_args,
                  self.pack_dir, self._task_queue, self._result_queue,
                  self.fault_plan),
            daemon=True,
            name=f"repro-serving-worker-{worker_id}.{generation}")
        process.start()
        return process

    def start(self, timeout: float = 120.0) -> None:
        """Spawn the workers and block until every one handshakes ready
        (i.e. its resident service is built and warmed).

        ``timeout`` bounds the **whole** handshake, not each worker's:
        the deadline is fixed once, and every queue wait gets only the
        remaining budget — ``n_workers`` slow builders cannot stretch
        the wait to ``n_workers × timeout``.  A missing or stale
        ``pack_dir`` raises :meth:`WarmupPack.load`'s error before any
        worker spawns.
        """
        if self.started:
            raise RuntimeError("fleet already started")
        if self.pack_dir is not None:
            # A missing or stale pack fails here, once, before any spawn.
            from .warmup import WarmupPack
            WarmupPack.load(self.pack_dir)
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self.record_epochs = {}
        self.worker_answered = {}
        self._outstanding = {}
        self._failed.clear()
        self._handled_dead = set()
        self._generations = [0] * self.n_workers
        for worker_id in range(self.n_workers):
            self._processes.append(self._spawn(worker_id, 0))
        deadline = time.monotonic() + timeout
        ready = 0
        while ready < self.n_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop(graceful=False)
                raise TimeoutError(
                    f"only {ready}/{self.n_workers} workers became ready "
                    f"within {timeout}s")
            try:
                result = self._result_queue.get(timeout=remaining)
            except queue_mod.Empty:
                self.stop(graceful=False)
                raise TimeoutError(
                    f"only {ready}/{self.n_workers} workers became ready "
                    f"within {timeout}s") from None
            if result.batch_id != READY:   # pragma: no cover - defensive
                continue
            if result.error is not None:
                self.stop(graceful=False)
                raise RuntimeError(
                    f"worker {result.worker_id} failed to start:\n"
                    f"{result.error}")
            self.record_epochs[result.worker_id] = result.record_epochs
            ready += 1

    def submit(self, batch_id: int, requests: list[EmbedRequest]) -> None:
        """Queue one scheduler-grouped batch for the next idle worker."""
        if not self.started:
            raise RuntimeError("fleet not started")
        requests = list(requests)
        with self._lock:
            self._outstanding[batch_id] = _Outstanding(batch_id, requests)
        self._task_queue.put((batch_id, 1, requests))
        self.dispatched += 1

    def forget(self, batch_id: int) -> None:
        """Drop a batch from supervision (the frontend's deadline path):
        a result that eventually arrives for it is silently discarded,
        and a crash can no longer trigger its requeue."""
        with self._lock:
            self._outstanding.pop(batch_id, None)

    # ------------------------------------------------------------------
    # Result pump + supervision
    # ------------------------------------------------------------------
    def next_result(self, timeout: float | None = None) -> FleetResult:
        """Block for the next finished batch (``queue.Empty`` on
        timeout).

        This is also the supervision heartbeat: claim messages are
        absorbed into the in-flight map, worker-error results are
        requeued while attempts remain (the caller never sees a retried
        failure), and whenever the queue goes quiet — or at least every
        0.25 s under load — :meth:`supervise` sweeps for dead workers,
        requeues their lost batches and respawns their slots.  Callers
        therefore only ever see terminal results: a served batch, or a
        typed failure that exhausted its attempts.
        """
        if not self.started:
            raise queue_mod.Empty
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        while True:
            with self._lock:
                if self._failed:
                    return self._failed.popleft()
            if time.monotonic() - self._last_sweep > 0.25:
                self.supervise()
                continue
            wait = 0.05
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    self.supervise()
                    with self._lock:
                        if self._failed:
                            return self._failed.popleft()
                    raise queue_mod.Empty
            try:
                result = self._result_queue.get(timeout=wait)
            except queue_mod.Empty:
                self.supervise()
                continue
            terminal = self._absorb(result)
            if terminal is not None:
                return terminal

    def _absorb(self, result: FleetResult) -> FleetResult | None:
        """Fold one queue message into supervisor state; return it only
        if it is terminal (served, or failed for good)."""
        current_gen = (result.worker_id < len(self._generations)
                       and self._generations[result.worker_id]
                       == result.generation)
        if result.batch_id == READY:
            if result.error is None and current_gen:
                self.record_epochs[result.worker_id] = result.record_epochs
            # A failed (re)spawn leaves a dead process behind; the next
            # supervision sweep sees it and spends respawn budget on it.
            return None
        if result.claim:
            with self._lock:
                out = self._outstanding.get(result.batch_id)
                if out is None or out.attempt != result.attempt:
                    return None
                if current_gen and result.worker_id not in self._handled_dead:
                    out.claimed_by = result.worker_id
                    return None
                # Claimed by a worker that is already known-dead (its
                # death was handled before this claim surfaced): the
                # batch is lost right now, not at the next crash.
                return self._lost_batch_locked(out, result.worker_id)
        with self._lock:
            out = self._outstanding.get(result.batch_id)
            if out is None or out.attempt != result.attempt:
                return None   # late duplicate of a retried/forgotten batch
            if result.error is not None:
                terminal = self._lost_batch_locked(out, result.worker_id,
                                                   error=result.error)
            else:
                self._outstanding.pop(result.batch_id, None)
                terminal = result
        if current_gen:
            self.record_epochs[result.worker_id] = result.record_epochs
            self.worker_answered[result.worker_id] = result.answered
        return terminal

    def _lost_batch_locked(self, out: _Outstanding, worker_id: int,
                           error: str | None = None) -> FleetResult | None:
        """Requeue a lost/failed batch, or fail it typed once attempts
        are exhausted (or nothing is left to serve it).  Caller holds
        the lock; returns the terminal failure result, if any."""
        if out.attempt < self.max_attempts and not self.fully_down:
            out.attempt += 1
            out.claimed_by = None
            self.retries += 1
            self._task_queue.put((out.batch_id, out.attempt, out.requests))
            return None
        self._outstanding.pop(out.batch_id, None)
        self.failed_batches += 1
        reason = error if error is not None else "worker died mid-batch"
        return FleetResult(
            out.batch_id, worker_id, attempt=out.attempt,
            error=f"batch {out.batch_id} failed after {out.attempt} "
                  f"attempt(s): {reason}")

    def supervise(self) -> None:
        """One liveness sweep: detect dead workers, requeue their
        claimed batches, respawn their slots (budget permitting), and
        fail everything outstanding once the fleet is fully down."""
        self._last_sweep = time.monotonic()
        if not self.started:
            return
        for worker_id, process in enumerate(self._processes):
            if process is None or process.is_alive():
                continue
            if worker_id in self._handled_dead:
                continue
            process.join(timeout=0)   # reap
            self.crashes += 1
            self._handled_dead.add(worker_id)
            with self._lock:
                lost = [out for out in self._outstanding.values()
                        if out.claimed_by == worker_id]
                for out in lost:
                    failure = self._lost_batch_locked(out, worker_id)
                    if failure is not None:
                        self._failed.append(failure)
            if self.respawn_workers and self.respawns < self.max_respawns:
                self.respawns += 1
                self._generations[worker_id] += 1
                self._processes[worker_id] = self._spawn(
                    worker_id, self._generations[worker_id])
                self._handled_dead.discard(worker_id)
        if self.fully_down:
            with self._lock:
                for out in list(self._outstanding.values()):
                    failure = self._lost_batch_locked(out, -1)
                    if failure is not None:
                        self._failed.append(failure)

    def claims(self) -> dict[int, int]:
        """``batch_id -> worker_id`` for every claimed in-flight batch
        (how the chaos smoke targets its external ``kill -9`` at the
        worker that is provably mid-batch)."""
        with self._lock:
            return {out.batch_id: out.claimed_by
                    for out in self._outstanding.values()
                    if out.claimed_by is not None}

    def total_record_epochs(self) -> int:
        """Record epochs paid across the fleet since start — the number
        the warm-path smoke asserts is zero."""
        return sum(self.record_epochs.values())

    def supervision_report(self) -> dict:
        """Crash/retry/respawn counters plus the live in-flight picture
        — the ``stats()`` payload the frontend surfaces."""
        with self._lock:
            outstanding = len(self._outstanding)
        return {
            "live": self.live_workers(),
            "crashes": self.crashes,
            "retries": self.retries,
            "respawns": self.respawns,
            "max_respawns": self.max_respawns,
            "failed_batches": self.failed_batches,
            "max_attempts": self.max_attempts,
            "outstanding": outstanding,
            "fully_down": self.fully_down,
            "fault_specs": len(self.fault_plan) if self.fault_plan else 0,
        }

    # ------------------------------------------------------------------
    def stop(self, graceful: bool = True, timeout: float = 10.0) -> None:
        """Shut the workers down.

        ``graceful`` sends one sentinel per worker so each finishes its
        in-flight batch first; stragglers (and ``graceful=False``) are
        terminated.  The on-disk plan cache under ``pack_dir`` is
        untouched either way — that is the restart-preserving contract.
        """
        if not self.started:
            return
        if graceful:
            for _ in self._processes:
                try:
                    self._task_queue.put(None)
                except (ValueError, OSError):   # pragma: no cover
                    break
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=timeout if graceful else 0.1)
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._processes = []
        self._generations = []
        self._task_queue = None
        self._result_queue = None
        self._handled_dead = set()
        with self._lock:
            self._outstanding = {}
            self._failed.clear()

    def restart(self, timeout: float = 120.0) -> None:
        """Graceful stop + fresh start.  With a ``pack_dir`` the new
        workers re-attach the on-disk plan cache and come up just as
        warm — zero record epochs across the bounce."""
        self.stop(graceful=True)
        self.start(timeout=timeout)

    def __enter__(self) -> "ServingFleet":
        if not self.started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop(graceful=True)

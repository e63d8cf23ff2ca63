"""Fault-tolerance tests: the fleet supervisor under deterministic chaos.

Every failure mode the supervisor handles is reproduced here with a
:class:`~repro.faults.FaultPlan` instead of a racing ``kill`` from a
shell: workers killed mid-batch (crash → retry → respawn), batches that
raise (bounded retry → typed exhaustion), stragglers (the frontend's
per-batch deadline), a decayed fleet (degraded admission, fully-down
typed unavailability) — plus the client-side retry/backoff/reconnect
loop against a scripted server.  The plan's own semantics are pinned in
``tests/test_fault_plan.py``.

The headline assertion mirrors the serving suite's tentpole: a mixed
trace served through a fleet whose worker is **killed mid-trace** (and
another batch delayed) completes **bit-identical** to the fault-free
in-process reference, with zero record epochs — including on the
respawned worker, which re-attaches the same warm-up pack.
"""

import json
import queue as queue_mod
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import HAFusionConfig
from repro.faults import FaultPlan
from repro.serving import (
    AdmissionError,
    EmbedRequest,
    EmbedResponse,
    EmbeddingService,
    FlushPolicy,
    FrontendClient,
    FrontendThread,
    ServingFleet,
    ServingFrontend,
    ServingUnavailable,
    WarmupPack,
    request_to_wire,
    response_to_wire,
)
from serving_utils import TINY, make_views

#: Shared frontend/worker policy (same reasons as test_frontend).
_POLICY = FlushPolicy(max_batch=3, max_wait=30.0, bucket_edges=(4, 8, 16))
_SEED = 11


def build_tiny_service() -> EmbeddingService:
    return EmbeddingService.build([make_views(16)], HAFusionConfig(**TINY),
                                  seed=_SEED, policy=_POLICY)


def chaos_trace() -> list[EmbedRequest]:
    """Mixed trace for the kill-mid-trace test: under ``_POLICY`` the
    frontend dispatches it as four deterministic batches — the full
    ``[6, 7, 8]`` co-batch (batch 1), then the flush remainders
    ``[5, 6]`` (batch 2), ``[3, 4]`` float32 (batch 3) and ``[16]``
    (batch 4)."""
    specs = [
        (6, None), (3, "float32"), (7, None), (16, None),
        (4, "float32"), (8, None), (5, None), (6, None),
    ]
    return [EmbedRequest(make_views(n, seed=300 + i), dtype=dtype,
                         name=f"chaos{i}")
            for i, (n, dtype) in enumerate(specs)]


def pair_batch() -> list[EmbedRequest]:
    """The two-request batch the direct fleet tests submit."""
    return [EmbedRequest(make_views(6, seed=70), name="pair-a"),
            EmbedRequest(make_views(6, seed=71), name="pair-b")]


def make_frontend(fleet: ServingFleet, **kwargs) -> ServingFrontend:
    kwargs.setdefault("n_max", 16)
    kwargs.setdefault("view_dims", (12, 6))
    kwargs.setdefault("view_names", ("mobility", "poi"))
    kwargs.setdefault("policy", _POLICY)
    return ServingFrontend(fleet, **kwargs)


@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    """Warm-up pack + fault-free in-process references.  Running the
    traces through the pack-building service persists every co-batch
    composition's plan spec on disk, so the fleets (respawned workers
    included) provably never record."""
    pack_dir = tmp_path_factory.mktemp("faults_pack")
    service = build_tiny_service()
    WarmupPack.build(service, directory=pack_dir)
    trace_reference = service.run(chaos_trace())
    pair_reference = service.run(pair_batch())
    return {"dir": pack_dir, "trace": trace_reference,
            "pair": pair_reference}


def make_fleet(pack, **kwargs) -> ServingFleet:
    kwargs.setdefault("n_workers", 2)
    return ServingFleet(build_tiny_service, pack_dir=pack["dir"], **kwargs)


def assert_pair_served(result, pack) -> None:
    assert result.error is None
    assert [r.name for r in result.responses] == ["pair-a", "pair-b"]
    for got, want in zip(result.responses, pack["pair"]):
        assert np.array_equal(got.embeddings, want.embeddings)


# ----------------------------------------------------------------------
# Fleet supervisor (direct submit/next_result, no frontend)
# ----------------------------------------------------------------------

class TestSupervisor:

    def test_failed_batch_is_retried_transparently(self, pack):
        """A worker exception costs one retry, not the answer: the
        caller sees only the terminal served result."""
        plan = FaultPlan().fail("before_batch", batch_id=7)
        with make_fleet(pack, n_workers=1, fault_plan=plan) as fleet:
            fleet.submit(7, pair_batch())
            result = fleet.next_result(timeout=60)
            assert_pair_served(result, pack)
            assert result.attempt == 2
            assert fleet.retries == 1
            assert fleet.crashes == 0
            assert fleet.failed_batches == 0
            assert fleet.total_record_epochs() == 0

    def test_retry_exhaustion_is_a_typed_failure(self, pack):
        plan = FaultPlan().fail("before_batch", batch_id=9, attempt=None)
        with make_fleet(pack, n_workers=1, max_attempts=2,
                        fault_plan=plan) as fleet:
            fleet.submit(9, pair_batch())
            result = fleet.next_result(timeout=60)
            assert result.responses is None
            assert "failed after 2 attempt(s)" in result.error
            assert "InjectedFault" in result.error
            assert fleet.retries == 1
            assert fleet.failed_batches == 1

    def test_killed_worker_batch_retried_and_slot_respawned(self, pack):
        """The crash path end to end: SIGKILL mid-batch → the claimed
        batch requeues onto a live worker, the dead slot respawns warm,
        and the fleet ends at full strength with zero record epochs."""
        # The short delay lets the claim message flush to the queue
        # before the process dies with it.
        plan = (FaultPlan().delay("before_batch", 0.05, batch_id=5)
                .kill("before_batch", batch_id=5))
        with make_fleet(pack, n_workers=2, fault_plan=plan) as fleet:
            fleet.submit(5, pair_batch())
            result = fleet.next_result(timeout=60)
            assert_pair_served(result, pack)
            assert result.attempt == 2
            assert fleet.crashes == 1
            assert fleet.retries == 1
            assert fleet.respawns == 1
            deadline = time.monotonic() + 60
            while fleet.live_workers() < 2:
                assert time.monotonic() < deadline
                try:
                    fleet.next_result(timeout=0.2)   # absorb the READY
                except queue_mod.Empty:
                    pass
            assert fleet.total_record_epochs() == 0
            assert not fleet.fully_down

    def test_fully_down_fleet_fails_outstanding_typed(self, pack):
        """No live worker and no respawn budget: outstanding batches
        fail typed instead of waiting on attempts nobody can serve."""
        plan = (FaultPlan().delay("before_batch", 0.05, batch_id=3)
                .kill("before_batch", batch_id=3))
        with make_fleet(pack, n_workers=1, respawn_workers=False,
                        fault_plan=plan) as fleet:
            fleet.submit(3, pair_batch())
            result = fleet.next_result(timeout=60)
            assert result.responses is None
            assert "worker died mid-batch" in result.error
            assert fleet.fully_down
            assert fleet.crashes == 1
            assert fleet.respawns == 0
            report = fleet.supervision_report()
            assert report["live"] == 0
            assert report["fully_down"] is True
            assert report["failed_batches"] == 1

    def test_forgotten_batch_result_is_discarded(self, pack):
        """forget() (the frontend deadline path) makes the dispatch
        terminal: the late result is dropped, not delivered."""
        plan = FaultPlan().delay("before_batch", 0.3, batch_id=4)
        with make_fleet(pack, n_workers=1, fault_plan=plan) as fleet:
            fleet.submit(4, pair_batch())
            fleet.forget(4)
            with pytest.raises(queue_mod.Empty):
                fleet.next_result(timeout=1.0)
            assert fleet.failed_batches == 0

    def test_start_timeout_is_one_overall_deadline(self, tmp_path):
        """Regression: the ready-wait used to grant each worker its own
        ``timeout`` window, so ``n_workers`` stragglers stretched
        ``start(timeout=1)`` to ``n_workers`` seconds of waiting.  With
        one overall deadline the staggered builders below (ready at
        ~0 s, ~0.7 s, ~1.4 s) must trip it — the old per-worker wait
        would have succeeded instead."""
        fleet = ServingFleet(_staggered_builder, (str(tmp_path),),
                             n_workers=3)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="workers became ready"):
            fleet.start(timeout=1.0)
        assert time.monotonic() - started < 3.0
        assert not fleet.started

    def test_missing_pack_fails_preflight(self, tmp_path):
        """A missing pack directory fails once in the parent, before
        any worker is spawned."""
        fleet = ServingFleet(build_tiny_service, n_workers=2,
                             pack_dir=tmp_path / "no_such_pack")
        with pytest.raises(FileNotFoundError, match="warm-up pack"):
            fleet.start()
        assert not fleet.started

    def test_stale_pack_fails_preflight(self, pack, tmp_path):
        """A version-1 pack holds every co-batch at ``n_max``, a width
        flushes no longer ask for: a worker attached to it would record
        under live traffic.  The parent refuses it once, before any
        worker is spawned."""
        stale = json.loads((pack["dir"] / "warmup_pack.json").read_text())
        stale["version"] = 1
        (tmp_path / "warmup_pack.json").write_text(json.dumps(stale))
        fleet = ServingFleet(build_tiny_service, n_workers=2,
                             pack_dir=tmp_path)
        with pytest.raises(ValueError, match="warm-up pack version 1"):
            fleet.start()
        assert not fleet.started
        assert fleet.pids() == []


def _staggered_builder(flag_dir: str):
    """Worker builder whose i-th caller takes ~0.7·i seconds: the
    slot claim is an O_EXCL file create, so the stagger is process-safe
    under any start method."""
    import os
    slot = 0
    for slot in range(16):
        try:
            os.close(os.open(os.path.join(flag_dir, f"slot{slot}"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            break
        except FileExistsError:
            continue
    time.sleep(0.7 * slot)
    return None   # never serves a batch; only the READY handshake matters


# ----------------------------------------------------------------------
# Frontend under chaos
# ----------------------------------------------------------------------

class TestFrontendChaos:

    def test_kill_and_delay_mid_trace_is_bit_identical(self, pack):
        """The acceptance gate: one worker killed and one batch delayed
        mid-trace, yet the trace completes bit-identical to the
        fault-free in-process reference — no hung client, no record
        epoch (the respawned worker re-attached the pack), and the
        fleet ends at full strength."""
        plan = (FaultPlan()
                .delay("before_batch", 0.2, batch_id=1)     # straggler
                .delay("before_batch", 0.05, batch_id=2)
                .kill("before_batch", batch_id=2))          # crash
        fleet = make_fleet(pack, n_workers=2, fault_plan=plan)
        harness = FrontendThread(make_frontend(fleet)).start()
        try:
            with harness.client() as client:
                responses = client.embed_many(chaos_trace())
                stats = client.stats()
        finally:
            harness.stop()
        assert len(responses) == len(pack["trace"])
        for got, want in zip(responses, pack["trace"]):
            assert got.name == want.name
            assert got.embeddings.dtype == want.embeddings.dtype
            assert np.array_equal(got.embeddings, want.embeddings)
            assert got.bucket_id == want.bucket_id
            assert got.batch_size == want.batch_size
        assert stats["served"] == len(pack["trace"])
        assert stats["errors"] == 0
        fleet_stats = stats["fleet"]
        assert fleet_stats["crashes"] == 1
        assert fleet_stats["respawns"] == 1
        assert fleet_stats["retries"] >= 1
        assert fleet_stats["failed_batches"] == 0
        assert fleet_stats["live"] == 2
        assert fleet_stats["record_epochs"] == 0

    def test_batch_deadline_fails_typed_then_recovers(self, pack):
        """A wedged batch cannot hang its futures: past
        ``batch_deadline`` the waiters fail typed (``unavailable`` with
        a retry hint), the late result is discarded, and the next
        dispatch serves normally."""
        plan = FaultPlan().delay("before_batch", 1.5, batch_id=1)
        fleet = make_fleet(pack, n_workers=1, fault_plan=plan)
        harness = FrontendThread(
            make_frontend(fleet, batch_deadline=0.4)).start()
        try:
            with harness.client() as client:
                out = client.embed_many(
                    [EmbedRequest(make_views(6, seed=60), name="late")],
                    on_error="return")
                reply = out[0]
                assert isinstance(reply, dict)
                assert reply["error"] == "unavailable"
                assert "deadline" in reply["message"]
                assert reply["retry_after"] == pytest.approx(
                    _POLICY.max_wait)
                time.sleep(1.3)   # let the wedged worker finish batch 1
                retried = client.embed_many(
                    [EmbedRequest(make_views(6, seed=60), name="late")])
                stats = client.stats()
        finally:
            harness.stop()
        assert retried[0].embeddings.shape == (6, TINY["d"])
        assert stats["deadline_failures"] == 1
        assert stats["unavailable"] == 1
        assert stats["served"] == 1

    def test_degraded_fleet_sheds_earlier(self, pack):
        """Half the fleet dead (respawn off) halves the effective
        queue-depth bound: a burst that a healthy fleet would absorb is
        partially shed, with the degradation named in the message."""
        plan = (FaultPlan().delay("before_batch", 0.05, batch_id=1)
                .kill("before_batch", batch_id=1))
        fleet = make_fleet(pack, n_workers=2, respawn_workers=False,
                           fault_plan=plan)
        harness = FrontendThread(
            make_frontend(fleet, max_queue_depth=4)).start()
        try:
            with harness.client() as client:
                first = client.embed_many(
                    [EmbedRequest(make_views(6, seed=62), name="seed")],
                    on_error="return")
                # Served via retry on the surviving worker.
                assert isinstance(first[0], EmbedResponse)
                deadline = time.monotonic() + 30
                while not client.stats()["degraded"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                burst = [EmbedRequest(make_views(6, seed=63 + i),
                                      name=f"burst{i}") for i in range(5)]
                out = client.embed_many(burst, on_error="return")
                stats = client.stats()
        finally:
            harness.stop()
        served = [r for r in out if isinstance(r, EmbedResponse)]
        shed = [r for r in out if isinstance(r, dict)]
        # max_queue_depth 4 × (1 live / 2 workers) = effective depth 2.
        assert len(served) == 2
        assert len(shed) == 3
        for reply in shed:
            assert reply["error"] == "overload"
            assert "degraded" in reply["message"]
        assert stats["degraded"] is True
        assert stats["fleet"]["live"] == 1
        assert stats["fleet"]["crashes"] == 1

    def test_stop_fails_inflight_futures_typed(self, pack):
        """Regression: stopping the frontend with a request in flight
        used to leave its future pending forever (the client blocked
        until socket timeout).  Now the drain is bounded and whatever
        remains is failed with a typed ``unavailable`` reply."""
        plan = FaultPlan().delay("before_batch", 2.0, batch_id=1)
        fleet = make_fleet(pack, n_workers=1, fault_plan=plan)
        harness = FrontendThread(
            make_frontend(fleet, drain_timeout=0.2)).start()
        client = harness.client()
        stopped = False
        try:
            wire = request_to_wire(
                EmbedRequest(make_views(6, seed=61), name="stuck"))
            wire["id"] = 1
            client._send(wire)
            client._send({"op": "flush", "id": 2})
            flush_reply = client._recv()   # confirms the dispatch
            assert flush_reply["id"] == 2
            assert flush_reply["dispatched"] == 1
            harness.stop()
            stopped = True
            reply = client._recv()
            assert reply["id"] == 1
            assert reply["ok"] is False
            assert reply["error"] == "unavailable"
            assert "stopped" in reply["message"]
        finally:
            client.close()
            if not stopped:
                harness.stop()


# ----------------------------------------------------------------------
# Client retry/backoff/reconnect (scripted server, no fleet)
# ----------------------------------------------------------------------

def _ok_reply() -> dict:
    return response_to_wire(EmbedResponse(
        request_id=1, name="ok", embeddings=np.zeros((3, 4)),
        bucket_id="n4/d12x6/model", n_regions=3, batch_size=1, padded=True,
        padding_waste=0.0, plan_event="hit", wait_seconds=0.0,
        compute_seconds=0.0))


class _ScriptedServer:
    """Plays a script of connections: each entry is a list of replies
    (one per received line) or ``"drop"`` (read one line, then close the
    connection without answering — the mid-restart frontend)."""

    def __init__(self, connections):
        self.connections = connections
        self.requests_seen = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for script in self.connections:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            # The file object holds its own reference to the socket, so
            # it must close too or the client never sees EOF on "drop".
            with conn, conn.makefile("rb") as rfile:
                if script == "drop":
                    if rfile.readline():
                        self.requests_seen += 1
                    continue
                for reply in script:
                    if not rfile.readline():
                        break
                    self.requests_seen += 1
                    conn.sendall(json.dumps(reply).encode("utf-8") + b"\n")
                rfile.readline()   # hold until the client hangs up

    def close(self):
        try:
            self._sock.close()
        except OSError:   # pragma: no cover
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TestClientRetry:

    def test_overload_retried_after_retry_after(self):
        script = [[{"ok": False, "error": "overload", "message": "shed",
                    "retry_after": 0.01},
                   _ok_reply()]]
        with _ScriptedServer(script) as server:
            with FrontendClient("127.0.0.1", server.port, retries=2,
                                backoff=0.01) as client:
                response = client.embed(EmbedRequest(make_views(3, seed=1)))
            assert response.name == "ok"
            assert server.requests_seen == 2

    def test_reconnects_after_connection_drop(self):
        script = ["drop", [_ok_reply()]]
        with _ScriptedServer(script) as server:
            with FrontendClient("127.0.0.1", server.port, retries=2,
                                backoff=0.01) as client:
                response = client.embed(EmbedRequest(make_views(3, seed=2)))
                assert not client.closed
            assert response.name == "ok"
            assert server.requests_seen == 2

    def test_permanent_rejection_is_never_retried(self):
        script = [[{"ok": False, "error": "oversize", "message": "too big",
                    "retry_after": None}]]
        with _ScriptedServer(script) as server:
            with FrontendClient("127.0.0.1", server.port, retries=3,
                                backoff=0.01) as client:
                with pytest.raises(AdmissionError) as excinfo:
                    client.embed(EmbedRequest(make_views(3, seed=3)))
            assert excinfo.value.reason == "oversize"
            assert server.requests_seen == 1

    def test_unavailable_exhausts_into_typed_error(self):
        unavailable = {"ok": False, "error": "unavailable",
                       "message": "fleet down", "retry_after": 0.01}
        with _ScriptedServer([[unavailable, unavailable]]) as server:
            with FrontendClient("127.0.0.1", server.port, retries=1,
                                backoff=0.01) as client:
                with pytest.raises(ServingUnavailable) as excinfo:
                    client.embed(EmbedRequest(make_views(3, seed=4)))
            assert excinfo.value.retry_after == pytest.approx(0.01)
            assert server.requests_seen == 2

    def test_close_is_idempotent_and_reconnect_revives(self):
        with _ScriptedServer([[], [{"ok": True, "pong": True}]]) as server:
            client = FrontendClient("127.0.0.1", server.port)
            client.close()
            client.close()   # idempotent
            assert client.closed
            with pytest.raises(ConnectionError, match="closed"):
                client.call({"op": "ping"})
            client.reconnect()
            assert not client.closed
            assert client.ping()
            client.close()

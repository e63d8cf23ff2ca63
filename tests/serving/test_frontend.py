"""Integration tests for the network serving frontend + worker fleet.

The tentpole contract under test: a trace replayed through the NDJSON
socket against a 2-worker :class:`ServingFleet` warmed from a shared
:class:`WarmupPack` must come back **bit-identical** to the in-process
:meth:`EmbeddingService.run` on the same requests, with **zero record
epochs** across the fleet — plus the admission-control/backpressure and
graceful-restart behavior around it.

The suite is stdlib-only async: the frontend runs on a private event
loop in a background thread (:class:`FrontendThread` — no
pytest-asyncio), driven through the blocking :class:`FrontendClient`
exactly the way scripts and the smoke job drive it.
"""

import json

import numpy as np
import pytest

from repro.core import HAFusionConfig
from repro.serving import (
    AdmissionError,
    EmbedRequest,
    EmbedResponse,
    EmbeddingService,
    FlushPolicy,
    FrontendThread,
    ServingFleet,
    ServingFrontend,
    WarmupPack,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from serving_utils import TINY, make_views

#: One policy for frontend and workers — equal policies are what make a
#: dispatched co-batch re-batch identically inside the worker.
#: ``max_wait`` is high so only explicit ``flush`` ops dispatch
#: stragglers (deterministic compositions, no timing dependence).
_POLICY = FlushPolicy(max_batch=3, max_wait=30.0, bucket_edges=(4, 8, 16))
_SEED = 11


def build_tiny_service() -> EmbeddingService:
    """Worker builder: module-level so it pickles under any start
    method; deterministic seed so every worker holds the same model as
    the in-process reference service."""
    return EmbeddingService.build([make_views(16)], HAFusionConfig(**TINY),
                                  seed=_SEED, policy=_POLICY)


def make_trace() -> list[EmbedRequest]:
    """Mixed replay trace: ragged sizes, dtype-mixed, region subsets.

    No explicit float64 requests: the frontend labels default-dtype
    buckets ``"model"`` while a service labels them with the concrete
    model dtype, so an explicit ``float64`` would co-batch with defaults
    in-process but not at the frontend — a composition (not a
    correctness) difference the bit-identity comparison must not trip
    over.
    """
    specs = [
        (6, None, None),
        (3, "float32", None),
        (16, None, None),
        (7, None, [0, 3, 5]),
        (4, "float32", None),
        (12, None, None),
        (6, "float32", [1, 2]),
        (8, None, None),
        (5, None, None),
        (16, "float32", None),
    ]
    return [EmbedRequest(make_views(n, seed=100 + i), dtype=dtype,
                         region_subset=subset, name=f"city{i}")
            for i, (n, dtype, subset) in enumerate(specs)]


def make_frontend(fleet: ServingFleet, **kwargs) -> ServingFrontend:
    kwargs.setdefault("n_max", 16)
    kwargs.setdefault("view_dims", (12, 6))
    kwargs.setdefault("view_names", ("mobility", "poi"))
    kwargs.setdefault("policy", _POLICY)
    return ServingFrontend(fleet, **kwargs)


def _response(embeddings: np.ndarray) -> EmbedResponse:
    return EmbedResponse(
        request_id=1, name="", embeddings=embeddings,
        bucket_id="n8/d12x6/model", n_regions=len(embeddings), batch_size=1,
        padded=True, padding_waste=0.0, plan_event="hit",
        wait_seconds=0.0, compute_seconds=0.0)


#: Ways to break a wire matrix object, given it and the (6, 12) float64
#: matrix it encodes; each must decode to a typed ``bad_request``.
MALFORMED_MATRICES = {
    "alphabet": lambda m, a: dict(m, data="*" + m["data"][1:]),
    "alphabet_urlsafe": lambda m, a: dict(m, data="-_" + m["data"][2:]),
    "truncated": lambda m, a: dict(m, data=m["data"][:-4]),
    "truncated_padded": lambda m, a: dict(m, data=m["data"][:-2] + "=="),
    "overlong": lambda m, a: dict(m, data=m["data"] + "AAAA"),
    "dtype_big_endian": lambda m, a: dict(m, dtype=">f8"),
    "dtype_int": lambda m, a: dict(m, dtype="<i8"),
    "dtype_object": lambda m, a: dict(m, dtype="|O"),
    "shape_1d": lambda m, a: dict(m, shape=[72]),
    "shape_3d": lambda m, a: dict(m, shape=[1, 6, 12]),
    "shape_negative": lambda m, a: dict(m, shape=[-6, -12]),
    "shape_float": lambda m, a: dict(m, shape=[6.0, 12]),
    "shape_string": lambda m, a: dict(m, shape=[6, "12"]),
    "shape_huge": lambda m, a: dict(m, shape=[10**9, 10**9]),
    "nested_list": lambda m, a: a.tolist(),
}


def malformed_request(case: str) -> dict:
    """An embed payload whose first view matrix is broken as ``case``."""
    views = make_views(6)
    wire = json.loads(json.dumps(request_to_wire(EmbedRequest(views))))
    matrices = wire["views"]["matrices"]
    matrices[0] = MALFORMED_MATRICES[case](matrices[0], views.matrices[0])
    return wire


# ----------------------------------------------------------------------
# Wire codecs (no fleet needed)
# ----------------------------------------------------------------------

class TestWireCodecs:

    def test_request_roundtrip_is_bit_identical(self):
        request = EmbedRequest(make_views(7, seed=3), dtype="float32",
                               region_subset=[2, 0], name="chi")
        wire = json.loads(json.dumps(request_to_wire(request)))
        decoded = request_from_wire(wire)
        assert decoded.name == "chi"
        assert decoded.dtype == np.float32
        assert decoded.region_subset == [2, 0]
        assert decoded.views.names == request.views.names
        for a, b in zip(decoded.views.matrices, request.views.matrices):
            assert a.dtype == np.float64
            assert a.tobytes() == b.tobytes()   # the bytes themselves travel

    def test_response_roundtrip_preserves_dtype_and_shape(self):
        embeddings = np.random.default_rng(0).standard_normal(
            (4, 8)).astype(np.float32)
        response = EmbedResponse(
            request_id=9, name="nyc", embeddings=embeddings,
            bucket_id="n8/d12x6/float32", n_regions=4, batch_size=2,
            padded=True, padding_waste=0.25, plan_event="disk",
            wait_seconds=0.5, compute_seconds=0.1)
        wire = json.loads(json.dumps(response_to_wire(response)))
        assert wire["ok"] is True
        decoded = response_from_wire(wire)
        assert decoded.embeddings.dtype == np.float32
        assert decoded.embeddings.shape == (4, 8)
        assert np.array_equal(decoded.embeddings, embeddings)
        assert decoded.plan_event == "disk"
        assert decoded.batch_size == 2

    def test_empty_subset_keeps_embedding_width(self):
        wire = response_to_wire(_response(np.zeros((0, 8), np.float32)))
        # The matrix object carries shape and dtype; the reply has no
        # separate fields for them.
        assert wire["embeddings"] == {"dtype": "<f4", "shape": [0, 8],
                                      "data": ""}
        assert "shape" not in wire and "dtype" not in wire
        decoded = response_from_wire(wire)
        assert decoded.embeddings.shape == (0, 8)
        assert decoded.embeddings.dtype == np.float32

    def test_malformed_payload_is_typed(self):
        with pytest.raises(AdmissionError) as excinfo:
            request_from_wire({"op": "embed", "views": {"names": ["m"]}})
        assert excinfo.value.reason == "bad_request"

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
    def test_malformed_matrix_is_typed(self, case):
        wire = malformed_request(case)
        with pytest.raises(AdmissionError) as excinfo:
            request_from_wire(wire)
        assert excinfo.value.reason == "bad_request"
        response = response_to_wire(_response(np.zeros((3, 2))))
        response["embeddings"] = wire["views"]["matrices"][0]
        with pytest.raises(AdmissionError) as excinfo:
            response_from_wire(response)
        assert excinfo.value.reason == "bad_request"

    def test_huge_claimed_shape_is_rejected_before_allocating(self):
        import tracemalloc
        wire = malformed_request("shape_huge")
        tracemalloc.start()
        try:
            with pytest.raises(AdmissionError):
                request_from_wire(wire)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_embedding_dtype_the_wire_cannot_carry_is_typed(self):
        wire = request_to_wire(EmbedRequest(make_views(4), dtype="float16"))
        with pytest.raises(AdmissionError) as excinfo:
            request_from_wire(wire)
        assert excinfo.value.reason == "bad_request"


# ----------------------------------------------------------------------
# Frontend + fleet integration
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    """Deploy-time warm-up: pack the shape grid, then play the replay
    trace through the pack-building service so every serve-time co-batch
    composition has an on-disk plan spec.  The same run doubles as the
    in-process reference for the bit-identity assertions."""
    pack_dir = tmp_path_factory.mktemp("warm_pack")
    service = build_tiny_service()
    WarmupPack.build(service, directory=pack_dir)
    reference = service.run(make_trace())
    # Warm the other compositions this suite serves (the dtype-mixed
    # [6, 6] co-batch and the single-n6 straggler flush), so the shared
    # stack's record-epoch counter stays provably zero end to end.
    service.run([EmbedRequest(make_views(6, seed=90)),
                 EmbedRequest(make_views(6, seed=91))])
    service.run([EmbedRequest(make_views(6, seed=92))])
    return {"dir": pack_dir, "reference": reference}


@pytest.fixture(scope="module")
def stack(pack):
    fleet = ServingFleet(build_tiny_service, n_workers=2,
                         pack_dir=pack["dir"])
    harness = FrontendThread(make_frontend(fleet)).start()
    yield harness
    harness.stop()


class TestFrontendServing:

    def test_trace_is_bit_identical_to_in_process(self, stack, pack):
        """The tentpole assertion: socket → frontend scheduler → fleet
        worker → socket reproduces EmbeddingService.run bit-for-bit,
        without a single record epoch."""
        with stack.client() as client:
            responses = client.embed_many(make_trace())
        reference = pack["reference"]
        assert len(responses) == len(reference)
        for got, want in zip(responses, reference):
            assert got.name == want.name
            assert got.embeddings.dtype == want.embeddings.dtype
            assert got.embeddings.shape == want.embeddings.shape
            assert np.array_equal(got.embeddings, want.embeddings)
            assert got.bucket_id == want.bucket_id
            assert got.batch_size == want.batch_size
            # Warm path end to end: specs relowered, never recorded.
            assert got.plan_event in ("hit", "spec", "disk")
        assert stack.frontend.fleet.total_record_epochs() == 0

    def test_dtype_mixed_burst_never_fuses_across_dtypes(self, stack):
        """Satellite: dtype-mixed bursts through the socket protocol.
        Same-sized requests of different dtypes land in different
        buckets (and batches); each response honors its wire dtype."""
        requests = [
            EmbedRequest(make_views(6, seed=20), name="f64-a"),
            EmbedRequest(make_views(6, seed=21), dtype="float32",
                         name="f32-a"),
            EmbedRequest(make_views(6, seed=22), name="f64-b"),
            EmbedRequest(make_views(6, seed=23), dtype="float32",
                         name="f32-b"),
        ]
        with stack.client() as client:
            responses = client.embed_many(requests)
        f64_a, f32_a, f64_b, f32_b = responses
        for r in (f32_a, f32_b):
            assert r.embeddings.dtype == np.float32
            assert "float32" in r.bucket_id
            assert r.batch_size == 2
        for r in (f64_a, f64_b):
            assert r.embeddings.dtype == np.float64
            assert "float32" not in r.bucket_id
            assert r.batch_size == 2

    def test_oversize_rejected_over_the_wire(self, stack):
        with stack.client() as client:
            with pytest.raises(AdmissionError) as excinfo:
                client.embed(EmbedRequest(make_views(17), name="toobig"))
            assert excinfo.value.reason == "oversize"
            # The connection survives a rejection.
            assert client.ping()

    def test_view_mismatch_rejected_over_the_wire(self, stack):
        wide = EmbedRequest(make_views(6, dims=(20, 6), seed=4))
        with stack.client() as client:
            with pytest.raises(AdmissionError) as excinfo:
                client.embed(wide)
        assert excinfo.value.reason == "view_mismatch"

    def test_undecodable_line_gets_typed_reply(self, stack):
        with stack.client() as client:
            client._sock.sendall(b"this is not json\n")
            reply = client._recv()
            assert reply["ok"] is False
            assert reply["error"] == "bad_request"
            assert client.ping()

    def test_unknown_op_is_bad_request(self, stack):
        with stack.client() as client:
            reply = client.call({"op": "teapot"})
        assert reply["ok"] is False
        assert reply["error"] == "bad_request"

    def test_malformed_matrices_get_typed_replies_and_counted(self, stack):
        """Every malformed matrix gets a typed reply over the socket,
        counts as a rejection, and the connection serves on."""
        with stack.client() as client:
            rejected = client.stats()["rejected"]
            for i, case in enumerate(sorted(MALFORMED_MATRICES)):
                reply = client.call(dict(malformed_request(case), id=i))
                assert reply["ok"] is False, case
                assert reply["error"] == "bad_request", case
                assert reply["id"] == i
            assert client.stats()["rejected"] == \
                rejected + len(MALFORMED_MATRICES)
            [served] = client.embed_many(
                [EmbedRequest(make_views(6, seed=93))])
        assert served.embeddings.shape == (6, TINY["d"])

    def test_every_reply_ends_with_the_echoed_id(self, stack):
        """perfbench's open loop reads the echoed id off the end of each
        reply line without parsing it: pin that layout for every op."""
        payloads = [
            dict(request_to_wire(EmbedRequest(make_views(6, seed=94))), id=1),
            dict(malformed_request("nested_list"), id=2),
            {"op": "flush", "id": 3},
            {"op": "stats", "id": 4},
            {"op": "ping", "id": 5},
        ]
        with stack.client() as client:
            for payload in payloads:
                client._send(payload)
            lines = [client._rfile.readline() for _ in payloads]
        replies = {json.loads(line)["id"]: line for line in lines}
        assert sorted(replies) == [1, 2, 3, 4, 5]
        for i, line in replies.items():
            assert line.endswith(b'"id": %d}\n' % i), line[-80:]
        assert json.loads(replies[1])["ok"] is True
        assert json.loads(replies[2])["error"] == "bad_request"

    def test_stats_over_the_socket(self, stack):
        with stack.client() as client:
            client.embed_many([EmbedRequest(make_views(6, seed=30))])
            stats = client.stats()
        assert stats["served"] >= 1
        assert stats["pending"] == 0
        latency = stats["latency"]
        assert latency["count"] >= 1
        assert 0.0 <= latency["p50_latency"] <= latency["p99_latency"]
        assert stats["regions"] >= 6
        assert stats["regions_per_sec"] > 0.0
        fleet = stats["fleet"]
        assert fleet["n_workers"] == 2
        assert fleet["record_epochs"] == 0
        assert all(fleet["alive"])
        # The rejection tests above were counted, not crashed on.
        assert stats["rejected"] >= 1


class TestBackpressure:

    def test_overload_sheds_with_retry_after(self, pack):
        """Per-bucket queue-depth admission: beyond ``max_queue_depth``
        the frontend sheds with reason ``overload`` and a
        ``retry_after`` hint; already-queued requests still serve."""
        fleet = ServingFleet(build_tiny_service, n_workers=1,
                             pack_dir=pack["dir"])
        harness = FrontendThread(
            make_frontend(fleet, max_queue_depth=2)).start()
        try:
            requests = [EmbedRequest(make_views(6, seed=40 + i),
                                     name=f"burst{i}") for i in range(5)]
            with harness.client() as client:
                out = client.embed_many(requests, on_error="return")
                stats = client.stats()
        finally:
            harness.stop()
        served = [r for r in out if isinstance(r, EmbedResponse)]
        shed = [r for r in out if isinstance(r, dict)]
        # max_queue_depth=2 < max_batch=3: the first two queue, the rest
        # of the pipelined burst hits a full bucket and is shed.
        assert len(served) == 2
        assert [r.name for r in served] == ["burst0", "burst1"]
        assert len(shed) == 3
        for reply in shed:
            assert reply["error"] == "overload"
            assert reply["retry_after"] == pytest.approx(_POLICY.max_wait)
        assert stats["shed"] == 3
        assert stats["served"] == 2

    def test_shed_request_succeeds_on_retry(self, pack):
        fleet = ServingFleet(build_tiny_service, n_workers=1,
                             pack_dir=pack["dir"])
        harness = FrontendThread(
            make_frontend(fleet, max_queue_depth=1)).start()
        try:
            with harness.client() as client:
                out = client.embed_many(
                    [EmbedRequest(make_views(6, seed=50), name="first"),
                     EmbedRequest(make_views(6, seed=51), name="second")],
                    on_error="return")
                assert isinstance(out[0], EmbedResponse)
                assert isinstance(out[1], dict)   # shed
                # The flush drained the bucket — the retry is admitted.
                retried = client.embed(
                    EmbedRequest(make_views(6, seed=51), name="second"))
            assert retried.embeddings.shape == (6, TINY["d"])
        finally:
            harness.stop()


class TestLifecycle:

    def test_graceful_restart_preserves_warm_path(self, pack):
        """Stop the whole stack and bring it back on the same pack
        directory: the second generation serves the same trace with zero
        record epochs and bit-identical embeddings — the plan cache on
        disk survived the bounce."""
        fleet = ServingFleet(build_tiny_service, n_workers=2,
                             pack_dir=pack["dir"])
        reference = pack["reference"]

        harness = FrontendThread(make_frontend(fleet)).start()
        try:
            with harness.client() as client:
                first = client.embed_many(make_trace())
        finally:
            harness.stop()          # graceful: fleet stopped too
        assert not fleet.started
        assert fleet.total_record_epochs() == 0

        harness = FrontendThread(make_frontend(fleet)).start()
        try:
            with harness.client() as client:
                second = client.embed_many(make_trace())
                stats = client.stats()
        finally:
            harness.stop()
        assert stats["fleet"]["record_epochs"] == 0
        for got, want in zip(second, reference):
            assert np.array_equal(got.embeddings, want.embeddings)
        for got, want in zip(first, reference):
            assert np.array_equal(got.embeddings, want.embeddings)

    def test_port_closed_after_stop(self, pack):
        import socket as socket_mod
        fleet = ServingFleet(build_tiny_service, n_workers=1,
                             pack_dir=pack["dir"])
        harness = FrontendThread(make_frontend(fleet)).start()
        host, port = harness.frontend.host, harness.frontend.port
        harness.stop()
        with pytest.raises(OSError):
            socket_mod.create_connection((host, port), timeout=2).close()

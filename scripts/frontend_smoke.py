#!/usr/bin/env python3
"""Frontend/fleet cross-process smoke: socket serving vs in-process.

Run by the ``serving-smoke`` CI job after ``serving_smoke.py``:

    python scripts/frontend_smoke.py --pack-dir .frontend-pack

One command, three generations of real processes:

1. **build** — construct the deterministic smoke service in this
   process, build a :class:`WarmupPack`, and replay the smoke trace
   in-process (the reference responses; the replay also persists every
   co-batch composition's plan spec into the pack directory);
2. **serve** — launch the NDJSON :class:`ServingFrontend` over a
   2-worker :class:`ServingFleet` (separate OS processes, each building
   its own model and attaching the pack) and replay the same trace
   through a blocking socket client;
3. **restart** — bounce the fleet (graceful stop + fresh start on the
   same pack directory) and replay again through a new frontend.

Asserted every generation:

- **zero record epochs** across the fleet — the warm path never falls
  back to recording, even across the restart (the on-disk plan cache
  survived);
- embeddings **bit-identical** to the in-process reference (dtype
  included) — the JSON wire codec and the dispatch→worker re-batching
  are lossless;
- p50/p99 latency and aggregate regions/sec are present and sane in the
  frontend's stats report;
- the documented wire format holds for a client that is not this
  library: a request line built by hand with stdlib ``json``,
  ``base64`` and ``struct`` serves bytes equal to the in-process
  reference, and an old-format (nested-list) line gets a typed
  ``bad_request`` reply on a connection that keeps serving.

Exit code 0 on success; any assertion failure raises.
"""

from __future__ import annotations

import argparse
import base64
import json
import socket
import struct
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import HAFusionConfig, shard_viewset  # noqa: E402
from repro.data import load_city  # noqa: E402
from repro.nn import PlanCache  # noqa: E402
from repro.serving import (  # noqa: E402
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
    FrontendThread,
    ServingFleet,
    ServingFrontend,
    WarmupPack,
)

_SEED = 7
_CITY = "chi"
#: High max_wait: the client's trailing ``flush`` op dispatches
#: stragglers deterministically, so frontend co-batch compositions match
#: the in-process reference exactly (no timing dependence).
_POLICY = FlushPolicy(max_batch=4, max_wait=30.0)


def smoke_service(plan_cache: PlanCache | None = None) -> EmbeddingService:
    """The deterministic service every process reconstructs
    independently — module-level so fleet workers can build it."""
    views = load_city(_CITY, seed=_SEED).views()
    config = HAFusionConfig.for_city(_CITY, conv_channels=4, dropout=0.0)
    kwargs = {} if plan_cache is None else {"plan_cache": plan_cache}
    return EmbeddingService.build([views], config, seed=_SEED,
                                  policy=_POLICY, **kwargs)


def smoke_trace() -> list[EmbedRequest]:
    """Mixed smoke traffic: the full city plus two shard granularities,
    dtype-mixed with a region subset.  Default and float32 dtypes only —
    an explicit float64 would co-batch with defaults in-process but not
    at the frontend (which labels the default bucket ``"model"``)."""
    views = load_city(_CITY, seed=_SEED).views()
    requests = [EmbedRequest(views, name=_CITY)]
    for i, shard in enumerate(shard_viewset(views, 5)):
        requests.append(EmbedRequest(
            shard, dtype="float32" if i % 2 else None,
            region_subset=[0, 3] if i == 4 else None,
            name=f"{_CITY}5/{i}"))
    for i, shard in enumerate(shard_viewset(views, 8)):
        requests.append(EmbedRequest(shard, name=f"{_CITY}8/{i}"))
    return requests


#: struct format codes of the wire dtypes.
_STRUCT_CODES = {"<f8": "d", "<f4": "f"}


def _wire_matrix(matrix: np.ndarray) -> dict:
    """A float64 view matrix in the documented wire form, built with
    stdlib ``struct`` + ``base64`` from its Python float values."""
    rows, cols = matrix.shape
    data = struct.pack(f"<{rows * cols}d", *matrix.ravel().tolist())
    return {"dtype": "<f8", "shape": [rows, cols],
            "data": base64.b64encode(data).decode("ascii")}


def speak_documented_protocol(frontend: ServingFrontend, want,
                              generation: str) -> None:
    """Drive the frontend over a raw socket with lines built by hand
    from the documented protocol (stdlib ``json``/``base64``/``struct``,
    no library codec):

    - an old-format line (nested-list matrices) gets a typed
      ``bad_request`` reply, counted in ``stats``;
    - the same connection then serves a hand-built request for the full
      city, whose hand-decoded embedding bytes equal the in-process
      reference ``want`` (the trace's full-city response, served alone
      in its bucket there too).
    """
    views = load_city(_CITY, seed=_SEED).views()
    request = {"op": "embed", "name": "by-hand", "views": {
        "names": list(views.names),
        "matrices": [_wire_matrix(m) for m in views.matrices]}}
    old_format = dict(request, views={
        "names": list(views.names),
        "matrices": [m.tolist() for m in views.matrices]})
    with socket.create_connection((frontend.host, frontend.port),
                                  timeout=120.0) as sock, \
            sock.makefile("rb") as rfile:

        def send(payload: dict) -> None:
            sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")

        send(dict(old_format, id=1))
        rejected = json.loads(rfile.readline())
        assert (rejected["ok"], rejected["error"], rejected["id"]) == \
            (False, "bad_request", 1), f"[{generation}] {rejected}"
        send(dict(request, id=2))
        send({"op": "flush", "id": 3})
        replies = {r["id"]: r for r in
                   (json.loads(rfile.readline()) for _ in range(2))}
        send({"op": "stats", "id": 4})
        stats = json.loads(rfile.readline())["stats"]

    reply = replies[2]
    assert reply["ok"], f"[{generation}] hand-built request failed: {reply}"
    embeddings = reply["embeddings"]
    assert embeddings["dtype"] == want.embeddings.dtype.str
    assert embeddings["shape"] == list(want.embeddings.shape)
    got = base64.b64decode(embeddings["data"], validate=True)
    expected = struct.pack(f"<{want.embeddings.size}"
                           f"{_STRUCT_CODES[embeddings['dtype']]}",
                           *want.embeddings.ravel().tolist())
    assert got == expected, (
        f"[{generation}] hand-decoded embeddings differ from the "
        f"in-process reference")
    assert stats["rejected"] == 1
    assert stats["fleet"]["record_epochs"] == 0
    print(f"[{generation}] documented protocol: old format rejected "
          f"typed, hand-built request bit-identical ({len(got)} bytes)")


def replay_through_socket(fleet: ServingFleet, reference,
                          generation: str) -> None:
    service_caps = reference["service"]
    frontend = ServingFrontend(
        fleet, n_max=service_caps["n_max"],
        view_dims=service_caps["view_dims"],
        view_names=service_caps["view_names"], policy=_POLICY)
    thread = FrontendThread(frontend).start()
    try:
        with thread.client() as client:
            responses = client.embed_many(smoke_trace())
            stats = client.stats()
        speak_documented_protocol(frontend, reference["responses"][0],
                                  generation)
    finally:
        # Keep the fleet running: its lifecycle belongs to main() (the
        # restart generation bounces it explicitly).
        thread.stop(stop_fleet=False)

    record_epochs = stats["fleet"]["record_epochs"]
    assert record_epochs == 0, (
        f"[{generation}] fleet paid {record_epochs} record epochs "
        f"on a warmed trace")
    expected = reference["responses"]
    assert len(responses) == len(expected)
    for got, want in zip(responses, expected):
        assert got.embeddings.dtype == want.embeddings.dtype, (
            f"[{generation}] {got.name}: dtype {got.embeddings.dtype} "
            f"!= {want.embeddings.dtype}")
        assert np.array_equal(got.embeddings, want.embeddings), (
            f"[{generation}] {got.name}: socket embeddings drifted "
            f"from the in-process reference")
    latency = stats["latency"]
    assert latency["count"] == len(expected)
    assert 0.0 <= latency["p50_latency"] <= latency["p99_latency"]
    assert stats["regions_per_sec"] > 0.0
    print(f"[{generation}] {stats['served']} responses bit-identical, "
          f"0 record epochs, p50 {latency['p50_latency'] * 1e3:.1f}ms, "
          f"p99 {latency['p99_latency'] * 1e3:.1f}ms, "
          f"{stats['regions_per_sec']:.0f} regions/s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pack-dir", type=Path,
                        default=REPO / ".frontend-pack")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    args.pack_dir.mkdir(parents=True, exist_ok=True)

    # Generation 0: pack + in-process reference.  The reference replay
    # records every serve-time co-batch composition into the pack
    # directory, which is what makes the fleet's path record-free.
    service = smoke_service(PlanCache(directory=args.pack_dir))
    WarmupPack.build(service)
    responses = service.run(smoke_trace())
    reference = {
        "responses": responses,
        "service": {"n_max": service.n_max,
                    "view_dims": service.view_dims,
                    "view_names": service.view_names},
    }
    print(f"[build] pack at {args.pack_dir}, "
          f"{len(responses)} reference responses")

    fleet = ServingFleet(smoke_service, n_workers=args.workers,
                         pack_dir=args.pack_dir)
    try:
        replay_through_socket(fleet, reference, "serve")
        # Generation 2: a real bounce — new worker processes, same disk.
        fleet.restart()
        replay_through_socket(fleet, reference, "restart")
    finally:
        fleet.stop(graceful=True)
    print("frontend smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Chaos smoke: a real ``kill -9`` mid-trace must not change one bit.

Run by the ``chaos-smoke`` CI job after the fault-injection test suite:

    python scripts/chaos_smoke.py --pack-dir .chaos-pack

Unlike ``tests/serving/test_faults.py`` (where workers kill *themselves*
at deterministic points), this smoke delivers the signal from outside
the fleet, exactly as an OOM killer or an operator would:

1. **build** — construct the deterministic smoke service, build a
   :class:`WarmupPack`, and replay the trace in-process (the reference);
2. **serve under fire** — replay the same trace through the NDJSON
   frontend over a **3-worker** fleet whose fault plan only *delays* one
   batch; the moment the supervisor reports that batch claimed, the
   parent ``SIGKILL``\\ s the claiming worker's pid from outside.  The
   delay pins the victim mid-batch, so the kill provably loses an
   in-flight batch (and never lands while the victim holds a queue
   lock, which a kill aimed at an *idle* worker could).

Asserted:

- the trace **completes** — no hung client — and every embedding is
  **bit-identical** to the in-process reference;
- exactly one crash and one respawn, at least one batch retry, zero
  typed batch failures;
- **zero record epochs**, respawned worker included (it re-attached the
  same warm-up pack);
- the fleet ends at full strength (3 live workers);
- after shutdown the port is closed (connections are refused).

Exit code 0 on success; any assertion failure raises.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import HAFusionConfig, shard_viewset  # noqa: E402
from repro.data import load_city  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
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
_POLICY = FlushPolicy(max_batch=4, max_wait=30.0)
#: The batch the fault plan delays — and the external kill therefore
#: provably catches mid-serve.  The 14-request trace dispatches as >= 4
#: batches under ``_POLICY``, so batch 3 always exists.
_VICTIM_BATCH = 3
_DELAY_SECONDS = 3.0


def smoke_service(plan_cache: PlanCache | None = None) -> EmbeddingService:
    views = load_city(_CITY, seed=_SEED).views()
    config = HAFusionConfig.for_city(_CITY, conv_channels=4, dropout=0.0)
    kwargs = {} if plan_cache is None else {"plan_cache": plan_cache}
    return EmbeddingService.build([views], config, seed=_SEED,
                                  policy=_POLICY, **kwargs)


def smoke_trace() -> list[EmbedRequest]:
    """Same mixed chi trace as the frontend smoke: the full city plus
    two shard granularities, dtype-mixed, one region subset."""
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


def kill_claimer(fleet: ServingFleet, batch_id: int, report: dict,
                 timeout: float = 60.0) -> None:
    """Wait until ``batch_id`` is claimed, then SIGKILL the claiming
    worker from outside — while the fault-plan delay holds it mid-batch."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        worker_id = fleet.claims().get(batch_id)
        if worker_id is not None:
            pid = fleet.pids()[worker_id]
            os.kill(pid, signal.SIGKILL)
            report["killed"] = (worker_id, pid)
            return
        time.sleep(0.01)
    report["killed"] = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pack-dir", type=Path,
                        default=REPO / ".chaos-pack")
    parser.add_argument("--workers", type=int, default=3)
    args = parser.parse_args(argv)
    args.pack_dir.mkdir(parents=True, exist_ok=True)

    # Generation 0: pack + fault-free in-process reference (the replay
    # also persists every co-batch composition's plan spec on disk).
    service = smoke_service(PlanCache(directory=args.pack_dir))
    WarmupPack.build(service)
    reference = service.run(smoke_trace())
    print(f"[build] pack at {args.pack_dir}, "
          f"{len(reference)} reference responses")

    plan = FaultPlan().delay("before_batch", _DELAY_SECONDS,
                             batch_id=_VICTIM_BATCH)
    fleet = ServingFleet(smoke_service, n_workers=args.workers,
                         pack_dir=args.pack_dir, fault_plan=plan)
    frontend = ServingFrontend(
        fleet, n_max=service.n_max, view_dims=service.view_dims,
        view_names=service.view_names, policy=_POLICY)
    harness = FrontendThread(frontend).start()
    host, port = frontend.host, frontend.port
    report: dict = {}
    killer = threading.Thread(
        target=kill_claimer, args=(fleet, _VICTIM_BATCH, report),
        daemon=True)
    try:
        killer.start()
        with harness.client() as client:
            responses = client.embed_many(smoke_trace())
            stats = client.stats()
        killer.join(timeout=60)
    finally:
        harness.stop()

    assert report.get("killed") is not None, (
        f"batch {_VICTIM_BATCH} was never claimed; nothing was killed")
    worker_id, pid = report["killed"]
    print(f"[chaos] killed worker {worker_id} (pid {pid}) "
          f"mid-batch {_VICTIM_BATCH}")

    assert len(responses) == len(reference)
    for got, want in zip(responses, reference):
        assert got.embeddings.dtype == want.embeddings.dtype, (
            f"{got.name}: dtype {got.embeddings.dtype} "
            f"!= {want.embeddings.dtype}")
        assert np.array_equal(got.embeddings, want.embeddings), (
            f"{got.name}: embeddings drifted from the fault-free "
            f"reference after the kill")
    fleet_stats = stats["fleet"]
    assert fleet_stats["crashes"] == 1, fleet_stats
    assert fleet_stats["respawns"] == 1, fleet_stats
    assert fleet_stats["retries"] >= 1, fleet_stats
    assert fleet_stats["failed_batches"] == 0, fleet_stats
    assert fleet_stats["record_epochs"] == 0, (
        f"respawned worker paid {fleet_stats['record_epochs']} record "
        f"epochs despite the shared pack")
    assert fleet_stats["live"] == args.workers, fleet_stats
    assert stats["served"] == len(reference)
    assert stats["errors"] == 0
    print(f"[chaos] {stats['served']} responses bit-identical through "
          f"1 crash / {fleet_stats['retries']} retry(ies) / 1 respawn, "
          f"0 record epochs, {fleet_stats['live']} workers live")

    # Clean shutdown: the port must refuse connections.
    try:
        socket.create_connection((host, port), timeout=2).close()
    except OSError:
        pass
    else:
        raise AssertionError(f"port {port} still accepts connections "
                             f"after shutdown")
    print("chaos smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Frontend quickstart: warm pack -> worker fleet -> NDJSON socket.

The network serving shape for HAFusion embeddings: an asyncio frontend
(:class:`repro.serving.ServingFrontend`) speaking newline-delimited JSON
on a TCP socket, co-batching requests with the shape-bucket scheduler
and dispatching each flushed batch to a fleet of worker processes, each
holding a resident :class:`~repro.serving.EmbeddingService` warmed from
a shared :class:`~repro.serving.WarmupPack`.  The script walks the full
cycle in under a minute:

1. build the deterministic service and its warm-up pack (no training —
   plan specs are value-free, so serving only needs an initialized
   model);
2. start a 2-worker :class:`~repro.serving.ServingFleet` and the socket
   frontend (ephemeral port);
3. fire a mixed burst — ragged sizes, float32 and float64, a region
   subset — through the blocking :class:`~repro.serving.FrontendClient`;
4. read p50/p99 latency, aggregate regions/sec and the fleet's
   record-epoch count (zero: the warm path never records) from the
   ``stats`` op.

Usage::

    python examples/serving_frontend.py [--city chi] [--workers 2]
"""

import argparse
import tempfile

import numpy as np

from repro.core import HAFusionConfig, shard_viewset
from repro.data import available_cities, load_city
from repro.nn import PlanCache
from repro.serving import (
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
    FrontendThread,
    ServingFleet,
    ServingFrontend,
    WarmupPack,
)

#: High max_wait: the client's trailing ``flush`` op dispatches
#: stragglers, so co-batch compositions are deterministic and identical
#: to the in-process reference below (no wall-clock dependence).
_POLICY = FlushPolicy(max_batch=4, max_wait=60.0)
_ARGS = argparse.Namespace(city="chi", seed=7)


def build_service(plan_cache: PlanCache | None = None) -> EmbeddingService:
    """Module-level worker builder: every fleet process reconstructs the
    same model deterministically from the seed."""
    views = load_city(_ARGS.city, seed=_ARGS.seed).views()
    config = HAFusionConfig.for_city(_ARGS.city, conv_channels=4,
                                     dropout=0.0)
    kwargs = {} if plan_cache is None else {"plan_cache": plan_cache}
    return EmbeddingService.build([views], config, seed=_ARGS.seed,
                                  policy=_POLICY, **kwargs)


def make_requests() -> list[EmbedRequest]:
    """The mixed burst: ragged shards, dtype-mixed, one region subset."""
    views = load_city(_ARGS.city, seed=_ARGS.seed).views()
    requests = [EmbedRequest(shard, name=f"shard-{i}",
                             dtype="float32" if i % 2 else None)
                for i, shard in enumerate(shard_viewset(views, 5))]
    requests.append(EmbedRequest(views, name=_ARGS.city,
                                 region_subset=[0, 5, 9]))
    return requests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--city", default="chi", choices=available_cities())
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pack-dir", default=None,
                        help="warm-up pack directory (default: a tempdir)")
    args = parser.parse_args()
    _ARGS.city, _ARGS.seed = args.city, args.seed

    with tempfile.TemporaryDirectory(prefix="repro-frontend-") as tmp:
        pack_dir = args.pack_dir or tmp
        print(f"Building warm-up pack for {args.city!r} under {pack_dir} ...")
        service = build_service(PlanCache(directory=pack_dir))
        pack = WarmupPack.build(service)
        # Replaying the burst in-process records its exact co-batch mask
        # patterns into the pack directory (the fleet then never records)
        # and gives us the reference the socket path must match bit-for-bit.
        reference = service.run(make_requests())
        print(f"  {len(pack.shapes)} grid shapes + the burst's compositions "
              f"pre-recorded")

        print(f"\nStarting {args.workers}-worker fleet + socket frontend ...")
        fleet = ServingFleet(build_service, n_workers=args.workers,
                             pack_dir=pack_dir)
        frontend = ServingFrontend(fleet, n_max=service.n_max,
                                   view_dims=service.view_dims,
                                   view_names=service.view_names,
                                   policy=_POLICY)
        with FrontendThread(frontend) as thread:
            print(f"  listening on {frontend.host}:{frontend.port}")
            requests = make_requests()
            with thread.client() as client:
                print(f"\nFiring {len(requests)} mixed requests through the "
                      f"socket ...")
                responses = client.embed_many(requests)
                for response in responses[:4]:
                    print(f"  {response.name:10s} n={response.n_regions:3d} "
                          f"bucket={response.bucket_id} "
                          f"batch={response.batch_size} "
                          f"plan={response.plan_event} "
                          f"|h|={np.linalg.norm(response.embeddings):.2f}")
                stats = client.stats()

    latency = stats["latency"]
    print(f"\nFrontend report: {stats['served']} served, "
          f"{stats['regions']} regions, "
          f"{stats['regions_per_sec']:.0f} regions/s")
    print(f"  latency p50 {latency['p50_latency'] * 1e3:.1f}ms, "
          f"p99 {latency['p99_latency'] * 1e3:.1f}ms "
          f"(mean {latency['mean_seconds'] * 1e3:.1f}ms over "
          f"{latency['count']} requests)")
    print(f"  fleet: {stats['fleet']['n_workers']} workers, "
          f"{stats['fleet']['dispatched']} batches dispatched, "
          f"record epochs paid: {stats['fleet']['record_epochs']}")
    print(f"  supervision: {stats['fleet']['live']}/"
          f"{stats['fleet']['n_workers']} live, "
          f"{stats['fleet']['crashes']} crashes, "
          f"{stats['fleet']['retries']} retries, "
          f"{stats['fleet']['respawns']} respawns")
    assert stats["fleet"]["record_epochs"] == 0, "warm path recorded!"
    identical = all(np.array_equal(got.embeddings, want.embeddings)
                    for got, want in zip(responses, reference))
    assert identical, "socket embeddings drifted from in-process serving"
    print("  socket responses bit-identical to in-process serving ✓")


if __name__ == "__main__":
    main()

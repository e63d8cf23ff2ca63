"""Serving quickstart: warm-up pack -> EmbeddingService -> mixed-city traffic.

The production serving shape for HAFusion embeddings: one shared
multi-city model behind an :class:`repro.serving.EmbeddingService`,
whose shape-bucket scheduler co-batches compatible requests into single
``(b, n, d)`` compiled-plan replays.  The script walks the full deploy
cycle in under a minute:

1. train one shared model on region shards of a city (the multi-city
   engine from ``repro.core.engine``);
2. build a :class:`~repro.serving.WarmupPack` — pre-record the
   scheduler's ``(batch, n)`` plan grid to disk;
3. "restart": attach the pack to a fresh service and serve mixed-size
   requests with **zero** record epochs on warmed shapes;
4. print the per-bucket throughput / padding / plan-residency report.

Usage::

    python examples/serving_service.py [--city chi] [--epochs 40]
"""

import argparse
import tempfile

import numpy as np

from repro.core import HAFusionConfig, BatchedTrainer, shard_viewset
from repro.data import available_cities, load_city
from repro.nn import RECORD_STATS, PlanCache
from repro.serving import (
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
    WarmupPack,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--city", default="chi", choices=available_cities())
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pack-dir", default=None,
                        help="warm-up pack directory (default: a tempdir)")
    args = parser.parse_args()

    print(f"Generating synthetic city {args.city!r} (seed={args.seed}) ...")
    city = load_city(args.city, seed=args.seed)
    # Region shards stand in for a fleet of small cities sharing one
    # model; mixed shard counts make the serving traffic ragged.
    shards = shard_viewset(city.views(), 6) + shard_viewset(city.views(), 9)
    config = HAFusionConfig.for_city(args.city, epochs=args.epochs,
                                     conv_channels=8, dropout=0.0)

    print(f"Training one shared model on 6 of the {len(shards)} region "
          f"shards ({args.epochs} epochs) ...")
    trainer = BatchedTrainer(shards[:6], config, seed=args.seed, compiled=True)
    history = trainer.train(log_every=max(1, args.epochs // 4))
    print(f"  done in {history.seconds:.1f}s; final loss "
          f"{history.final_loss:.3f}")

    with tempfile.TemporaryDirectory(prefix="repro-warmup-") as tmp:
        pack_dir = args.pack_dir or tmp
        policy = FlushPolicy(max_batch=4, max_wait=60.0)
        service = EmbeddingService(trainer.model, n_max=trainer.batch.n_max,
                                   view_dims=trainer.batch.view_dims,
                                   view_names=trainer.batch.view_names,
                                   policy=policy,
                                   plan_cache=PlanCache(directory=pack_dir))

        print(f"\nBuilding warm-up pack under {pack_dir} ...")
        # The grid covers the scheduler's steady state; playing the ragged
        # traffic sample through once records its exact mask patterns too,
        # so the restarted service never records.
        pack = WarmupPack.build(service, traffic=shards)
        print(f"  {len(pack.shapes)} (batch, n) shapes pre-recorded: "
              + ", ".join(f"{s['batch_size']}x{max(s['n_regions'])}"
                          for s in pack.shapes))

        print("\nRestarting: fresh service + pack, serving mixed-size traffic ...")
        fresh = EmbeddingService(trainer.model, n_max=trainer.batch.n_max,
                                 view_dims=trainer.batch.view_dims,
                                 view_names=trainer.batch.view_names,
                                 policy=policy)
        WarmupPack.load(pack_dir).attach(fresh)
        RECORD_STATS.reset()
        requests = [EmbedRequest(vs, name=f"shard-{i}")
                    for i, vs in enumerate(shards)]
        responses = fresh.run(requests)
        print(f"  {len(responses)} responses; record epochs paid: "
              f"{RECORD_STATS.total}")
        for response in responses[:4]:
            print(f"  {response.name:10s} n={response.n_regions:3d} "
                  f"bucket={response.bucket_id} batch={response.batch_size} "
                  f"plan={response.plan_event} "
                  f"waste={response.padding_waste:.0%} "
                  f"|h|={np.linalg.norm(response.embeddings):.2f}")

        stats = fresh.stats()
        print(f"\nService report: {stats['regions']} regions in "
              f"{stats['batches']} batches, padding overhead "
              f"{stats['padding_overhead']:.0%}, "
              f"{stats['regions_per_sec']:.0f} regions/s")
        print(f"  plan cache: {stats['plan_cache']}")
        for bucket_id, bucket in stats["buckets"].items():
            print(f"  {bucket_id}: {bucket['requests']} reqs in "
                  f"{bucket['batches']} batches, "
                  f"{bucket['regions_per_sec']:.0f} regions/s, "
                  f"events {bucket['plan_events']}")


if __name__ == "__main__":
    main()

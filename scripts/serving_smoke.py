#!/usr/bin/env python3
"""Serving warm-path smoke: build a warm-up pack, restart, serve cold.

Run by the ``serving-smoke`` CI job as two separate *processes* — the
restart is real, nothing survives but the pack directory:

    python scripts/serving_smoke.py build --pack-dir .warmup-pack
    python scripts/serving_smoke.py serve --pack-dir .warmup-pack

``build`` trains nothing (serving needs only an initialized model —
plan specs are value-free), constructs the deterministic smoke service,
builds a :class:`repro.serving.WarmupPack` over the scheduler grid plus
the smoke traffic, and records the responses' checksums in the pack
directory.  ``serve`` reconstructs the same service in a fresh process,
attaches the pack, replays the same traffic and asserts:

- **zero record epochs** (``RECORD_STATS.total == 0``) and zero plan
  cache misses — the warm path never falls back to recording;
- embeddings bit-identical to the build phase's checksums;
- every flush ran at its co-batch width ``min(n_max, max n_i + 1)``:
  its responses report that padding, and the resident plans (relowered
  from the pack) have exactly those input widths, so no narrow flush
  ran at ``n_max``.

Exit code 0 on success; any assertion failure raises.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict, deque
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import HAFusionConfig, shard_viewset  # noqa: E402
from repro.data import load_city  # noqa: E402
from repro.nn import RECORD_STATS, PlanCache  # noqa: E402
from repro.serving import (  # noqa: E402
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
    WarmupPack,
)

_SEED = 7
_CITY = "chi"
_CHECKSUMS = "smoke_checksums.json"


def smoke_traffic():
    views = load_city(_CITY, seed=_SEED).views()
    return shard_viewset(views, 5) + shard_viewset(views, 8)


def smoke_service(traffic,
                  plan_cache: PlanCache | None = None) -> EmbeddingService:
    """The deterministic service both phases reconstruct independently."""
    config = HAFusionConfig.for_city(_CITY, conv_channels=4, dropout=0.0)
    policy = FlushPolicy(max_batch=4, max_wait=60.0)
    kwargs = {} if plan_cache is None else {"plan_cache": plan_cache}
    return EmbeddingService.build(traffic, config, seed=_SEED,
                                  policy=policy, **kwargs)


def checksums(responses) -> list[float]:
    return [float(np.float64(r.embeddings).sum()) for r in responses]


def build(pack_dir: Path) -> None:
    traffic = smoke_traffic()
    service = smoke_service(traffic, PlanCache(directory=pack_dir))
    pack = WarmupPack.build(service, traffic=traffic)
    responses = service.run([EmbedRequest(vs) for vs in traffic])
    (pack_dir / _CHECKSUMS).write_text(json.dumps(checksums(responses)))
    print(f"built warm-up pack: {len(pack.shapes)} shapes, "
          f"{service.plan_cache.stats()['misses']} plans recorded, "
          f"{len(responses)} traffic responses checksummed")


def check_flush_widths(service, responses, mark: int) -> list[int]:
    """Assert every flush after ``mark`` ran at ``min(n_max, max n_i +
    1)`` regions; returns the widths in flush order.

    Responses are matched to flushes by bucket, first in first out, as
    the scheduler takes them.  The resident plans are the ones the
    flushes replayed, so their input widths are what actually ran.
    """
    queues = defaultdict(deque)
    for response in responses:
        queues[response.bucket_id].append(response)
    widths, shapes = [], set()
    for flush in (f for f in service.flush_log if f["seq"] > mark):
        rows, b = flush["n_regions"], flush["batch_size"]
        width = min(service.n_max, max(rows) + 1)
        served = [queues[flush["bucket_id"]].popleft() for _ in range(b)]
        assert [r.n_regions for r in served] == rows, (flush, served)
        waste = 1.0 - sum(rows) / (b * width)
        assert all(r.padding_waste == waste for r in served), (
            f"flush {rows} did not report width {width}")
        widths.append(width)
        shapes.add((b, width))
    resident = {tuple(p["shapes"][0][:2])
                for p in service.plan_cache.resident_report()}
    assert resident == shapes, (
        f"resident plan (batch, width) shapes {sorted(resident)} != the "
        f"flushes' {sorted(shapes)}")
    assert any(w < service.n_max for w in widths), (
        f"no flush ran narrower than n_max={service.n_max}: {widths}")
    return widths


def serve(pack_dir: Path) -> None:
    expected = json.loads((pack_dir / _CHECKSUMS).read_text())
    traffic = smoke_traffic()
    service = smoke_service(traffic)
    WarmupPack.load(pack_dir).attach(service)
    RECORD_STATS.reset()
    mark = service.flush_seq
    responses = service.run([EmbedRequest(vs) for vs in traffic])
    stats = service.plan_cache.stats()
    assert RECORD_STATS.total == 0, (
        f"warm path paid {RECORD_STATS.total} record epochs")
    assert stats["misses"] == 0, f"warm path missed the plan cache: {stats}"
    got = checksums(responses)
    assert got == expected, (
        f"embeddings drifted across the restart:\n  {expected}\n  {got}")
    widths = check_flush_widths(service, responses, mark)
    report = service.stats()
    print(f"warm serve ok: {len(responses)} responses, 0 record epochs, "
          f"cache {stats}, flush widths {widths} (n_max {service.n_max}), "
          f"padding {report['padding_overhead']:.0%}, "
          f"{report['regions_per_sec']:.0f} regions/s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("build", "serve"))
    parser.add_argument("--pack-dir", type=Path, default=REPO / ".warmup-pack")
    args = parser.parse_args(argv)
    args.pack_dir.mkdir(parents=True, exist_ok=True)
    if args.phase == "build":
        build(args.pack_dir)
    else:
        serve(args.pack_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

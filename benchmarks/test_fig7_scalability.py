"""Bench: regenerate Fig. 7 (scaling in #regions).

The bench sweeps 180 and 360 regions (the 720/1440 expansions take tens
of minutes of training each on CPU; regenerate them with
``python -m repro.experiments fig7 --profile quick``). The runtime-growth
shape — every model slower at 2x regions — is asserted here.

It also gates the batched multi-city execution engine
(``repro.core.engine``) against the per-city Python loop on 8-region
shards of nyc_360 (``bench_utils.engine_speedup_report``): small shards
put the per-forward Python/numpy dispatch overhead — the cost the batch
axis amortizes — in the majority, which is the regime the engine exists
for.  The fused ``(b, n, d)`` pass must match the sequential path to
≤1e-8 and be at least 2x faster; the measured numbers are recorded in
the pytest-benchmark JSON via ``extra_info["engine"]``.
"""

import os

from bench_utils import engine_speedup_report, run_once

from repro.core import HAFusionConfig, shard_viewset
from repro.data import load_city
from repro.experiments import run_experiment

ENGINE_CITY = "nyc_360"
ENGINE_SHARD_REGIONS = 8


def test_fig7_scalability(benchmark):
    payload, table = run_once(benchmark, run_experiment, "fig7",
                              profile="smoke", sizes=("nyc", "nyc_360"))
    print("\n" + table)
    for model in payload["models"]:
        small = payload["runtime"][model]["nyc"]
        large = payload["runtime"][model]["nyc_360"]
        assert small > 0 and large > 0
    assert payload["region_counts"]["nyc_360"] == 360

    city = load_city(ENGINE_CITY, seed=7)
    num_shards = city.n_regions // ENGINE_SHARD_REGIONS
    # fig7's conv_channels for this size.
    config = HAFusionConfig.for_city(ENGINE_CITY, conv_channels=16)
    engine = engine_speedup_report(shard_viewset(city.views(), num_shards),
                                   config, seed=7, repeats=5)
    engine.update(city=ENGINE_CITY, num_shards=num_shards)
    benchmark.extra_info["engine"] = engine
    assert engine["batch_size"] >= 3
    assert engine["max_abs_diff"] <= 1e-8
    # Shared CI runners relax the wall-clock gate (noisy neighbors).
    gate = float(os.environ.get("REPRO_ENGINE_SPEEDUP_GATE", "2.0"))
    assert engine["speedup"] >= gate, (
        f"batched engine only {engine['speedup']:.2f}x faster than the "
        f"per-city loop (sequential {engine['sequential_seconds']:.3f}s, "
        f"batched {engine['batched_seconds']:.3f}s)")

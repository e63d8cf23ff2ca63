"""Serving-service benchmarks: scheduler throughput gates.

Records ``bench_utils.serving_scheduler_report`` into the
pytest-benchmark JSON (``extra_info["scheduler"]``) and asserts the
scheduler's acceptance gates:

- **uniform traffic**: routing full-size requests through the
  shape-bucket scheduler must not cost throughput against the direct
  ``embed_batch`` path on a prebuilt batch (the two replay the *same*
  resident plan; the scheduler adds only queue bookkeeping and batch
  staging).  Gate: scheduler ≥ 90% of direct
  (``REPRO_SCHEDULER_UNIFORM_GATE``) — the 10% margin absorbs
  wall-clock noise, not real overhead;
- **ragged mixed-city traffic**: co-batching mixed-size shards under
  padded masks must beat sequential (one-request-at-a-time) serving by
  ≥1.5x regions/sec (``REPRO_SCHEDULER_RAGGED_GATE``; measured ≈1.7x
  on a dedicated core), with exact parity (≤1e-8 float64) against the
  sequential reference.

The per-bucket ``regions_per_sec`` gauges inside the payload are diffed
night-over-night by ``scripts/compare_benchmarks.py``.
"""

import os

import pytest
from bench_utils import run_once, serving_scheduler_report

from repro.core import HAFusionConfig
from repro.data import load_city


class TestSchedulerBenchmarks:
    def test_scheduler_throughput_nyc(self, benchmark):
        """Uniform + ragged scheduler throughput on NYC (n=180).

        Skipped under ``--benchmark-disable`` (the every-push CI smoke):
        the correctness half — parity, ordering, bucketing — is locked
        down by ``tests/serving/`` in tier-1; only the wall-clock gates
        need timing.
        """
        if not benchmark.enabled:
            pytest.skip("timing-gated benchmark; parity covered in tier-1")
        city = load_city("nyc", seed=7)
        config = HAFusionConfig.for_city("nyc", conv_channels=8)
        report = run_once(benchmark, serving_scheduler_report, city.views(),
                          config, seed=7, max_batch=16, uniform_batch=8,
                          ragged_shard_counts=(12, 18, 25), repeats=3)
        benchmark.extra_info["scheduler"] = report
        print("\nscheduler report:", {k: report[k]
                                      for k in ("uniform", "ragged")})

        ragged = report["ragged"]
        assert ragged["max_abs_diff"] <= 1e-8
        # Sanity on the traffic shape: genuinely ragged, meaningfully
        # co-batched.
        assert len(ragged["sizes"]) >= 3
        assert report["scheduler_stats"]["batches"] \
            < report["scheduler_stats"]["requests"]

        uniform_gate = float(os.environ.get(
            "REPRO_SCHEDULER_UNIFORM_GATE", "0.9"))
        assert report["uniform"]["efficiency"] >= uniform_gate, (
            f"scheduler throughput fell to "
            f"{report['uniform']['efficiency']:.2f}x of the direct "
            f"batched path on uniform traffic "
            f"({report['uniform']['scheduler_regions_per_sec']:.0f} vs "
            f"{report['uniform']['direct_regions_per_sec']:.0f} regions/s)")

        ragged_gate = float(os.environ.get(
            "REPRO_SCHEDULER_RAGGED_GATE", "1.5"))
        assert ragged["speedup"] >= ragged_gate, (
            f"scheduler only {ragged['speedup']:.2f}x sequential serving "
            f"on ragged traffic ({ragged['scheduler_regions_per_sec']:.0f} "
            f"vs {ragged['sequential_regions_per_sec']:.0f} regions/s)")

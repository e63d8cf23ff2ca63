"""Microbenchmarks for the nn substrate and eval primitives.

These measure the building blocks whose costs dominate the experiment
pipelines: attention forward/backward at paper-scale (n = 180, d = 144),
the IntraAFL convolution path, external attention's linear-in-n cost
(the paper's O(n·d·dm) vs O(n²·d) argument, Sec. VI-F), coordinate-
descent Lasso, and synthetic-city generation.
"""

import os

import numpy as np
import pytest

from repro.core import (
    HAFusionConfig,
    compiled_speedup_report,
    serving_speedup_report,
)
from repro.data import CityConfig, generate_city, load_city
from repro.eval import Lasso
from repro.nn import (
    AvgPool2d,
    Conv2d,
    ExternalAttention,
    MultiHeadSelfAttention,
    Tensor,
    TransformerEncoderBlock,
)

N_REGIONS = 180
D_MODEL = 144


@pytest.fixture(scope="module")
def x_regions():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N_REGIONS, D_MODEL)).astype(np.float32)


class TestAttentionBenchmarks:
    def test_self_attention_forward(self, benchmark, x_regions):
        attn = MultiHeadSelfAttention(D_MODEL, num_heads=4,
                                      rng=np.random.default_rng(1))
        x = Tensor(x_regions)
        result = benchmark(lambda: attn(x))
        assert result.shape == (N_REGIONS, D_MODEL)

    def test_self_attention_forward_backward(self, benchmark, x_regions):
        attn = MultiHeadSelfAttention(D_MODEL, num_heads=4,
                                      rng=np.random.default_rng(1))

        def step():
            attn.zero_grad()
            x = Tensor(x_regions, requires_grad=True)
            (attn(x) ** 2.0).sum().backward()
            return x.grad

        assert benchmark(step) is not None

    def test_encoder_block_forward_backward(self, benchmark, x_regions):
        block = TransformerEncoderBlock(D_MODEL, num_heads=4, dropout=0.0,
                                        rng=np.random.default_rng(1))

        def step():
            block.zero_grad()
            x = Tensor(x_regions, requires_grad=True)
            (block(x) ** 2.0).sum().backward()
            return x.grad

        assert benchmark(step) is not None

    def test_external_attention_scales_linearly(self, benchmark):
        # The InterAFL argument: external attention avoids the n×n matrix.
        rng = np.random.default_rng(1)
        ext = ExternalAttention(D_MODEL, memory_size=72, rng=rng)
        big = Tensor(rng.standard_normal((4 * N_REGIONS, 3, D_MODEL)).astype(np.float32))
        result = benchmark(lambda: ext(big))
        assert result.shape == (4 * N_REGIONS, 3, D_MODEL)


class TestConvBenchmarks:
    def test_region_coefficient_conv(self, benchmark):
        # IntraAFL's Conv2D over the n×n attention coefficients (Eq. 13).
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 32, kernel_size=3, rng=rng)
        pool = AvgPool2d(kernel_size=3)
        coeff = Tensor(rng.random((1, N_REGIONS, N_REGIONS)).astype(np.float32))
        result = benchmark(lambda: pool(conv(coeff)))
        assert result.shape == (32, N_REGIONS, N_REGIONS)


class TestCompiledStepBenchmarks:
    def test_compiled_step_speedup_nyc360(self, benchmark):
        """Compiled-vs-eager training step at paper scale (nyc_360,
        n=360, d=144, fig7 conv_channels): twin models from one seed,
        per-epoch wall-clock of an eager tape step vs a plan replay.

        Asserts final-embedding parity ≤1e-8 in float64 (the acceptance
        bound) plus the ≥2x per-epoch speedup gate.  Skipped entirely
        under ``--benchmark-disable`` (the every-push CI smoke): the
        parity half is already locked down by the tier-1 compiled-parity
        suite, so the smoke should not pay a minute of twin training.
        The nightly full benchmark run enforces the gate and archives
        the measured numbers in the pytest-benchmark JSON
        (``extra_info["compiled"]``), including ``Plan.profile()``'s
        five hottest kernels, which ``scripts/compare_benchmarks.py``
        surfaces in the job summary.
        Measured on a dedicated core this lands around 2.5x; shared CI
        runners relax the gate through ``REPRO_COMPILED_SPEEDUP_GATE``
        (noisy-neighbor contention can cost 10–20% of wall-clock).
        """
        from bench_utils import run_once

        if not benchmark.enabled:
            # ~1 min of twin nyc_360 training buys nothing under
            # --benchmark-disable: the parity half is already locked down
            # by tests/core/test_compiled_parity.py in tier-1.
            pytest.skip("timing-gated benchmark; parity covered in tier-1")
        city = load_city("nyc_360", seed=7)
        config = HAFusionConfig.for_city("nyc_360", conv_channels=16)
        report = run_once(benchmark, compiled_speedup_report, city,
                          config, seed=7, epochs=5)
        benchmark.extra_info["compiled"] = report
        print("\ncompiled step report:", report)
        assert report["final_embedding_max_abs_diff"] <= 1e-8
        assert report["max_loss_diff"] <= 1e-6
        assert report["plan_forward_ops"] > 100
        # The gradient-buffer liveness pool must reclaim >=40% of the
        # PR 2 one-buffer-per-slot footprint on the largest benchmarked
        # city (measured ~89% on nyc_360; this gate is deterministic —
        # byte accounting, not wall-clock).
        assert report["grad_buffer_reduction"] >= 0.4, (
            f"liveness pool reclaimed only "
            f"{report['grad_buffer_reduction']:.0%} "
            f"({report['grad_buffer_bytes']} of "
            f"{report['grad_buffer_bytes_unpooled']} bytes)")
        gate = float(os.environ.get("REPRO_COMPILED_SPEEDUP_GATE", "2.0"))
        assert report["speedup"] >= gate, (
            f"compiled step only {report['speedup']:.2f}x faster than "
            f"eager (eager {report['eager_seconds_per_epoch']:.3f}s, "
            f"compiled {report['compiled_seconds_per_epoch']:.3f}s "
            f"per epoch)")


class TestServingBenchmarks:
    def test_serving_speedup_nyc360(self, benchmark):
        """Eager vs compiled ``batched_embed`` at paper scale (nyc_360,
        n=360, fig7 conv_channels): one warm model answering repeated
        embed requests.  The compiled side replays a forward-only
        :class:`~repro.nn.compile.InferencePlan` (the record epoch is
        excluded, exactly as a warm server runs).

        Gates: ≥2x regions/sec over the eager tape
        (``REPRO_SERVING_SPEEDUP_GATE`` relaxes it on shared runners),
        embedding parity ≤1e-8 in float64, and the activation liveness
        pool holding ≥40% fewer slot bytes than one-buffer-per-slot
        (measured ≈2.9x / ≈91% on a dedicated core).  Skipped under
        ``--benchmark-disable``: the parity and pool halves are already
        locked down by ``tests/core/test_inference_plan.py``.
        """
        from bench_utils import run_once

        if not benchmark.enabled:
            pytest.skip("timing-gated benchmark; parity covered in tier-1")
        city = load_city("nyc_360", seed=7)
        config = HAFusionConfig.for_city("nyc_360", conv_channels=16)
        report = run_once(benchmark, serving_speedup_report, [city],
                          config, seed=7, repeats=5)
        benchmark.extra_info["serving"] = report
        print("\nserving report:", report)
        assert report["max_abs_diff"] <= 1e-8
        assert report["plan_fused_chains"] > 0
        assert report["slot_reduction"] >= 0.4, (
            f"activation pool reclaimed only {report['slot_reduction']:.0%}")
        gate = float(os.environ.get("REPRO_SERVING_SPEEDUP_GATE", "2.0"))
        assert report["speedup"] >= gate, (
            f"compiled serving only {report['speedup']:.2f}x eager "
            f"({report['compiled_regions_per_sec']:.0f} vs "
            f"{report['eager_regions_per_sec']:.0f} regions/sec)")


class TestEvalBenchmarks:
    def test_lasso_fit_paper_shape(self, benchmark):
        # The downstream predictor: n = 180 regions, d = 144 embedding.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((N_REGIONS, D_MODEL))
        y = x[:, 0] * 100 + rng.normal(0, 10, N_REGIONS)
        model = benchmark(lambda: Lasso(alpha=1.0).fit(x, y))
        assert model.coef_ is not None


class TestDataBenchmarks:
    def test_city_generation(self, benchmark):
        config = CityConfig(name="bench", n_regions=77, total_trips=3.4e6,
                            poi_total=50_000)
        city = benchmark.pedantic(lambda: generate_city(config, seed=0),
                                  rounds=1, iterations=1, warmup_rounds=0)
        assert city.n_regions == 77

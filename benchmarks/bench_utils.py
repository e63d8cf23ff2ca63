"""Helpers shared by the benchmark modules: :func:`run_once` and the
builders of the payloads the timing gates assert on and record in
``extra_info``, where ``scripts/compare_benchmarks.py`` diffs their
``speedup`` and ``*regions_per_sec`` gauges night over night.  Every
wall-clock is a best-of-N (:func:`best_of`) taken after a warm-up call;
the scheduler report times the two sides of each ratio alternately
(:func:`best_of_each`).
"""

import time

import numpy as np

from repro.core import (
    HAFusion,
    build_batched_model,
    compiled_optimizer_step,
    make_batch,
    optimizer_step,
    shard_viewset,
)
from repro.nn import Adam, CompiledStep, PlanCache
from repro.serving import EmbeddingService, EmbedRequest, FlushPolicy


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a heavy pipeline exactly once (no warmup rounds)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def best_of(repeats, func, *args) -> float:
    """Shortest wall-clock seconds of ``repeats`` calls of ``func(*args)``."""
    return best_of_each(repeats, lambda: func(*args))[0]


def best_of_each(repeats, *funcs) -> list[float]:
    """Shortest wall-clock seconds of ``repeats`` calls of each of
    ``funcs``, called in turn within each round, so that a burst of host
    load falls on every side of a ratio instead of one side's block."""
    best = [float("inf")] * len(funcs)
    for _ in range(repeats):
        for side, func in enumerate(funcs):
            start = time.perf_counter()
            func()
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def engine_speedup_report(cities, config=None, seed=0, repeats=3) -> dict:
    """Time batched vs. sequential inference over the same shared model.

    Returns the best-of-``repeats`` wall-clock of each path, their
    speedup, and the max absolute embedding difference.
    """
    batch = make_batch(cities)
    service = EmbeddingService(build_batched_model(batch, config, seed),
                               compiled=False)
    # Warm-up (first call pays numpy/BLAS setup) + parity check.
    batched = service.embed_batch(batch)
    sequential = service.embed_each(batch)
    max_abs_diff = max(float(np.abs(b - s).max())
                       for b, s in zip(batched, sequential))
    batched_seconds = best_of(repeats, service.embed_batch, batch)
    sequential_seconds = best_of(repeats, service.embed_each, batch)
    return {
        "batch_size": batch.batch_size,
        "n_max": batch.n_max,
        "n_regions": batch.n_regions,
        "padded": batch.is_padded,
        "repeats": repeats,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "max_abs_diff": max_abs_diff,
    }


def compiled_speedup_report(city, config, seed=7, epochs=4) -> dict:
    """Time eager vs compiled training steps on twin models built from
    one seed (identical weights and rng streams).

    The speedup compares an eager step against a plan *replay*; the
    compiled side's recording epoch is reported on its own.  Parity is
    the largest per-epoch loss difference and the final-embedding max
    absolute difference.  ``top_kernels`` are the five hottest kernels
    of a :meth:`~repro.nn.compile.Plan.profile` taken after all timing.
    """
    if epochs < 2:
        raise ValueError(f"epochs must be >= 2 (the first compiled epoch "
                         f"records; at least one replay is timed), got {epochs}")
    views = city.views()
    mobility_view = (views.names.index("mobility")
                     if "mobility" in views.names else None)

    def build() -> HAFusion:
        return HAFusion(views.dims(), views.n_regions, config,
                        mobility_view=mobility_view,
                        rng=np.random.default_rng(seed))

    eager_model = build()
    parameters = eager_model.parameters()
    optimizer = Adam(parameters, lr=config.lr)
    eager_losses, eager_times = [], []
    for _ in range(epochs):
        start = time.perf_counter()
        eager_losses.append(optimizer_step(
            optimizer, lambda: eager_model.loss(views), parameters,
            config.grad_clip))
        eager_times.append(time.perf_counter() - start)

    compiled_model = build()
    parameters = compiled_model.parameters()
    optimizer = Adam(parameters, lr=config.lr)
    step = CompiledStep(lambda: compiled_model.loss(views))
    compiled_losses, compiled_times = [], []
    for _ in range(epochs):
        start = time.perf_counter()
        compiled_losses.append(compiled_optimizer_step(
            optimizer, step, parameters, config.grad_clip))
        compiled_times.append(time.perf_counter() - start)

    max_loss_diff = max(abs(e - c)
                        for e, c in zip(eager_losses, compiled_losses))
    embedding_diff = float(np.abs(eager_model.embed(views)
                                  - compiled_model.embed(views)).max())
    eager_seconds = min(eager_times)
    compiled_seconds = min(compiled_times[1:])
    plan = step.plan
    buffers = plan.buffer_report()
    # Last: the profile replays update the gradient buffers, which is
    # fine only because every comparison has already been taken.
    prof = plan.profile(replays=3)
    return {
        "grad_buffer_bytes": buffers["grad_buffer_bytes"],
        "grad_buffer_bytes_unpooled": buffers["grad_buffer_bytes_unpooled"],
        "grad_buffer_reduction": buffers["grad_buffer_reduction"],
        "city": city.name,
        "n_regions": views.n_regions,
        "epochs": epochs,
        "plan_forward_ops": plan.num_forward_ops,
        "plan_backward_ops": plan.num_backward_ops,
        "record_seconds": compiled_times[0],
        "eager_seconds_per_epoch": eager_seconds,
        "compiled_seconds_per_epoch": compiled_seconds,
        "speedup": eager_seconds / compiled_seconds,
        "max_loss_diff": max_loss_diff,
        "final_embedding_max_abs_diff": embedding_diff,
        "top_kernels": prof["top_kernels"],
    }


def serving_speedup_report(cities, config=None, seed=7, repeats=5) -> dict:
    """Time eager vs compiled ``EmbeddingService.embed_batch`` on one
    shared model answering repeated requests of one shape.

    The eager side rebuilds the tape per request; the compiled side
    replays the cached :class:`~repro.nn.compile.InferencePlan`, whose
    record epoch is reported on its own, as a warm server runs.  Also
    reports the max absolute embedding difference and the plan's
    activation-pool byte accounting.
    """
    batch = make_batch(cities)
    cache = PlanCache()
    service = EmbeddingService(build_batched_model(batch, config, seed),
                               plan_cache=cache)
    # Warm-up (numpy/BLAS setup + the record epoch) and parity check.
    eager = service.embed_batch(batch, compiled=False)
    start = time.perf_counter()
    compiled = service.embed_batch(batch, compiled=True)
    record_seconds = time.perf_counter() - start
    max_abs_diff = max(float(np.abs(e - c).max())
                       for e, c in zip(eager, compiled))
    eager_seconds = best_of(repeats, service.embed_batch, batch, False)
    compiled_seconds = best_of(repeats, service.embed_batch, batch, True)
    plan = service.plan_for(batch)
    buffers = plan.buffer_report()
    total_regions = sum(batch.n_regions)
    return {
        "batch_size": batch.batch_size,
        "n_max": batch.n_max,
        "n_regions_total": total_regions,
        "padded": batch.is_padded,
        "repeats": repeats,
        "record_seconds": record_seconds,
        "eager_seconds": eager_seconds,
        "compiled_seconds": compiled_seconds,
        "speedup": eager_seconds / compiled_seconds,
        "eager_regions_per_sec": total_regions / eager_seconds,
        "compiled_regions_per_sec": total_regions / compiled_seconds,
        "max_abs_diff": max_abs_diff,
        "plan_forward_ops": plan.num_forward_ops,
        "plan_fused_chains": plan.num_fused_chains,
        "slot_bytes": buffers["slot_bytes"],
        "slot_bytes_unpooled": buffers["slot_bytes_unpooled"],
        "slot_reduction": buffers["slot_reduction"],
        "cache_stats": cache.stats(),
    }


def serving_scheduler_report(views, config, seed, max_batch, uniform_batch,
                             ragged_shard_counts, repeats) -> dict:
    """Measure scheduler throughput on two traffic shapes, both sides
    replaying warm resident plans:

    - **uniform** — ``uniform_batch`` full-size requests through the
      scheduler against one direct ``embed_batch`` of the same batch;
    - **ragged** — the city's shards at each of ``ragged_shard_counts``,
      mixed, so no two shard populations pad alike: scheduler
      co-batching against sequential serving, with their parity.
    """
    policy = FlushPolicy(max_batch=max_batch, max_wait=60.0)
    service = EmbeddingService.build([views] * uniform_batch, config, seed,
                                     policy=policy)
    direct_batch = make_batch([views] * uniform_batch)

    def scheduler_uniform():
        return service.run([EmbedRequest(views) for _ in range(uniform_batch)])

    service.embed_batch(direct_batch)          # record epoch (excluded)
    scheduler_uniform()                        # warm the flush path
    direct_seconds, scheduler_seconds = best_of_each(
        repeats, lambda: service.embed_batch(direct_batch), scheduler_uniform)
    uniform_regions = uniform_batch * views.n_regions
    uniform = {
        "n_regions": views.n_regions,
        "batch_size": uniform_batch,
        "direct_seconds": direct_seconds,
        "scheduler_seconds": scheduler_seconds,
        "direct_regions_per_sec": uniform_regions / direct_seconds,
        "scheduler_regions_per_sec": uniform_regions / scheduler_seconds,
        "efficiency": direct_seconds / scheduler_seconds,
    }

    traffic = [shard for count in ragged_shard_counts
               for shard in shard_viewset(views, count)]
    ragged = EmbeddingService.build(traffic, config, seed, policy=policy)
    batch_all = make_batch(traffic, n_max=ragged.n_max,
                           view_dims=ragged.view_dims)

    def scheduler_ragged():
        return ragged.run([EmbedRequest(vs) for vs in traffic])

    # Warm both paths (records every plan) + parity check.
    sequential = ragged.embed_each(batch_all)
    responses = scheduler_ragged()
    max_abs_diff = max(float(np.abs(r.embeddings - s).max())
                       for r, s in zip(responses, sequential))
    sequential_seconds, scheduler_seconds = best_of_each(
        repeats, lambda: ragged.embed_each(batch_all), scheduler_ragged)
    total_regions = sum(vs.n_regions for vs in traffic)
    stats = ragged.stats()
    return {
        "uniform": uniform,
        "ragged": {
            "requests": len(traffic),
            "n_max": ragged.n_max,
            "sizes": sorted({vs.n_regions for vs in traffic}),
            "sequential_seconds": sequential_seconds,
            "scheduler_seconds": scheduler_seconds,
            "speedup": sequential_seconds / scheduler_seconds,
            "sequential_regions_per_sec": total_regions / sequential_seconds,
            "scheduler_regions_per_sec": total_regions / scheduler_seconds,
            "max_abs_diff": max_abs_diff,
            "padding_overhead": stats["padding_overhead"],
        },
        "scheduler_stats": stats,
    }

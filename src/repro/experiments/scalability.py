"""Fig. 7 — impact of the number of regions (NYC expansions).

Accuracy (check-in R²) and total running time (training + downstream) on
180 / 360 / 720 / 1440 regions. Expected shape: accuracy decreases with
n for every model (outer regions are sparse); HAFusion stays best; the
runtime of quadratic-attention models grows faster than HAFusion's
external-attention InterAFL.

Resource note: at n = 1440 the n×n convolutional buffers of IntraAFL are
large (32 channels × 1440² floats); the runner scales ``conv_channels``
down with n (32 / 16 / 8 / 4) — documented in EXPERIMENTS.md — which
affects absolute accuracy mildly and preserves the runtime-growth shape.

The payload also carries an ``engine`` section: the largest city in the
sweep is split into region shards and embedded through
:meth:`repro.serving.EmbeddingService.embed_batch` (one fused
``(b, n, d)`` tensor pass) vs. the per-shard loop of ``embed_each`` over
the identical model, recording the wall-clock speedup and the max
absolute embedding difference.  Its ``serving`` sub-section times eager
vs *compiled* ``embed_batch`` on the full city (the forward-only
:class:`~repro.nn.compile.InferencePlan` replay); the plan spec persists
in the experiment cache, so repeated runs relower it instead of paying
the record epoch.

HAFusion trains through the compiled record/replay executor, so the
recorded wall-clocks reflect the compiled step (``REPRO_EAGER=1``
restores the eager tape).
"""

from __future__ import annotations

from ..core import (
    HAFusionConfig,
    engine_speedup_report,
    serving_speedup_report,
    shard_viewset,
)
from ..data import load_city
from ..eval.reporting import format_table
from ..nn import PlanCache
from ..serving import serving_scheduler_report
from .common import (
    MODEL_LABELS,
    MODEL_ORDER,
    cache_dir,
    compute_embeddings,
    evaluate_model,
    get_profile,
    use_compiled_training,
)

__all__ = ["run_fig7", "format_fig7", "run_engine_comparison", "SIZES"]

SIZES = ("nyc", "nyc_360", "nyc_720", "nyc_1440")

_CONV_CHANNELS = {"nyc": 32, "nyc_360": 16, "nyc_720": 8, "nyc_1440": 4}

#: Target regions per shard for the batched-engine comparison. Small
#: shards put the per-forward Python/numpy dispatch overhead — the cost
#: the batch axis amortizes — in the majority, which is exactly the
#: regime the engine exists for.
_ENGINE_SHARD_REGIONS = 8


#: City the scheduler-throughput section runs on: the base NYC size —
#: big enough for meaningful compute, small enough that the uniform
#: section's (max_batch, n, n) conv buffers stay modest even inside the
#: nyc_1440 sweep.
_SCHEDULER_CITY = "nyc"


def run_engine_comparison(size: str, seed: int = 7,
                          shard_regions: int = _ENGINE_SHARD_REGIONS,
                          repeats: int = 5) -> dict:
    """Batched vs. sequential engine inference on shards of one city,
    plus eager vs compiled serving on the full city and the serving
    scheduler's uniform/ragged throughput on the base city.

    The serving comparison's plan spec is persisted under the experiment
    cache (``.cache/plans``), so a repeated run relowers the cached spec
    instead of re-recording."""
    city = load_city(size, seed=seed)
    num_shards = max(2, city.n_regions // shard_regions)
    config = HAFusionConfig.for_city(
        size, conv_channels=_CONV_CHANNELS.get(size, 8))
    shards = shard_viewset(city.views(), num_shards)
    report = engine_speedup_report(shards, config, seed=seed, repeats=repeats)
    report["city"] = size
    report["num_shards"] = num_shards
    plan_cache = PlanCache(directory=cache_dir() / "plans")
    report["serving"] = serving_speedup_report([city], config, seed=seed,
                                               repeats=3,
                                               plan_cache=plan_cache)
    sched_city = load_city(_SCHEDULER_CITY, seed=seed)
    sched_config = HAFusionConfig.for_city(_SCHEDULER_CITY, conv_channels=8)
    report["scheduler"] = serving_scheduler_report(
        sched_city.views(), sched_config, seed=seed, max_batch=4, repeats=3)
    report["scheduler"]["city"] = _SCHEDULER_CITY
    return report


def run_fig7(profile: str = "quick", sizes: tuple[str, ...] = SIZES,
             models: tuple[str, ...] = MODEL_ORDER,
             use_cache: bool = True) -> dict:
    """Returns accuracy and total runtime per (size, model), plus the
    batched-engine speedup report on shards of the largest city."""
    prof = get_profile(profile)
    accuracy: dict = {model: {} for model in models}
    runtime: dict = {model: {} for model in models}
    region_counts: dict = {}
    for size in sizes:
        city = load_city(size, seed=prof.seed)
        region_counts[size] = city.n_regions
        for model_name in models:
            overrides = None
            if model_name == "hafusion":
                overrides = {"conv_channels": _CONV_CHANNELS.get(size, 8)}
            emb = compute_embeddings(model_name, city, profile=prof,
                                     use_cache=use_cache,
                                     config_overrides=overrides)
            result = evaluate_model(emb, city, "checkin", profile=prof)
            accuracy[model_name][size] = result.r2
            runtime[model_name][size] = emb.train_seconds + result.seconds
    largest = max(sizes, key=lambda s: region_counts[s])
    engine = run_engine_comparison(largest, seed=prof.seed)
    return {"accuracy": accuracy, "runtime": runtime,
            "region_counts": region_counts, "profile": prof.name,
            "sizes": sizes, "models": models, "engine": engine,
            "compiled_training": use_compiled_training()}


def format_fig7(payload: dict) -> str:
    counts = payload["region_counts"]
    headers = ["model"] + [f"n={counts[s]}" for s in payload["sizes"]]
    acc_rows, time_rows = [], []
    for model in payload["models"]:
        label = MODEL_LABELS.get(model, model)
        acc_rows.append([label] + [f"{payload['accuracy'][model][s]:.3f}"
                                   for s in payload["sizes"]])
        time_rows.append([label] + [f"{payload['runtime'][model][s]:.1f}"
                                    for s in payload["sizes"]])
    sections = [
        format_table(headers, acc_rows,
                     title=f"Fig. 7a / check-in R2 vs #regions (profile={payload['profile']})"),
        format_table(headers, time_rows,
                     title="Fig. 7b / total running time (s) vs #regions"),
    ]
    engine = payload.get("engine")
    if engine:
        sections.append(
            f"Batched engine ({engine['city']}, {engine['num_shards']} shards of "
            f"~{engine['n_max']} regions): sequential {engine['sequential_seconds']:.3f}s, "
            f"batched {engine['batched_seconds']:.3f}s — "
            f"{engine['speedup']:.2f}x speedup, max |Δ| = {engine['max_abs_diff']:.1e}")
        serving = engine.get("serving")
        if serving:
            sections.append(
                f"Compiled serving ({engine['city']}, full city): eager "
                f"{serving['eager_regions_per_sec']:.0f} regions/s, compiled "
                f"{serving['compiled_regions_per_sec']:.0f} regions/s — "
                f"{serving['speedup']:.2f}x speedup, max |Δ| = "
                f"{serving['max_abs_diff']:.1e}, activation pool "
                f"{serving['slot_reduction']:.0%} smaller")
        scheduler = engine.get("scheduler")
        if scheduler:
            ragged = scheduler["ragged"]
            sections.append(
                f"Serving scheduler ({scheduler['city']}): ragged traffic "
                f"{ragged['scheduler_regions_per_sec']:.0f} regions/s "
                f"co-batched vs {ragged['sequential_regions_per_sec']:.0f} "
                f"sequential — {ragged['speedup']:.2f}x, padding overhead "
                f"{ragged['padding_overhead']:.0%}, uniform-traffic "
                f"efficiency {scheduler['uniform']['efficiency']:.2f}x of "
                f"the direct batched path")
    return "\n\n".join(sections)

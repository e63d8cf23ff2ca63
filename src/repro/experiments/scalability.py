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

HAFusion trains through the compiled record/replay executor, so the
recorded wall-clocks reflect the compiled step (``REPRO_EAGER=1``
restores the eager tape).

The batched engine's speedup over the per-city loop, which is not part
of the paper's figure, is gated by ``benchmarks/test_fig7_scalability.py``.
"""

from __future__ import annotations

from ..data import load_city
from ..eval.reporting import format_table
from .common import (
    MODEL_LABELS,
    MODEL_ORDER,
    compute_embeddings,
    evaluate_model,
    get_profile,
    use_compiled_training,
)

__all__ = ["run_fig7", "format_fig7", "SIZES"]

SIZES = ("nyc", "nyc_360", "nyc_720", "nyc_1440")

_CONV_CHANNELS = {"nyc": 32, "nyc_360": 16, "nyc_720": 8, "nyc_1440": 4}


def run_fig7(profile: str = "quick", sizes: tuple[str, ...] = SIZES,
             models: tuple[str, ...] = MODEL_ORDER,
             use_cache: bool = True) -> dict:
    """Returns accuracy and total runtime per (size, model)."""
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
    return {"accuracy": accuracy, "runtime": runtime,
            "region_counts": region_counts, "profile": prof.name,
            "sizes": sizes, "models": models,
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
    return "\n\n".join([
        format_table(headers, acc_rows,
                     title=f"Fig. 7a / check-in R2 vs #regions (profile={payload['profile']})"),
        format_table(headers, time_rows,
                     title="Fig. 7b / total running time (s) vs #regions"),
    ])

"""The benchmark's metric catalogue: workloads, end-to-end metrics and
per-layer metrics, with the end-to-end metric and workload each layer
metric is expected to move.

``BENCHMARK.json`` at the repository root mirrors this module (names,
units, directions, bounds); ``tests/test_perfbench_catalog.py`` keeps the
two in step.  Later performance changes cite these names.
"""

from __future__ import annotations

import re

#: Metric names: a letter or digit first, then letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = {
    "train-table5": (
        "Table V pipeline (nyc, paper config, float32, compiled + folded "
        "Adam, checkpoints, 3 downstream tasks): the only workload with "
        "backward, optimizer and checkpoint writes."),
    "serve-trace": (
        "Closed loop, one connection: seeded chi+nyc trace of full cities, "
        "shards, dtypes and subsets pipelined to a warm 1-worker fleet; "
        "bulk InferencePlan replay, checked bit-for-bit."),
    "serve-open": (
        "Open loop, one asyncio connection: seeded Poisson arrivals of "
        "11-45-region shards, 3 dtypes, at 10/s under the default flush; "
        "admission, queueing, codec and fleet hop rather than kernels."),
}

# (name, unit, better, bound) -- bound is the share of the parent's
# median by which the metric may worsen before a change is rejected.
# Timings get the largest bound allowed: on the shared 2-core box they
# were measured on, host load moves a whole run by up to ~10%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("regions_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

_SHARE_KINDS = ("fused_gate", "matmul", "conv2d", "softmax", "layernorm")


def _layer_rows() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, target) for every per-layer metric; target
    names the end-to-end metric and workload the layer should move."""
    train_rate = "regions_per_s@train-table5"
    trace_rate = "regions_per_s@serve-trace"
    open_lat = "latency_p50_ms@serve-open"
    rows = [
        # repro.data
        ("data.load_city_s", "s", "lower", "setup_s@all"),
        # repro.core: eager no_grad forward per component (record path)
        ("core.intra_afl_s", "s", "lower", "setup_s,regions_per_s@train-table5"),
        ("core.inter_afl_s", "s", "lower", "setup_s,regions_per_s@train-table5"),
        ("core.view_fusion_s", "s", "lower", "setup_s,regions_per_s@train-table5"),
        ("core.region_fusion_s", "s", "lower", "setup_s,regions_per_s@train-table5"),
        ("core.loss_heads_s", "s", "lower", "setup_s,regions_per_s@train-table5"),
        # repro.nn.compile: the training plan
        ("compile.record_s", "s", "lower", train_rate),
        ("compile.forward_s", "s", "lower", train_rate),
        ("compile.backward_s", "s", "lower", train_rate),
        ("compile.update_s", "s", "lower", train_rate),
    ]
    for phase in ("fwd", "bwd"):
        rows += [(f"compile.share.{phase}.{kind}", "ratio", "lower", train_rate)
                 for kind in _SHARE_KINDS]
    rows += [
        ("compile.share.upd.adam", "ratio", "lower", train_rate),
        ("compile.profile_coverage", "ratio", "higher", "attribution"),
        ("compile.grad_buffer_bytes", "bytes", "lower", "peak_rss_mb@train-table5"),
        ("compile.kernel_scratch_bytes", "bytes", "lower", "peak_rss_mb@train-table5"),
        ("compile.ops.forward", "count", "lower", train_rate),
        ("compile.ops.backward", "count", "lower", train_rate),
        ("compile.ops.update", "count", "lower", train_rate),
        ("compile.ops.threaded", "count", "higher", train_rate),
        # repro.nn.compile: the serving plan
        ("compile.infer.run_ms", "ms", "lower", trace_rate),
        ("compile.infer.share.fused_gate", "ratio", "lower", trace_rate),
        ("compile.infer.slot_bytes", "bytes", "lower", "peak_rss_mb@serve-trace"),
        # repro.train.checkpoint
        ("checkpoint.save_s", "s", "lower", train_rate),
        ("checkpoint.bytes", "bytes", "lower", train_rate),
        ("checkpoint.stall_share", "ratio", "lower", train_rate),
        # repro.eval (Table V's downstream column)
        ("eval.checkin_s", "s", "lower", "eval.downstream_s@train-table5"),
        ("eval.crime_s", "s", "lower", "eval.downstream_s@train-table5"),
        ("eval.service_call_s", "s", "lower", "eval.downstream_s@train-table5"),
        ("eval.downstream_s", "s", "lower", "table5.downstream@train-table5"),
        ("eval.downstream_r2", "ratio", "higher", "quality@train-table5"),
        ("train.epochs_per_s", "1/s", "higher", train_rate),
        # repro.nn.plancache + repro.serving.warmup
        ("plancache.pack_build_s", "s", "lower", "setup_s@serve-trace,serve-open"),
        ("plancache.attach_s", "s", "lower", "setup_s@serve-trace,serve-open"),
        ("plancache.events.hit", "count", "higher", "latency_tail_ms@serve-*"),
        ("plancache.events.spec", "count", "lower", "latency_tail_ms@serve-*"),
        ("plancache.events.disk", "count", "lower", "latency_tail_ms@serve-*"),
        ("plancache.events.record", "count", "lower", "latency_tail_ms@serve-*"),
        # repro.serving.api: the wire codec
        ("codec.request_encode_ms", "ms", "lower", f"{open_lat},{trace_rate}"),
        ("codec.request_decode_ms", "ms", "lower", f"{open_lat},{trace_rate}"),
        ("codec.response_encode_ms", "ms", "lower", f"{open_lat},{trace_rate}"),
        ("codec.response_decode_ms", "ms", "lower", f"{open_lat},{trace_rate}"),
        ("codec.request_bytes", "bytes", "lower", f"{open_lat},{trace_rate}"),
        # repro.serving.scheduler + service
        ("scheduler.batch_size", "count", "higher", trace_rate),
        ("scheduler.fill_ratio", "ratio", "higher", trace_rate),
        ("scheduler.queue_wait_p50_ms", "ms", "lower", open_lat),
        ("scheduler.queue_wait_tail_ms", "ms", "lower", "latency_tail_ms@serve-open"),
        ("service.compute_p50_ms", "ms", "lower", trace_rate),
        ("service.compute_tail_ms", "ms", "lower", trace_rate),
        ("service.inproc_regions_per_s", "1/s", "higher", trace_rate),
        # repro.serving.fleet
        ("fleet.start_s", "s", "lower", "setup_s@serve-trace,serve-open"),
        ("fleet.hop_ms", "ms", "lower", f"{open_lat},{trace_rate}"),
        ("fleet.crashes", "count", "lower", "run.fail_ratio@serve-*"),
        ("fleet.retries", "count", "lower", "run.fail_ratio@serve-*"),
        ("fleet.respawns", "count", "lower", "run.fail_ratio@serve-*"),
        ("fleet.failed_batches", "count", "lower", "run.fail_ratio@serve-*"),
        # repro.serving.frontend
        ("frontend.latency_p50_ms", "ms", "lower", open_lat),
        ("frontend.latency_tail_ms", "ms", "lower", "latency_tail_ms@serve-open"),
        ("frontend.client_overhead_ms", "ms", "lower", open_lat),
        ("frontend.shed", "count", "lower", "run.fail_ratio@serve-*"),
        ("frontend.rejected", "count", "lower", "run.fail_ratio@serve-*"),
        ("frontend.deadline_failures", "count", "lower", "run.fail_ratio@serve-*"),
        # open-loop detail (serve-open)
        ("open.max_rate_rps", "1/s", "higher", "capacity@serve-open"),
        ("open.send_lateness_tail_ms", "ms", "lower", "generator health"),
        # the run itself
        ("run.fail_ratio", "ratio", "lower", "correctness@all"),
        ("run.tail_percentile", "%", "higher", "latency_tail_ms@all"),
    ]
    rows += [(f"trace.overhead.{name}", unit, "lower", "tracing cost")
             for name, unit, _, _ in END_TO_END]
    return rows


PER_LAYER = _layer_rows()

#: Per-layer metric -> (unit, the e2e metric and workload it should move).
LAYER_TARGETS = {name: (unit, target) for name, unit, _, target in PER_LAYER}

#: Workloads whose traced runs also run a small traced pass of another
#: workload, so every traced result carries every per-layer metric
#: (metrics the primary workload measures itself always win).
PROBES = {
    "train-table5": ("serve-open",),
    "serve-trace": ("serve-open", "train-table5"),
    "serve-open": ("train-table5",),
}

#: --seconds given to a probe pass.
PROBE_SECONDS = 3


def benchmark_spec() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }

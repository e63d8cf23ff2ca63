"""``train-table5``: the Table V pipeline as the experiments run it.

``compute_embeddings("hafusion", load_city("nyc"), ...)`` trains the
paper configuration (n=180, d=144) in float32 through the compiled step
with the folded Adam update, writing checkpoints, then
``evaluate_model`` runs the three downstream tasks.  The epoch count is
a fixed function of ``--seconds`` so both sides of a comparison do the
same work.
"""

from __future__ import annotations

import os
import time

import numpy as np

from measure import PassResult, Tracer, latency_summary, median, peak_rss_mb

#: City generations timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 25
EPOCHS_PER_SECOND = 4
MIN_EPOCHS = 10
#: The experiments' checkpoint interval; shorter runs save at half-way.
CHECKPOINT_EVERY = 50
TASKS = ("checkin", "crime", "service_call")
#: Untraced replays timed for the profile-coverage denominator.
STEP_REPLAYS = 5
PROFILE_REPLAYS = 3
_SHARE_TAGS = {"fused_gate": "fused_gate", "matmul": "matmul",
               "conv2d": "conv2d", "softmax": "softmax",
               "layernorm": "fused_layernorm"}


def epochs_for(seconds: int) -> int:
    return max(MIN_EPOCHS, EPOCHS_PER_SECOND * int(seconds))


def run_pass(seed: int, seconds: int, traced: bool, workdir: str) -> PassResult:
    from repro.data import load_city
    from repro.experiments import common
    from repro.nn import CompiledStep
    from repro.nn.compile import Plan
    from repro.train.checkpoint import Checkpointer

    epochs = epochs_for(seconds)
    every = CHECKPOINT_EVERY if epochs >= CHECKPOINT_EVERY else epochs // 2
    profile = common.ExperimentProfile("perfbench", hafusion_epochs=epochs,
                                       baseline_epochs=1, seed=seed)
    load_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        city = load_city("nyc", seed=seed)
        load_times.append(time.perf_counter() - start)

    tracer = Tracer()
    seen: dict = {"saves": []}
    tracer.wrap(common, "train_hafusion", "train.train_hafusion",
                on_return=lambda a, r, s: seen.update(model=r[0], history=r[1]))
    tracer.wrap(CompiledStep, "run", "compile.step",
                on_return=lambda a, r, s: seen.setdefault("step", a[0]))
    if traced:
        tracer.wrap(Plan, "forward", "compile.forward")
        tracer.wrap(Plan, "backward", "compile.backward")
        tracer.wrap(Plan, "update", "compile.update")
        tracer.wrap(Checkpointer, "save", "checkpoint.save",
                    on_return=lambda a, r, s: seen["saves"].append(r))
    scores = {}
    try:
        result = common.compute_embeddings(
            "hafusion", city, profile=profile, use_cache=False,
            checkpoint_dir=os.path.join(workdir, "checkpoints"),
            checkpoint_every=every)
        for task in TASKS:
            with tracer.span(f"eval.{task}"):
                scores[task] = common.evaluate_model(result, city, task,
                                                     profile=profile).r2
    finally:
        tracer.restore()

    errors = _check(result, seen["history"].losses, epochs, scores)
    steps = tracer.durations("compile.step")
    latency = latency_summary(steps)
    e2e = {
        "setup_s": median(load_times),
        "regions_per_s": city.n_regions * epochs / result.train_seconds,
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = {}
    if traced:
        eval_times = {t: tracer.durations(f"eval.{t}")[0] for t in TASKS}
        layers = {
            "data.load_city_s": median(load_times),
            "train.epochs_per_s": epochs / result.train_seconds,
            **{f"eval.{t}_s": s for t, s in eval_times.items()},
            "eval.downstream_s": sum(eval_times.values()),
            "eval.downstream_r2": float(np.mean(list(scores.values()))),
            "compile.record_s": steps[0],
            "compile.forward_s": median(tracer.durations("compile.forward")),
            "compile.backward_s": median(tracer.durations("compile.backward")),
            "compile.update_s": median(tracer.durations("compile.update")),
            "run.tail_percentile": latency["tail_pct"],
            "run.fail_ratio": 0.0,
        }
        saves = tracer.durations("checkpoint.save")
        layers.update({
            "checkpoint.save_s": median(saves),
            "checkpoint.bytes": os.path.getsize(seen["saves"][-1]),
            "checkpoint.stall_share": sum(saves) / result.train_seconds,
        })
        layers.update(_plan_metrics(seen["step"].plan))
        layers.update(_component_seconds(seen["model"], city.views()))
    return PassResult(e2e=e2e, layers=layers, attempted=epochs + len(TASKS),
                      failed=0, errors=errors, tracer=tracer)


def _check(result, losses, epochs, scores) -> list[str]:
    errors = []
    if len(losses) != epochs:
        errors.append(f"trained {len(losses)} epochs, expected {epochs}")
    if not np.all(np.isfinite(losses)):
        errors.append("non-finite training loss")
    elif not losses[-1] < losses[0]:
        errors.append(f"loss did not decrease: {losses[0]} -> {losses[-1]}")
    emb = result.embeddings
    if emb.shape != (180, 144):
        errors.append(f"embedding shape {emb.shape}, expected (180, 144)")
    if not np.all(np.isfinite(emb)):
        errors.append("non-finite embeddings")
    if not all(np.isfinite(v) for v in scores.values()):
        errors.append(f"non-finite downstream R2: {scores}")
    return errors


def _plan_metrics(plan) -> dict:
    """Kernel counts, buffer bytes and the op-kind time split of the
    trained plan; replays it, so only after training is done."""
    buffers = plan.buffer_report()
    metrics = {
        "compile.grad_buffer_bytes": buffers["grad_buffer_bytes"],
        "compile.kernel_scratch_bytes": buffers["kernel_scratch_bytes"],
        "compile.ops.forward": plan.num_forward_ops,
        "compile.ops.backward": plan.num_backward_ops,
        "compile.ops.update": plan.num_update_ops,
        "compile.ops.threaded": plan.num_threaded_ops,
    }
    step_times = []
    for _ in range(STEP_REPLAYS):
        start = time.perf_counter()
        plan.replay_step()
        step_times.append(time.perf_counter() - start)
    report = plan.profile(replays=PROFILE_REPLAYS, include_update=True)
    total = report["seconds_per_replay"]
    ops = report["ops"]

    def share(*tags):
        return sum(ops[t]["seconds"] for t in tags if t in ops) \
            / report["replays"] / total

    for phase, prefix in (("fwd", "F:"), ("bwd", "B:")):
        for kind, tag in _SHARE_TAGS.items():
            metrics[f"compile.share.{phase}.{kind}"] = share(prefix + tag)
    metrics["compile.share.upd.adam"] = share("U:adam", "U:adam_bias")
    metrics["compile.profile_coverage"] = total / median(step_times)
    return metrics


def _component_seconds(model, views, repeats: int = 3) -> dict:
    """Eager ``no_grad`` forward time of each model component, in the
    training precision and mode (the record-epoch path)."""
    from repro.core.losses import feature_similarity_loss, mobility_kl_loss
    from repro.nn import Tensor, no_grad
    from repro.nn.tensor import use_dtype

    hal, fusion, config = model.halearning, model.fusion, model.config
    times: dict[str, list[float]] = {}

    def timed(name, fn):
        start = time.perf_counter()
        out = fn()
        times.setdefault(name, []).append(time.perf_counter() - start)
        return out

    with use_dtype(np.float32), no_grad():
        for _ in range(repeats):
            inputs = [Tensor(m) for m in views.matrices]
            z_sv = timed("core.intra_afl_s", lambda: [
                enc(x) for enc, x in zip(hal.intra, inputs)])
            z_cv = timed("core.inter_afl_s", lambda: hal.inter(
                Tensor.stack(z_sv, axis=-2)))
            beta = hal.beta_logit.sigmoid()
            blended = [z * beta + z_cv[..., j, :] * (1.0 - beta)
                       for j, z in enumerate(z_sv)]
            fused = timed("core.view_fusion_s",
                          lambda: fusion.view_fusion(blended))
            h = timed("core.region_fusion_s",
                      lambda: fusion.region_fusion(fused))

            def heads():
                for j in range(model.n_views):
                    feature_similarity_loss(model.feature_heads[j](h),
                                            views.matrices[j])
                    if j == model.mobility_view:
                        mobility_kl_loss(model.source_head(h),
                                         model.dest_head(h), views.raw[j],
                                         scale=config.mobility_loss_scale)
            timed("core.loss_heads_s", heads)
    return {name: median(values) for name, values in times.items()}

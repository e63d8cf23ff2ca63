"""Full-batch training loop for HAFusion (paper Sec. VI-A).

The paper trains for 2,500 epochs in full batches with Adam (lr 5e-4).
:func:`train_hafusion` is the one-call entry point used by the examples
and experiment runners; :class:`TrainingHistory` records per-epoch losses
and wall-clock time for Table V.

``compiled=True`` switches the loop onto the record-once/replay-many
executor (:mod:`repro.nn.compile`): the first epoch runs eagerly under
the tape recorder, every later epoch replays the captured plan over
preallocated buffers.  Shapes are static in full-batch training, so the
plan stays valid for the whole run; if they do change, the step falls
back to one eager (re-recording) epoch automatically.

Training is **crash-safe** (PR 9): pass ``checkpoint_dir=`` to persist
atomic checksummed checkpoints (:mod:`repro.train.checkpoint`) every
``checkpoint_every`` epochs, and ``resume=True`` to continue from the
newest intact one — bit-identically, for both eager and compiled runs.
SIGTERM/SIGINT are handled preemption-style: the loop finishes the
current epoch, checkpoints, and raises
:class:`~repro.train.checkpoint.TrainingPreempted`.  Non-finite losses
or gradients checkpoint the diverged state and raise
:class:`~repro.train.checkpoint.NumericalError` instead of silently
training on NaNs.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.city import SyntheticCity
from ..data.features import ViewSet
from ..nn import Adam, CompiledStep, clip_grad_norm
from ..train.checkpoint import Checkpointer, NumericalError, TrainingPreempted
from .config import HAFusionConfig
from .model import HAFusion

__all__ = ["TrainingHistory", "optimizer_step", "compiled_optimizer_step",
           "run_training_loop", "train_model", "train_hafusion"]


@dataclass
class TrainingHistory:
    """Loss curve and timing of one training run.

    ``resume_report`` is populated by :func:`run_training_loop` when a
    checkpointer was active: checkpoints written/loaded/discarded, the
    resume epoch, and the wall-clock the resume did not have to redo.
    """

    losses: list[float] = field(default_factory=list)
    seconds: float = 0.0
    resume_report: dict | None = None

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no epochs recorded")
        return self.losses[-1]

    def improved(self) -> bool:
        """Whether the loss decreased from first to last epoch."""
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]


def optimizer_step(optimizer, loss_fn, parameters, grad_clip: float) -> float:
    """One full-batch step: zero grads, evaluate ``loss_fn``, backprop,
    clip, update. Shared by :func:`train_model` and the batched engine's
    :class:`~repro.core.engine.BatchedTrainer`; returns the loss value.
    """
    optimizer.zero_grad()
    loss = loss_fn()
    loss.backward()
    if grad_clip > 0:
        clip_grad_norm(parameters, grad_clip)
    optimizer.step()
    return loss.item()


def compiled_optimizer_step(optimizer, step: CompiledStep, parameters,
                            grad_clip: float) -> float:
    """Compiled twin of :func:`optimizer_step`: the forward+backward pair
    is one plan replay (``step.run()`` binds every parameter's ``.grad``);
    clipping and the optimizer update stay identical.

    For a step built *without* a folded optimizer.  Prefer constructing
    ``CompiledStep(..., optimizer=opt, grad_clip=clip)`` and calling
    ``step.run()`` directly — that folds clip+update into the plan's
    kernel list (bit-identical, less per-epoch python)."""
    optimizer.zero_grad()
    value = step.run()
    if grad_clip > 0:
        clip_grad_norm(parameters, grad_clip)
    optimizer.step()
    return value


def _non_finite_grads(named_parameters) -> list[str]:
    """Names of parameters whose gradient holds a NaN or ±inf.

    Allocation-free: min/max reductions propagate NaN and surface inf,
    so one pair of scalars per parameter decides finiteness."""
    bad: list[str] = []
    for name, param in named_parameters:
        grad = param.grad
        if grad is None or grad.size == 0:
            continue
        lo, hi = grad.min(), grad.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            bad.append(name)
    return bad


def run_training_loop(step, epochs: int, log_every: int = 0, *,
                      history: TrainingHistory | None = None,
                      checkpointer: Checkpointer | None = None,
                      fault_plan=None,
                      named_parameters=None,
                      check_numerics: bool = True,
                      handle_signals: bool = True) -> TrainingHistory:
    """Drive ``step()`` once per remaining epoch, recording the loss
    curve and wall-clock time (the one training protocol both the
    per-city and the batched trainers follow).

    Parameters
    ----------
    history:
        A resumed :class:`TrainingHistory` — the loop continues at epoch
        ``len(history.losses) + 1`` and *replays nothing* (already at or
        past ``epochs`` means zero steps run).  ``None`` starts fresh.
    checkpointer:
        Saves a checkpoint every ``checkpointer.every`` completed epochs,
        plus one on preemption or numerical abort; fills
        ``history.resume_report`` on exit.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` fired at the ``before_step`` /
        ``after_step`` points of each epoch (the ``mid_checkpoint``
        point fires inside the checkpointer's writes, so it is rejected
        when there is no checkpointer).
    named_parameters:
        ``(name, Parameter)`` pairs whose gradients the numerical guard
        scans after each step; ``None`` guards the loss value only.
    check_numerics:
        Raise :class:`~repro.train.checkpoint.NumericalError` (after
        checkpointing, when a checkpointer is active) on a non-finite
        loss or gradient instead of training on into NaN.
    handle_signals:
        Turn SIGTERM/SIGINT into finish-epoch → checkpoint →
        :class:`~repro.train.checkpoint.TrainingPreempted` (main thread
        only; worker threads never install handlers).
    """
    if fault_plan is not None:
        fault_plan.check_fire_points(
            ("before_step", "after_step")
            + (("mid_checkpoint",) if checkpointer is not None else ()),
            "the training loop")
    history = history if history is not None else TrainingHistory()
    base_seconds = history.seconds
    start = time.perf_counter()
    attempt = checkpointer.attempt if checkpointer is not None else 1

    def _sync_seconds() -> None:
        history.seconds = base_seconds + (time.perf_counter() - start)

    def _fire(epoch: int, when: str) -> None:
        if fault_plan is not None:
            fault_plan.apply(when, epoch=epoch, attempt=attempt)

    preempt_signals: list[int] = []
    installed: list[tuple[int, object]] = []
    if handle_signals and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            preempt_signals.append(signum)
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                installed.append((sig, signal.signal(sig, _on_signal)))
            except (ValueError, OSError):   # exotic embedding; run unguarded
                pass

    try:
        for epoch in range(len(history.losses) + 1, epochs + 1):
            _fire(epoch, "before_step")
            loss = float(step())
            if check_numerics:
                bad = [] if named_parameters is None else \
                    _non_finite_grads(named_parameters)
                if bad or not np.isfinite(loss):
                    # Checkpoint the diverged state first: a blown-up run
                    # should be debuggable, not vanished.
                    history.losses.append(loss)
                    path = None
                    if checkpointer is not None:
                        _sync_seconds()
                        path = checkpointer.save(epoch, history,
                                                 reason="numerical")
                    what = f"loss={loss!r}" if not np.isfinite(loss) else \
                        f"gradients of {bad}"
                    suffix = f" (diverged state checkpointed at {path})" \
                        if path is not None else ""
                    raise NumericalError(
                        f"non-finite {what} at epoch {epoch}{suffix}",
                        epoch=epoch, loss=loss, bad_parameters=bad)
            history.losses.append(loss)
            _fire(epoch, "after_step")
            if checkpointer is not None:
                _sync_seconds()
                checkpointer.maybe_save(epoch, history)
            if preempt_signals:
                _sync_seconds()
                path = None
                if checkpointer is not None:
                    path = checkpointer.save(epoch, history, reason="preempt")
                raise TrainingPreempted(
                    f"signal {preempt_signals[0]} after epoch {epoch}"
                    + (f"; checkpointed to {path}" if path else
                       "; no checkpointer active"),
                    epoch=epoch, signum=preempt_signals[0],
                    checkpoint_path=path)
            if log_every and epoch % log_every == 0:
                print(f"epoch {epoch:>5}/{epochs}  loss {history.losses[-1]:.4f}")
    finally:
        for sig, old in installed:
            signal.signal(sig, old)
    _sync_seconds()
    if checkpointer is not None:
        history.resume_report = checkpointer.resume_report()
    return history


def train_model(model: HAFusion, views: ViewSet,
                epochs: int | None = None, lr: float | None = None,
                log_every: int = 0, compiled: bool = False,
                checkpoint_dir=None, checkpoint_every: int = 0,
                resume: bool = False, checkpoint_keep: int = 3,
                fault_plan=None,
                check_numerics: bool = True) -> TrainingHistory:
    """Train ``model`` on ``views`` with full-batch Adam.

    Parameters
    ----------
    epochs, lr:
        Override the model config's values if given.
    log_every:
        Print a progress line every k epochs (0 = silent).
    compiled:
        Run epochs through the compiled record/replay executor instead of
        rebuilding the eager tape each step (same arithmetic, locked to
        ≤1e-8 parity by ``tests/core/test_compiled_parity.py``).
    checkpoint_dir, checkpoint_every, checkpoint_keep:
        Persist an atomic checkpoint to ``checkpoint_dir`` every
        ``checkpoint_every`` completed epochs, retaining the newest
        ``checkpoint_keep`` (``checkpoint_dir=None`` disables).
    resume:
        Restore the newest intact checkpoint in ``checkpoint_dir`` before
        training and continue from its epoch, bit-identically to a run
        that never crashed.  Under ``compiled=True`` the restored state
        first warm-records the plan and is then rewound, so the resumed
        epoch executes as a plan *replay* exactly like it would have in
        the uninterrupted run.
    fault_plan:
        Deterministic :class:`~repro.faults.FaultPlan` (tests and the
        train-resume smoke only).
    """
    config = model.config
    epochs = epochs if epochs is not None else config.epochs
    lr = lr if lr is not None else config.lr
    parameters = model.parameters()
    optimizer = Adam(parameters, lr=lr)
    checkpointer = None
    history = None
    if checkpoint_dir is not None:
        checkpointer = Checkpointer(model, optimizer, checkpoint_dir,
                                    every=checkpoint_every,
                                    keep=checkpoint_keep,
                                    fault_plan=fault_plan)
        if resume:
            history = checkpointer.resume()
    elif resume:
        raise ValueError("resume=True requires checkpoint_dir")
    named = list(model.named_parameters()) if check_numerics else None
    if compiled:
        # The optimizer is folded into the plan: clipping and the Adam
        # update replay as plan kernels, so each epoch after the first is
        # one flat kernel list (no eager code on the hot path).
        step = CompiledStep(
            lambda: model.loss(views),
            signature_fn=lambda: tuple(m.shape for m in views.matrices),
            optimizer=optimizer, grad_clip=config.grad_clip)
        if history is not None and history.losses and len(history.losses) < epochs:
            # Warm-record + rewind: recording costs one real (eager)
            # step, which would make the resumed epoch eager where the
            # uninterrupted run replayed it.  Record once, then restore
            # the checkpoint again — in place, so the freshly recorded
            # plan stays valid — and every remaining epoch is a replay,
            # keeping resume bit-identical.
            step.run()
            checkpointer.rewind()
        return run_training_loop(step.run, epochs, log_every=log_every,
                                 history=history, checkpointer=checkpointer,
                                 fault_plan=fault_plan,
                                 named_parameters=named,
                                 check_numerics=check_numerics)
    return run_training_loop(
        lambda: optimizer_step(optimizer, lambda: model.loss(views),
                               parameters, config.grad_clip),
        epochs, log_every=log_every,
        history=history, checkpointer=checkpointer, fault_plan=fault_plan,
        named_parameters=named, check_numerics=check_numerics)


def train_hafusion(city: SyntheticCity, config: HAFusionConfig | None = None,
                   seed: int = 0, view_names: list[str] | None = None,
                   log_every: int = 0, compiled: bool = False,
                   checkpoint_dir=None, checkpoint_every: int = 0,
                   resume: bool = False, checkpoint_keep: int = 3,
                   fault_plan=None) -> tuple[HAFusion, TrainingHistory]:
    """Build and train HAFusion on a city; returns (model, history).

    Parameters
    ----------
    view_names:
        Subset of views to use (Fig. 6 ablations); default all three.
    compiled:
        Train through the compiled record/replay executor.
    checkpoint_dir, checkpoint_every, resume, checkpoint_keep, fault_plan:
        Crash-safe training controls, forwarded to :func:`train_model`.
        Resume rebuilds the model from the same ``seed`` and then
        overwrites every parameter and RNG stream from the checkpoint,
        so the continued run is bit-identical to an uninterrupted one.
    """
    views = city.views()
    if view_names is not None:
        views = views.subset(view_names)
    mobility_view = views.names.index("mobility") if "mobility" in views.names else None
    config = config if config is not None else HAFusionConfig.for_city(city.name)
    rng = np.random.default_rng(seed)
    model = HAFusion(views.dims(), views.n_regions, config,
                     mobility_view=mobility_view, rng=rng)
    history = train_model(model, views, log_every=log_every, compiled=compiled,
                          checkpoint_dir=checkpoint_dir,
                          checkpoint_every=checkpoint_every,
                          resume=resume, checkpoint_keep=checkpoint_keep,
                          fault_plan=fault_plan)
    return model, history

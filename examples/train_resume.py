"""Crash-safe training quickstart: checkpoint, crash, resume — bit-identically.

The paper's schedule is 2,500 full-batch epochs per city (Sec. VI-A) —
hours on CPU that a crash, OOM kill or preemption would throw away.
This example turns on :mod:`repro.train.checkpoint` (PR 9), simulates a
crash mid-run with the deterministic training fault harness, resumes
from disk, and verifies the resumed run reproduces an uninterrupted
reference **exactly** (``max|Δ| = 0`` on the final embeddings).

Usage::

    python examples/train_resume.py

The same three keyword arguments work on :func:`repro.core.train_model`,
:meth:`repro.core.BatchedTrainer.train` and (via ``REPRO_CHECKPOINT_DIR``)
the experiment runners::

    train_hafusion(city, config,
                   checkpoint_dir="ckpts/chi",  # where checkpoints live
                   checkpoint_every=50,         # epochs between snapshots
                   resume=True)                 # continue if any exist

On a real deployment there is no fault plan — SIGTERM/SIGINT already
checkpoint-and-exit cleanly (:class:`repro.train.TrainingPreempted`),
and an abrupt ``kill -9`` simply resumes from the newest intact
checkpoint on the next run.
"""

import tempfile

import numpy as np

from repro.core import HAFusionConfig, train_hafusion
from repro.data import load_city
from repro.faults import FaultPlan, InjectedFault


def main() -> None:
    city = load_city("nyc", seed=7)
    # A short schedule so the example runs in seconds; the mechanics are
    # identical at 2,500 epochs.
    config = HAFusionConfig.for_city("nyc", epochs=40, conv_channels=4)

    print("== uninterrupted reference ==")
    reference_model, reference = train_hafusion(city, config, seed=7,
                                                compiled=True, log_every=10)
    reference_embeddings = reference_model.embed(city.views())

    with tempfile.TemporaryDirectory(prefix="hafusion-ckpt-") as checkpoint_dir:
        print("== training with checkpoints, crashing at epoch 25 ==")
        crash = FaultPlan().fail("before_step", epoch=25)
        try:
            train_hafusion(city, config, seed=7, compiled=True,
                           checkpoint_dir=checkpoint_dir, checkpoint_every=10,
                           fault_plan=crash)
        except InjectedFault as exc:
            print(f"crashed as scripted: {exc}")

        print("== resuming from disk ==")
        model, history = train_hafusion(city, config, seed=7, compiled=True,
                                        checkpoint_dir=checkpoint_dir,
                                        checkpoint_every=10, resume=True,
                                        fault_plan=crash, log_every=10)
    report = history.resume_report
    print(f"resumed at epoch {report['resume_epoch']} "
          f"(attempt {report['attempt']}), wall-clock saved: "
          f"{report['wall_clock_saved_seconds']:.2f}s, checkpoints on disk: "
          f"{report['retained_epochs']}")

    embeddings = model.embed(city.views())
    max_diff = float(np.abs(embeddings - reference_embeddings).max())
    losses_equal = history.losses == reference.losses
    print(f"loss curves identical: {losses_equal}; "
          f"final embeddings max|Δ| = {max_diff}")
    assert losses_equal and max_diff == 0.0
    print("resume was bit-identical to never having crashed.")


if __name__ == "__main__":
    main()

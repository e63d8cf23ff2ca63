"""Durable training: crash-safe checkpoints and bit-identical resume.

The training twin of :mod:`repro.serving`'s robustness layer:
:mod:`repro.train.checkpoint` makes training state survive ``kill -9``
with atomic checksummed snapshots, and :class:`repro.faults.FaultPlan`
scripts the exact crash a test asserts on.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    CheckpointError,
    CheckpointStore,
    NumericalError,
    TrainingPreempted,
    capture_rng_states,
    read_checkpoint,
    restore_rng_states,
    write_checkpoint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "CheckpointError",
    "CheckpointStore",
    "NumericalError",
    "TrainingPreempted",
    "capture_rng_states",
    "read_checkpoint",
    "restore_rng_states",
    "write_checkpoint",
]

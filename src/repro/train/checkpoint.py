"""Crash-safe resumable training: atomic checksummed checkpoints.

The paper trains HAFusion for 2,500 full-batch epochs per city; losing a
run to a crash, an OOM kill or a preemption means losing hours of CPU.
This module makes training state durable with the same determinism bar
the serving fleet already meets: resume must be **bit-identical** to an
uninterrupted run (``max|Δ| = 0`` on final parameters and embeddings,
gated by ``tests/train/test_checkpoint.py``).

A checkpoint captures everything the next epoch depends on:

- **model parameters** (full precision, exact dtype);
- **optimizer scratch** — Adam ``m``/``v``/``t``, SGD momentum — via the
  new :meth:`repro.nn.optim.Optimizer.state_dict`;
- **dropout RNG bit-generator state**, so the compiled plan's mask
  redraw (and an eager run's draws) continue the exact stream;
- the **epoch counter** and the loss curve / wall-clock of the
  :class:`~repro.core.trainer.TrainingHistory`.

Durability follows the ``plancache`` recipe: serialize to a temp file,
``fsync``, then ``os.replace`` — a reader never sees a partial
checkpoint, and a crash mid-write leaves the previous checkpoint intact.
Every file carries a SHA-256 checksum; :meth:`CheckpointStore.load_latest`
validates it and falls back to the newest *intact* checkpoint when the
newest file is truncated or corrupted (the bad file is set aside as
``*.corrupt`` for debugging, never silently reloaded).

Restores are **in place**: parameter arrays, optimizer moment buffers
and RNG streams are overwritten without rebinding, so a live compiled
plan (whose kernels captured those arrays by reference) stays valid
across a restore — which is also what makes the record-epoch *rewind*
trick in :func:`repro.core.trainer.train_model` possible.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..nn.module import Module
from ..nn.optim import Optimizer

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "NumericalError",
    "TrainingPreempted",
    "capture_rng_states",
    "restore_rng_states",
    "write_checkpoint",
    "read_checkpoint",
    "CheckpointStore",
    "Checkpointer",
]

#: Bumping this invalidates every serialized checkpoint.
CHECKPOINT_VERSION = 1

#: File preamble: magic line, then the payload checksum, then the pickle.
_MAGIC = b"RPROCKPT1\n"


class CheckpointError(RuntimeError):
    """A checkpoint file cannot be used (truncated, corrupted, version
    skew, or captured from an incompatible model/optimizer)."""


class NumericalError(ArithmeticError):
    """Training produced a non-finite loss or gradient.

    Carries the 1-based ``epoch`` it surfaced at, the offending ``loss``
    value, and the names of parameters whose gradients went non-finite —
    and, when a checkpointer is active, is raised only *after* the
    diverged state was checkpointed (reason ``"numerical"``), so the run
    is debuggable instead of vanished.
    """

    def __init__(self, message: str, epoch: int, loss: float | None = None,
                 bad_parameters: Sequence[str] = ()):
        super().__init__(message)
        self.epoch = epoch
        self.loss = loss
        self.bad_parameters = list(bad_parameters)


class TrainingPreempted(RuntimeError):
    """SIGTERM/SIGINT arrived mid-training; the loop finished the
    current epoch, checkpointed (when a checkpointer is active) and
    exited cleanly.  Resume with ``resume=True`` to continue
    bit-identically from ``epoch``."""

    def __init__(self, message: str, epoch: int, signum: int | None = None,
                 checkpoint_path: "Path | None" = None):
        super().__init__(message)
        self.epoch = epoch
        self.signum = signum
        self.checkpoint_path = checkpoint_path


# ----------------------------------------------------------------------
# RNG stream capture
# ----------------------------------------------------------------------

def _stateful_rngs(model: Module) -> list[np.random.Generator]:
    """Distinct ``np.random.Generator`` objects reachable as module
    attributes (today: the shared Dropout generator), in stable
    depth-first traversal order.  Distinct by identity: sub-modules
    usually share one generator, whose stream must be captured once."""
    rngs: list[np.random.Generator] = []
    seen: set[int] = set()
    for module in model.modules():
        rng = getattr(module, "rng", None)
        if isinstance(rng, np.random.Generator) and id(rng) not in seen:
            seen.add(id(rng))
            rngs.append(rng)
    return rngs


def capture_rng_states(model: Module) -> list[dict]:
    """Bit-generator states of every stateful RNG in ``model`` — the
    dropout streams a compiled plan redraws masks from on each replay."""
    return [copy.deepcopy(rng.bit_generator.state)
            for rng in _stateful_rngs(model)]


def restore_rng_states(model: Module, states: Sequence[dict]) -> None:
    """Restore :func:`capture_rng_states` output, in place: the same
    Generator objects the model's modules (and any recorded plan's
    dropout kernels) hold continue the checkpointed stream."""
    rngs = _stateful_rngs(model)
    if len(rngs) != len(states):
        raise CheckpointError(
            f"checkpoint holds {len(states)} rng streams, model has "
            f"{len(rngs)} — architecture drift?")
    for rng, state in zip(rngs, states):
        rng.bit_generator.state = copy.deepcopy(state)


# ----------------------------------------------------------------------
# Checkpoint file IO
# ----------------------------------------------------------------------

def write_checkpoint(path: "str | os.PathLike", payload: dict,
                     fault: Callable[[], None] | None = None) -> Path:
    """Atomically persist ``payload``: temp file + checksum + ``fsync``
    + ``os.replace``, the :mod:`repro.nn.plancache` durability recipe.

    ``fault`` (tests only) fires after the temp file is durable but
    before the rename — a kill there must leave any previous checkpoint
    at ``path`` untouched.
    """
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest().encode("ascii")
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(digest)
        f.write(b"\n")
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    if fault is not None:
        fault()
    os.replace(tmp, path)
    # Make the rename itself durable (best-effort: not all platforms
    # support fsync on a directory fd).
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


def read_checkpoint(path: "str | os.PathLike") -> dict:
    """Load and validate one checkpoint file.

    Raises :class:`CheckpointError` on a missing magic, checksum
    mismatch (truncation, bit rot), unpicklable body, or version skew —
    the conditions :meth:`CheckpointStore.load_latest` falls back on.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw.startswith(_MAGIC):
        raise CheckpointError(f"{path.name}: not a checkpoint file")
    header_end = len(_MAGIC) + 64 + 1
    if len(raw) < header_end or raw[header_end - 1:header_end] != b"\n":
        raise CheckpointError(f"{path.name}: truncated header")
    digest = raw[len(_MAGIC):header_end - 1]
    blob = raw[header_end:]
    if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
        raise CheckpointError(
            f"{path.name}: checksum mismatch (truncated or corrupted)")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"{path.name}: cannot unpickle ({exc})")
    if not isinstance(payload, dict) or \
            payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path.name}: checkpoint version "
            f"{payload.get('version') if isinstance(payload, dict) else '?'}"
            f" != {CHECKPOINT_VERSION}")
    return payload


class CheckpointStore:
    """A directory of epoch-numbered checkpoints with last-K retention.

    Files are named ``ckpt-<epoch>.ckpt``; :meth:`save` prunes beyond
    ``keep`` newest after every write, and :meth:`load_latest` walks
    newest → oldest, setting aside anything :func:`read_checkpoint`
    rejects, until an intact checkpoint (or nothing) remains.
    """

    def __init__(self, directory: "str | os.PathLike", keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.written = 0
        self.pruned = 0
        self.corrupt_discarded = 0

    # ------------------------------------------------------------------
    def path_for(self, epoch: int) -> Path:
        return self.directory / f"ckpt-{epoch:08d}.ckpt"

    def epochs(self) -> list[int]:
        """Epoch numbers of the checkpoints on disk, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for p in self.directory.glob("ckpt-*.ckpt"):
            try:
                found.append(int(p.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(found)

    # ------------------------------------------------------------------
    def save(self, epoch: int, payload: dict,
             fault: Callable[[], None] | None = None) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = write_checkpoint(self.path_for(epoch), payload, fault=fault)
        self.written += 1
        for old in self.epochs()[:-self.keep]:
            try:
                self.path_for(old).unlink()
                self.pruned += 1
            except OSError:
                pass
        return path

    def load_latest(self) -> dict | None:
        """The newest intact checkpoint payload, or None.

        A truncated/corrupted/version-skewed file is renamed to
        ``<name>.corrupt`` (kept for debugging, never re-read) and the
        walk falls back to the next-newest file.
        """
        for epoch in reversed(self.epochs()):
            path = self.path_for(epoch)
            try:
                return read_checkpoint(path)
            except (OSError, CheckpointError):
                self.corrupt_discarded += 1
                try:
                    path.rename(path.with_name(path.name + ".corrupt"))
                except OSError:
                    pass
        return None


# ----------------------------------------------------------------------
# Checkpointer: the model/optimizer binding the training loop drives
# ----------------------------------------------------------------------

class Checkpointer:
    """Binds a (model, optimizer) pair to a :class:`CheckpointStore`.

    Construct it *before* the first training step, call :meth:`resume`
    to restore the newest intact checkpoint (in place — a recorded plan
    stays valid), then hand it to
    :func:`repro.core.trainer.run_training_loop`, which calls
    :meth:`maybe_save` each epoch and :meth:`save` on preemption or
    numerical abort.

    ``every=0`` disables interval checkpoints (preemption/abort saves
    still fire).  ``fault_plan`` is the training run's
    :class:`~repro.faults.FaultPlan`: the checkpointer fires its
    ``mid_checkpoint`` specs and the loop it is handed to the
    ``before_step``/``after_step`` ones, so any other point is rejected.
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 directory: "str | os.PathLike", every: int = 0,
                 keep: int = 3, fault_plan=None):
        if every < 0:
            raise ValueError(f"every must be >= 0, got {every}")
        if fault_plan is not None:
            fault_plan.check_fire_points(
                ("before_step", "after_step", "mid_checkpoint"),
                "a checkpointed training run")
        self.model = model
        self.optimizer = optimizer
        self.store = CheckpointStore(directory, keep=keep)
        self.every = every
        self.fault_plan = fault_plan
        self.attempt = 1
        self.loaded = 0
        self.resume_epoch: int | None = None
        self.wall_clock_saved = 0.0
        self._resumed_payload: dict | None = None
        self.last_saved_path: Path | None = None

    # ------------------------------------------------------------------
    def capture(self, epoch: int, history, reason: str = "interval") -> dict:
        """Snapshot everything epoch ``epoch + 1`` depends on."""
        params = self.model.parameters()
        return {
            "version": CHECKPOINT_VERSION,
            "epoch": int(epoch),
            "attempt": int(self.attempt),
            "model_state": self.model.state_dict(),
            "optimizer_state": self.optimizer.state_dict(),
            "rng_states": capture_rng_states(self.model),
            "losses": list(history.losses),
            "seconds": float(history.seconds),
            "meta": {
                "reason": reason,
                "param_dtype": str(params[0].dtype) if params else "none",
                "num_parameters": int(self.model.num_parameters()),
                "saved_at": time.time(),
            },
        }

    def restore(self, payload: dict) -> None:
        """Load ``payload`` into the bound model/optimizer, in place."""
        try:
            self.model.load_state_dict(payload["model_state"], in_place=True)
            self.optimizer.load_state_dict(payload["optimizer_state"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint does not fit this model/optimizer: {exc}")
        restore_rng_states(self.model, payload["rng_states"])

    # ------------------------------------------------------------------
    def resume(self):
        """Restore the newest intact checkpoint.

        Returns the restored :class:`~repro.core.trainer.TrainingHistory`
        (its ``len(losses)`` is the epoch to continue from), or ``None``
        when the store holds no checkpoint — a fresh run.  Bumps
        ``attempt`` past the checkpointed run's, so attempt-selected
        faults from the crashed run do not re-fire.
        """
        payload = self.store.load_latest()
        if payload is None:
            return None
        self.restore(payload)
        self.loaded += 1
        self.attempt = int(payload["attempt"]) + 1
        self.resume_epoch = int(payload["epoch"])
        self.wall_clock_saved = float(payload["seconds"])
        self._resumed_payload = payload
        from ..core.trainer import TrainingHistory   # deferred: no cycle
        return TrainingHistory(losses=list(payload["losses"]),
                               seconds=float(payload["seconds"]))

    def rewind(self) -> None:
        """Re-restore the checkpoint :meth:`resume` loaded.

        The compiled-resume trick: recording a fresh plan costs one real
        step (it consumes the RNG stream and applies an update), so the
        trainer records, then rewinds state to the checkpoint — the
        resumed epoch then runs as a plan *replay*, exactly as it would
        have in the uninterrupted run, keeping resume bit-identical even
        if an eager step and a replayed step ever differed in round-off.
        """
        if self._resumed_payload is None:
            raise CheckpointError("rewind() without a prior resume()")
        self.restore(self._resumed_payload)

    # ------------------------------------------------------------------
    def _fault_hook(self, epoch: int):
        if self.fault_plan is None:
            return None
        return lambda: self.fault_plan.apply(
            "mid_checkpoint", epoch=epoch, attempt=self.attempt)

    def save(self, epoch: int, history, reason: str = "interval") -> Path:
        payload = self.capture(epoch, history, reason=reason)
        path = self.store.save(epoch, payload, fault=self._fault_hook(epoch))
        self.last_saved_path = path
        return path

    def maybe_save(self, epoch: int, history) -> "Path | None":
        """Interval policy: checkpoint every ``every`` completed epochs."""
        if self.every and epoch % self.every == 0:
            return self.save(epoch, history, reason="interval")
        return None

    # ------------------------------------------------------------------
    def resume_report(self) -> dict:
        """Observability: what checkpointing did for this run."""
        return {
            "directory": str(self.store.directory),
            "written": self.store.written,
            "loaded": self.loaded,
            "pruned": self.store.pruned,
            "corrupt_discarded": self.store.corrupt_discarded,
            "retained_epochs": self.store.epochs(),
            "resume_epoch": self.resume_epoch,
            "attempt": self.attempt,
            "wall_clock_saved_seconds": self.wall_clock_saved,
        }

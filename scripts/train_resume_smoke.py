#!/usr/bin/env python3
"""Train-resume smoke: a real ``kill -9`` mid-training must cost nothing.

Run by the ``train-resume-smoke`` CI job after the checkpoint test suite:

    python scripts/train_resume_smoke.py --dir .train-resume-smoke

Unlike ``tests/train/test_checkpoint.py`` (where the training process
kills *itself* at deterministic fault points), this smoke delivers the
signal from outside, exactly as an OOM killer or a preempting scheduler
would:

1. **reference** — train the smoke model uninterrupted, in-process;
2. **crash** — spawn a child process training the *same* run with
   checkpointing every ``CHECKPOINT_EVERY`` epochs and a fault-plan
   *delay* pinning it at epoch ``STALL_EPOCH``; the moment the last
   pre-stall checkpoint is durable on disk, the parent ``SIGKILL``\\ s
   the child — provably mid-training, past the checkpoint;
3. **resume** — train again with ``resume=True`` from the same
   directory.

Asserted:

- the child died by SIGKILL with a partial loss curve on disk;
- the resumed run starts at the checkpoint epoch and **replays zero
  already-completed epochs**;
- the combined loss curve equals the uninterrupted reference exactly;
- final embeddings are **bit-identical** to the reference
  (``max|Δ| = 0``), through the compiled executor.

Exit code 0 on success; any assertion failure raises.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import HAFusionConfig, train_hafusion  # noqa: E402
from repro.data import CityConfig, generate_city  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.train import CheckpointStore  # noqa: E402

_SEED = 7
_CITY = dict(name="resume-smoke", n_regions=24, total_trips=8000,
             poi_total=1500)
_CITY_SEED = 3
_CFG = dict(d=32, d_prime=16, conv_channels=4, memory_size=8, num_heads=4,
            intra_layers=1, inter_layers=1, fusion_layers=1, epochs=12,
            dropout=0.1, lr=5e-4)
CHECKPOINT_EVERY = 4
#: The child stalls here (a fault-plan delay), safely past the last
#: checkpoint at epoch 8 — so the external kill provably lands
#: mid-training with durable progress behind it.
STALL_EPOCH = 9
STALL_SECONDS = 120.0


def _build():
    city = generate_city(CityConfig(**_CITY), seed=_CITY_SEED)
    return city, HAFusionConfig(**_CFG)


def train_child(directory: Path) -> None:
    """Child-process body: train with checkpoints, stalling at
    STALL_EPOCH so the parent's kill lands mid-training."""
    city, config = _build()
    plan = FaultPlan().delay("before_step", STALL_SECONDS, epoch=STALL_EPOCH)
    train_hafusion(city, config, seed=_SEED, compiled=True,
                   checkpoint_dir=directory,
                   checkpoint_every=CHECKPOINT_EVERY, fault_plan=plan)
    raise SystemExit("child was never killed — the smoke is broken")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path,
                        default=REPO / ".train-resume-smoke")
    parser.add_argument("--phase", choices=["all", "train"], default="all")
    args = parser.parse_args(argv)

    if args.phase == "train":
        train_child(args.dir)
        return 0

    # Phase 1: the uninterrupted in-process reference.
    city, config = _build()
    reference_model, reference = train_hafusion(city, config, seed=_SEED,
                                                compiled=True)
    reference_embeddings = reference_model.embed(city.views())
    print(f"[reference] {len(reference.losses)} epochs, "
          f"final loss {reference.final_loss:.6f}")

    # Phase 2: crash a real training process from outside.
    args.dir.mkdir(parents=True, exist_ok=True)
    store = CheckpointStore(args.dir)
    for stale in store.epochs():        # a previous smoke run's leftovers
        store.path_for(stale).unlink()
    last_checkpoint = STALL_EPOCH - 1 - (STALL_EPOCH - 1) % CHECKPOINT_EVERY
    child = subprocess.Popen(
        [sys.executable, __file__, "--phase", "train", "--dir",
         str(args.dir)],
        env=dict(os.environ,
                 PYTHONPATH=str(REPO / "src") + os.pathsep
                 + os.environ.get("PYTHONPATH", "")))
    deadline = time.monotonic() + 300.0
    while time.monotonic() < deadline:
        if child.poll() is not None:
            raise AssertionError(
                f"child exited on its own (rc={child.returncode}) before "
                f"the kill")
        if store.path_for(last_checkpoint).exists():
            break
        time.sleep(0.05)
    else:
        child.kill()
        raise AssertionError(
            f"checkpoint {last_checkpoint} never appeared in {args.dir}")
    os.kill(child.pid, signal.SIGKILL)
    rc = child.wait(timeout=60)
    assert rc == -signal.SIGKILL, f"child exit {rc}, expected SIGKILL"
    on_disk = store.epochs()
    assert on_disk and max(on_disk) == last_checkpoint, on_disk
    print(f"[crash] killed pid {child.pid} mid-training; "
          f"checkpoints on disk: {on_disk}")

    # Phase 3: resume from disk and hold it to the reference, bit-for-bit.
    model, history = train_hafusion(city, config, seed=_SEED, compiled=True,
                                    checkpoint_dir=args.dir,
                                    checkpoint_every=CHECKPOINT_EVERY,
                                    resume=True)
    report = history.resume_report
    assert report["resume_epoch"] == last_checkpoint, report
    replayed = len(history.losses) - (_CFG["epochs"] - last_checkpoint) \
        - last_checkpoint
    assert replayed == 0, f"resume replayed {replayed} completed epochs"
    assert history.losses == reference.losses, (
        "resumed loss curve diverged from the uninterrupted reference")
    embeddings = model.embed(city.views())
    max_diff = float(np.abs(embeddings - reference_embeddings).max())
    assert max_diff == 0.0, (
        f"final embeddings drifted from the reference: max|d|={max_diff}")
    print(f"[resume] resumed at epoch {report['resume_epoch']}, replayed 0 "
          f"epochs, saved {report['wall_clock_saved_seconds']:.3f}s of "
          f"training; embeddings bit-identical (max|d|=0.0)")
    print("train resume smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Crash-safe resumable training: the bit-identical resume gate.

The acceptance criterion of the checkpoint subsystem: for eager and
compiled training alike, kill the run at epoch k, resume from disk, and
the final parameters and embeddings must match an uninterrupted run
**exactly** (``max|Δ| = 0``) — plus the failure-mode matrix around it:
crash mid-epoch, crash mid-checkpoint-write (atomicity), corrupted
newest checkpoint (fallback), SIGTERM preemption, and non-finite
numerics.  Every crash is scripted by the deterministic
:class:`repro.faults.FaultPlan`, not a racing shell.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import HAFusionConfig, train_hafusion
from repro.core.engine import BatchedTrainer
from repro.core.trainer import TrainingHistory, run_training_loop, train_model
from repro.data import CityConfig, generate_city
from repro.faults import FaultPlan, InjectedFault
from repro.nn import SGD, Linear, Parameter
from repro.train import (
    Checkpointer,
    CheckpointError,
    CheckpointStore,
    NumericalError,
    TrainingPreempted,
    read_checkpoint,
    write_checkpoint,
)

#: One tiny-but-complete model family for every test in this file (and
#: for the subprocess twin, which must rebuild it identically).
CITY = dict(name="ckpt", n_regions=14, total_trips=4000, poi_total=900)
CITY_SEED = 3
CFG = dict(d=16, d_prime=8, conv_channels=4, memory_size=6, num_heads=2,
           intra_layers=1, inter_layers=1, fusion_layers=1, epochs=8,
           dropout=0.1, lr=5e-4)
SEED = 7


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(**CITY), seed=CITY_SEED)


@pytest.fixture(scope="module")
def config():
    return HAFusionConfig(**CFG)


def _reference(city, config, compiled):
    model, history = train_hafusion(city, config, seed=SEED,
                                    compiled=compiled)
    return model.embed(city.views()), history


# ======================================================================
# Checkpoint file format and store
# ======================================================================

class TestCheckpointFiles:
    def test_write_read_roundtrip(self, tmp_path):
        payload = {"version": 1, "epoch": 4, "x": np.arange(5.0)}
        path = write_checkpoint(tmp_path / "c.ckpt", payload)
        loaded = read_checkpoint(path)
        assert loaded["epoch"] == 4
        np.testing.assert_array_equal(loaded["x"], payload["x"])

    def test_truncation_detected(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.ckpt",
                                {"version": 1, "x": np.arange(100.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="checksum|truncated"):
            read_checkpoint(path)

    def test_bit_rot_detected(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.ckpt",
                                {"version": 1, "x": np.arange(100.0)})
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_version_skew_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.ckpt", {"version": 999})
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)


class TestCheckpointStore:
    @staticmethod
    def _payload(epoch):
        return {"version": 1, "epoch": epoch, "x": np.full(4, float(epoch))}

    def test_retention_keeps_newest_k(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for epoch in range(1, 6):
            store.save(epoch, self._payload(epoch))
        assert store.epochs() == [4, 5]
        assert store.written == 5
        assert store.pruned == 3

    def test_corrupted_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        for epoch in (2, 4, 6):
            store.save(epoch, self._payload(epoch))
        newest = store.path_for(6)
        raw = newest.read_bytes()
        newest.write_bytes(raw[:len(raw) // 2])
        loaded = store.load_latest()
        assert loaded["epoch"] == 4
        assert store.corrupt_discarded == 1
        # The bad file is set aside for debugging, never re-read.
        assert not newest.exists()
        assert newest.with_name(newest.name + ".corrupt").exists()

    def test_empty_store_loads_nothing(self, tmp_path):
        assert CheckpointStore(tmp_path / "nowhere").load_latest() is None

    def test_mid_write_crash_preserves_previous(self, tmp_path):
        """Atomicity: a crash between fsync and rename must leave the
        previous checkpoint bytes untouched and no new checkpoint."""
        store = CheckpointStore(tmp_path, keep=3)
        store.save(2, self._payload(2))
        before = store.path_for(2).read_bytes()

        def crash():
            raise InjectedFault("mid-checkpoint kill")

        with pytest.raises(InjectedFault):
            store.save(4, self._payload(4), fault=crash)
        assert store.path_for(2).read_bytes() == before
        assert not store.path_for(4).exists()
        assert store.load_latest()["epoch"] == 2


# ======================================================================
# The bit-identical resume gate (eager and compiled)
# ======================================================================

@pytest.mark.parametrize("compiled", [False, True],
                         ids=["eager", "compiled"])
def test_crash_resume_is_bit_identical(city, config, tmp_path, compiled):
    ref_embeddings, ref_history = _reference(city, config, compiled)

    plan = FaultPlan().fail("before_step", epoch=5)
    with pytest.raises(InjectedFault):
        train_hafusion(city, config, seed=SEED, compiled=compiled,
                       checkpoint_dir=tmp_path, checkpoint_every=2,
                       fault_plan=plan)
    model, history = train_hafusion(city, config, seed=SEED,
                                    compiled=compiled,
                                    checkpoint_dir=tmp_path,
                                    checkpoint_every=2, resume=True,
                                    fault_plan=plan)

    assert history.losses == ref_history.losses
    embeddings = model.embed(city.views())
    assert np.abs(embeddings - ref_embeddings).max() == 0.0
    report = history.resume_report
    assert report["resume_epoch"] == 4          # newest checkpoint < crash
    assert report["attempt"] == 2
    assert report["loaded"] == 1
    assert report["wall_clock_saved_seconds"] > 0.0


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["eager", "compiled"])
def test_corrupted_newest_checkpoint_falls_back_and_converges(
        city, config, tmp_path, compiled):
    """Corrupt the newest checkpoint after a crash: resume must fall
    back to the last intact one and still reach the exact reference."""
    ref_embeddings, ref_history = _reference(city, config, compiled)
    plan = FaultPlan().fail("before_step", epoch=7)
    with pytest.raises(InjectedFault):
        train_hafusion(city, config, seed=SEED, compiled=compiled,
                       checkpoint_dir=tmp_path, checkpoint_every=2,
                       fault_plan=plan)
    newest = CheckpointStore(tmp_path).path_for(6)
    raw = newest.read_bytes()
    newest.write_bytes(raw[:len(raw) // 2])

    model, history = train_hafusion(city, config, seed=SEED,
                                    compiled=compiled,
                                    checkpoint_dir=tmp_path,
                                    checkpoint_every=2, resume=True,
                                    fault_plan=plan)
    assert history.resume_report["resume_epoch"] == 4
    assert history.resume_report["corrupt_discarded"] == 1
    assert history.losses == ref_history.losses
    assert history.improved()
    assert np.abs(model.embed(city.views()) - ref_embeddings).max() == 0.0


def test_crash_mid_checkpoint_write_preserves_previous_and_resumes(
        city, config, tmp_path):
    """The ``mid_checkpoint`` fire point: die after the temp file is
    durable but before the atomic rename — epoch 2's checkpoint must
    survive byte-for-byte and carry the resume to the exact reference."""
    ref_embeddings, _ = _reference(city, config, True)
    plan = FaultPlan().fail("mid_checkpoint", epoch=4)
    with pytest.raises(InjectedFault):
        train_hafusion(city, config, seed=SEED, compiled=True,
                       checkpoint_dir=tmp_path, checkpoint_every=2,
                       fault_plan=plan)
    store = CheckpointStore(tmp_path)
    assert store.epochs() == [2]                # epoch-4 write never landed

    model, history = train_hafusion(city, config, seed=SEED, compiled=True,
                                    checkpoint_dir=tmp_path,
                                    checkpoint_every=2, resume=True,
                                    fault_plan=plan)
    assert history.resume_report["resume_epoch"] == 2
    assert np.abs(model.embed(city.views()) - ref_embeddings).max() == 0.0


def test_sigterm_preemption_checkpoints_and_resumes(city, config, tmp_path):
    """A ``preempt`` fault delivers a real SIGTERM to the process; the
    loop must finish the epoch, checkpoint, raise TrainingPreempted —
    and the resumed run must land exactly on the reference."""
    ref_embeddings, ref_history = _reference(city, config, False)
    plan = FaultPlan().preempt("after_step", epoch=3)
    with pytest.raises(TrainingPreempted) as excinfo:
        train_hafusion(city, config, seed=SEED, checkpoint_dir=tmp_path,
                       checkpoint_every=0, fault_plan=plan)
    assert excinfo.value.epoch == 3
    assert excinfo.value.signum == signal.SIGTERM
    assert excinfo.value.checkpoint_path is not None
    assert read_checkpoint(excinfo.value.checkpoint_path)["meta"]["reason"] \
        == "preempt"

    model, history = train_hafusion(city, config, seed=SEED,
                                    checkpoint_dir=tmp_path, resume=True,
                                    fault_plan=plan)
    assert history.resume_report["resume_epoch"] == 3
    assert history.losses == ref_history.losses
    assert np.abs(model.embed(city.views()) - ref_embeddings).max() == 0.0


def test_kill_in_subprocess_then_resume(city, config, tmp_path):
    """The real thing: a ``kill`` fault SIGKILLs an actual training
    process mid-run; a fresh process resumes from disk and reaches the
    uninterrupted reference bit-for-bit, replaying zero epochs."""
    ref_embeddings, ref_history = _reference(city, config, True)
    src = Path(__file__).resolve().parents[2] / "src"
    code = f"""
import sys
from repro.core import HAFusionConfig, train_hafusion
from repro.data import CityConfig, generate_city
from repro.faults import FaultPlan
city = generate_city(CityConfig(**{CITY!r}), seed={CITY_SEED})
config = HAFusionConfig(**{CFG!r})
plan = FaultPlan().kill("before_step", epoch=6)
train_hafusion(city, config, seed={SEED}, compiled=True,
               checkpoint_dir=sys.argv[1], checkpoint_every=2,
               fault_plan=plan)
"""
    env = dict(os.environ,
               PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    assert CheckpointStore(tmp_path).epochs() == [2, 4]

    model, history = train_hafusion(city, config, seed=SEED, compiled=True,
                                    checkpoint_dir=tmp_path,
                                    checkpoint_every=2, resume=True)
    assert history.resume_report["resume_epoch"] == 4
    # Zero replayed epochs: only 5..8 ran in the resumed process.
    assert len(history.losses) - 4 == CFG["epochs"] - 4
    assert history.losses == ref_history.losses
    assert np.abs(model.embed(city.views()) - ref_embeddings).max() == 0.0


def test_batched_trainer_crash_resume_bit_identical(tmp_path):
    cities = [
        generate_city(CityConfig(name="bt10", n_regions=10, total_trips=3000,
                                 poi_total=700), seed=0),
        generate_city(CityConfig(name="bt12", n_regions=12, total_trips=3000,
                                 poi_total=700), seed=1),
    ]
    config = HAFusionConfig(**{**CFG, "epochs": 6})
    reference = BatchedTrainer(cities, config, seed=5, compiled=True)
    ref_history = reference.train(epochs=6)
    ref_embeddings = reference.embed()

    plan = FaultPlan().fail("before_step", epoch=4)
    crashed = BatchedTrainer(cities, config, seed=5, compiled=True)
    with pytest.raises(InjectedFault):
        crashed.train(epochs=6, checkpoint_dir=tmp_path, checkpoint_every=2,
                      fault_plan=plan)

    resumed = BatchedTrainer(cities, config, seed=5, compiled=True)
    history = resumed.train(epochs=6, checkpoint_dir=tmp_path,
                            checkpoint_every=2, resume=True, fault_plan=plan)
    assert history.losses == ref_history.losses
    for a, b in zip(resumed.embed(), ref_embeddings):
        assert np.abs(a - b).max() == 0.0


# ======================================================================
# Loop semantics: numerics, zero-replay, misuse
# ======================================================================

class TestLoopGuards:
    def test_non_finite_loss_checkpoints_before_abort(self, tmp_path):
        model = Linear(2, 1)
        checkpointer = Checkpointer(model, SGD(model.parameters(), lr=0.1),
                                    tmp_path)
        values = iter([1.0, 0.5, float("nan")])
        with pytest.raises(NumericalError) as excinfo:
            run_training_loop(lambda: next(values), 5,
                              checkpointer=checkpointer)
        assert excinfo.value.epoch == 3
        payload = read_checkpoint(checkpointer.store.path_for(3))
        assert payload["meta"]["reason"] == "numerical"
        assert np.isnan(payload["losses"][-1])

    def test_non_finite_gradient_names_the_parameter(self):
        p = Parameter(np.zeros(2))

        def poisoned_step():
            p.grad = np.array([np.inf, 0.0])
            return 1.0

        with pytest.raises(NumericalError) as excinfo:
            run_training_loop(poisoned_step, 3,
                              named_parameters=[("layer.weight", p)])
        assert excinfo.value.epoch == 1
        assert excinfo.value.bad_parameters == ["layer.weight"]

    def test_check_numerics_off_trains_through_nan(self):
        values = iter([1.0, float("nan"), 2.0])
        history = run_training_loop(lambda: next(values), 3,
                                    check_numerics=False)
        assert np.isnan(history.losses[1])

    def test_resume_at_completion_replays_zero_epochs(self, city, config,
                                                      tmp_path):
        model, history = train_hafusion(city, config, seed=SEED,
                                        checkpoint_dir=tmp_path,
                                        checkpoint_every=4)
        frozen = model.embed(city.views())
        resumed_model, resumed = train_hafusion(city, config, seed=SEED,
                                                checkpoint_dir=tmp_path,
                                                checkpoint_every=4,
                                                resume=True)
        assert resumed.losses == history.losses
        assert np.abs(resumed_model.embed(city.views()) - frozen).max() == 0.0

    def test_resume_requires_checkpoint_dir(self, city, config):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            train_hafusion(city, config, seed=SEED, resume=True)

    def test_resume_fresh_directory_trains_from_scratch(self, city, config,
                                                        tmp_path):
        ref_embeddings, _ = _reference(city, config, False)
        model, history = train_hafusion(city, config, seed=SEED,
                                        checkpoint_dir=tmp_path / "fresh",
                                        checkpoint_every=2, resume=True)
        assert len(history.losses) == CFG["epochs"]
        assert np.abs(model.embed(city.views()) - ref_embeddings).max() == 0.0

    def test_checkpoint_rejects_changed_hyperparameters(self, tmp_path):
        model = Linear(3, 2)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        checkpointer = Checkpointer(model, optimizer, tmp_path)
        checkpointer.save(1, TrainingHistory(losses=[1.0], seconds=0.1))

        other = Checkpointer(model, SGD(model.parameters(), lr=0.2,
                                        momentum=0.9), tmp_path)
        with pytest.raises(CheckpointError, match="does not fit"):
            other.resume()

    def test_rewind_without_resume_rejected(self, tmp_path):
        model = Linear(2, 2)
        checkpointer = Checkpointer(model, SGD(model.parameters(), lr=0.1),
                                    tmp_path)
        with pytest.raises(CheckpointError, match="rewind"):
            checkpointer.rewind()

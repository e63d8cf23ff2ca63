"""Semantics of the one fault-injection harness, :mod:`repro.faults`.

No process is started or killed here: the fleet chaos tests
(``tests/serving/test_faults.py``) and the crash-resume gate
(``tests/train/test_checkpoint.py``) drive the plans end to end.  This
module pins what both rely on — validation, selector matching, firing
order, the consumers' fire-point checks and that a plan pickles (it
crosses into every fleet worker and subprocess training run).
"""

import pickle
import time

import pytest

from repro.core.trainer import run_training_loop
from repro.faults import FIRE_POINTS, FaultPlan, FaultSpec, InjectedFault
from repro.nn import SGD, Linear
from repro.serving import ServingFleet
from repro.train import Checkpointer


def test_spec_validation():
    with pytest.raises(ValueError, match="fault kind"):
        FaultSpec("explode", "before_step")
    with pytest.raises(ValueError, match="fault when"):
        FaultSpec("kill", "sometime")
    with pytest.raises(ValueError, match="seconds"):
        FaultSpec("delay", "before_batch", seconds=-1.0)


#: For each fire point, a selector some other point supplies but it does not.
_FOREIGN_SELECTOR = {
    "before_batch": "epoch",
    "after_batch": "epoch",
    "before_step": "batch_id",
    "after_step": "worker_id",
    "mid_checkpoint": "task_index",
}


@pytest.mark.parametrize("when", sorted(FIRE_POINTS))
def test_selector_the_fire_point_does_not_supply(when):
    key = _FOREIGN_SELECTOR[when]
    assert key not in FIRE_POINTS[when]
    with pytest.raises(ValueError, match=key):
        FaultSpec("fail", when, {key: 1})
    with pytest.raises(ValueError, match=key):
        FaultPlan().fail(when, **{key: 1})


def test_selectors_are_conjunctive_and_attempt_defaults_to_1():
    spec = FaultSpec("fail", "before_batch", {"worker_id": 1, "batch_id": 2})
    base = dict(worker_id=1, batch_id=2, task_index=9, attempt=1)
    assert spec.matches("before_batch", base)
    assert not spec.matches("before_batch", {**base, "worker_id": 0})
    assert not spec.matches("before_batch", {**base, "batch_id": 3})
    assert not spec.matches("before_batch", {**base, "attempt": 2})
    assert not spec.matches("after_batch", base)

    step = FaultSpec("fail", "after_step", {"epoch": 3, "attempt": 2})
    assert step.matches("after_step", dict(epoch=3, attempt=2))
    assert not step.matches("after_step", dict(epoch=4, attempt=2))
    assert not step.matches("after_step", dict(epoch=3, attempt=1))
    assert not step.matches("before_step", dict(epoch=3, attempt=2))


def test_attempt_none_matches_every_attempt():
    plan = FaultPlan().fail("mid_checkpoint", epoch=4, attempt=None)
    for attempt in (1, 2, 5):
        with pytest.raises(InjectedFault):
            plan.apply("mid_checkpoint", epoch=4, attempt=attempt)
    plan.apply("mid_checkpoint", epoch=2, attempt=1)    # other epoch


def test_fail_and_delay_fire_in_plan_order():
    plan = (FaultPlan()
            .delay("before_batch", 0.05, batch_id=1)
            .fail("before_batch", "boom", batch_id=1))
    started = time.monotonic()
    with pytest.raises(InjectedFault, match="boom"):
        plan.apply("before_batch", worker_id=0, batch_id=1, task_index=1,
                   attempt=1)
    assert time.monotonic() - started >= 0.05
    # Non-matching points are no-ops.
    plan.apply("before_batch", worker_id=0, batch_id=2, task_index=2,
               attempt=1)
    plan.apply("before_batch", worker_id=0, batch_id=1, task_index=3,
               attempt=2)
    plan.apply("after_batch", worker_id=0, batch_id=1, task_index=1,
               attempt=1)


def test_consumers_reject_points_they_never_fire(tmp_path):
    model = Linear(2, 2)
    training = FaultPlan().fail("before_step", epoch=1)
    with pytest.raises(ValueError, match="serving fleet"):
        ServingFleet(lambda: None, fault_plan=training)
    serving = FaultPlan().kill("after_batch", batch_id=1)
    with pytest.raises(ValueError, match="training loop"):
        run_training_loop(lambda: 0.0, 1, fault_plan=serving)
    with pytest.raises(ValueError, match="checkpointed training run"):
        Checkpointer(model, SGD(model.parameters(), lr=0.1), tmp_path,
                     fault_plan=serving)
    # mid_checkpoint fires only inside a checkpointer's writes.
    mid = FaultPlan().fail("mid_checkpoint", epoch=1)
    with pytest.raises(ValueError, match="training loop"):
        run_training_loop(lambda: 0.0, 1, fault_plan=mid)
    checkpointer = Checkpointer(model, SGD(model.parameters(), lr=0.1),
                                tmp_path, every=1, fault_plan=mid)
    with pytest.raises(InjectedFault, match="mid_checkpoint"):
        run_training_loop(lambda: 0.0, 1, checkpointer=checkpointer,
                          fault_plan=mid, handle_signals=False)


def test_plan_pickles_with_every_kind():
    plan = (FaultPlan()
            .kill("before_batch", batch_id=3)
            .preempt("after_step", epoch=2)
            .delay("mid_checkpoint", 0.1, epoch=4, attempt=None)
            .fail("before_step", "boom", epoch=5))
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert [s.kind for s in clone.specs] == ["kill", "preempt", "delay",
                                             "fail"]
    assert dict(clone.specs[2].selectors) == {"epoch": 4, "attempt": None}

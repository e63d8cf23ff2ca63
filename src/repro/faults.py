"""Deterministic fault injection for the serving fleet and the training loop.

Compiled embedding and checkpointed training are deterministic, so every
failure the fleet supervisor and the resume path handle is safely
re-executable.  Proving that needs the failures themselves to be
deterministic: a :class:`FaultPlan` is a picklable list of
:class:`FaultSpec` triggers, each firing at an exact, replayable point
instead of at the whim of a ``kill`` from a racing shell.

Kinds: ``"kill"`` (``SIGKILL`` to self — the observable of an OOM kill
or a segfault), ``"preempt"`` (``SIGTERM`` to self, which the training
loop turns into checkpoint-and-exit), ``"delay"`` (sleep ``seconds``:
the straggler) and ``"fail"`` (raise :class:`InjectedFault`, losing
state without killing the test runner).

Each consumer calls ``plan.apply(when, **context)`` at its fire points
(:data:`FIRE_POINTS`): the fleet worker around each batch, the training
loop around each step, the checkpointer between the durable temp file
and the atomic rename.  Selectors match by keyword against that context;
they are conjunctive and ``None`` matches anything.  ``attempt``
defaults to ``1``, so a fault fires only on the first execution and the
retried batch or resumed run converges instead of crash-looping (workers
and resumed runs get a fresh copy of the plan, so one-shot behaviour
cannot live in plan state).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["FIRE_POINTS", "FaultPlan", "FaultSpec", "InjectedFault"]

_KINDS = ("kill", "preempt", "delay", "fail")

#: Every fire point and the context keys it supplies to selectors.
#: ``task_index`` is the worker-local 1-based count of batches taken off
#: the queue; ``batch_id`` the frontend's global dispatch id; a batch's
#: ``attempt`` counts its executions, a training run's ``attempt`` the
#: runs over one checkpoint directory (each resume adds one).
FIRE_POINTS = {
    "before_batch": ("worker_id", "batch_id", "task_index", "attempt"),
    "after_batch": ("worker_id", "batch_id", "task_index", "attempt"),
    "before_step": ("epoch", "attempt"),
    "after_step": ("epoch", "attempt"),
    "mid_checkpoint": ("epoch", "attempt"),
}


class InjectedFault(RuntimeError):
    """The exception a ``"fail"`` fault raises at its fire point."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic trigger (see module docstring).

    ``selectors`` is a mapping (or ``(key, value)`` pairs) over the
    context keys ``when`` supplies; it is stored as sorted pairs with
    ``attempt`` filled in as ``1`` when absent.
    """

    kind: str
    when: str
    selectors: tuple = ()
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"fault kind must be one of {_KINDS}, "
                             f"got {self.kind!r}")
        if self.when not in FIRE_POINTS:
            raise ValueError(f"fault when must be one of "
                             f"{tuple(FIRE_POINTS)}, got {self.when!r}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        selectors = {"attempt": 1, **dict(self.selectors)}
        unknown = sorted(set(selectors) - set(FIRE_POINTS[self.when]))
        if unknown:
            raise ValueError(f"fire point {self.when!r} supplies "
                             f"{FIRE_POINTS[self.when]}, not {unknown}")
        object.__setattr__(self, "selectors", tuple(sorted(selectors.items())))

    def matches(self, when: str, context: dict) -> bool:
        return self.when == when and all(
            value is None or context[key] == value
            for key, value in self.selectors)


@dataclass
class FaultPlan:
    """An ordered, picklable set of :class:`FaultSpec` triggers.

    Built fluently (each helper returns the plan)::

        plan = (FaultPlan()
                .delay("before_batch", 0.1, batch_id=2)
                .kill("before_batch", batch_id=3)    # whoever serves 3 dies
                .fail("before_step", epoch=5))

    Plain data — no callables — so a plan crosses a process boundary
    (worker spawn and respawn, a subprocess training run) unchanged.
    """

    specs: list[FaultSpec] = field(default_factory=list)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def kill(self, when: str, **selectors) -> "FaultPlan":
        """Die abruptly (self-``SIGKILL``) at the selected point."""
        return self.add(FaultSpec("kill", when, selectors))

    def preempt(self, when: str, **selectors) -> "FaultPlan":
        """Deliver ``SIGTERM`` to self: the graceful-preemption path."""
        return self.add(FaultSpec("preempt", when, selectors))

    def delay(self, when: str, seconds: float, **selectors) -> "FaultPlan":
        """Sleep ``seconds`` at the selected point (the straggler)."""
        return self.add(FaultSpec("delay", when, selectors, seconds=seconds))

    def fail(self, when: str, message: str = "injected fault",
             **selectors) -> "FaultPlan":
        """Raise :class:`InjectedFault` at the selected point."""
        return self.add(FaultSpec("fail", when, selectors, message=message))

    def __len__(self) -> int:
        return len(self.specs)

    def check_fire_points(self, fire_points: Iterable[str],
                          consumer: str) -> None:
        """Reject specs at points ``consumer`` never fires — a plan
        handed to the wrong consumer would otherwise never go off."""
        fire_points = tuple(fire_points)
        stray = [spec for spec in self.specs if spec.when not in fire_points]
        if stray:
            raise ValueError(f"{consumer} fires only {fire_points}; these "
                             f"specs would never fire: {stray}")

    def apply(self, when: str, **context) -> None:
        """Fire every spec matching ``when`` and ``context``, in plan order.

        Delays sleep, fails raise, preempts raise ``SIGTERM`` in-process
        (a handler sees exactly what a real preemption delivers), kills
        never return.
        """
        for spec in self.specs:
            if not spec.matches(when, context):
                continue
            if spec.kind == "delay":
                time.sleep(spec.seconds)
            elif spec.kind == "fail":
                where = ", ".join(f"{k} {v}" for k, v in context.items())
                raise InjectedFault(f"{spec.message} ({when}: {where})")
            elif spec.kind == "preempt":
                os.kill(os.getpid(), signal.SIGTERM)
            else:   # kill
                os.kill(os.getpid(), signal.SIGKILL)

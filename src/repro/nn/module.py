"""Module / Parameter abstractions, mirroring the ``torch.nn`` programming model.

A :class:`Module` discovers its :class:`Parameter` leaves (and sub-modules)
by attribute inspection, supports train/eval mode toggling, and offers
state-dict style introspection. This is the scaffolding every layer in
:mod:`repro.nn.layers`, :mod:`repro.nn.attention` and the HAFusion model
itself builds upon.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor flagged as a trainable model parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    Parameters and sub-modules assigned as attributes are registered
    automatically.
    """

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendant modules (depth-first)."""
        yield self
        for child in self.children():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        """Yield immediate sub-modules."""
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first, stable order."""
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        """Return all unique parameters of this module tree."""
        seen: set[int] = set()
        result: list[Parameter] = []
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                result.append(param)
        return result

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set train/eval mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def evaluating(self) -> Iterator["Module"]:
        """Eval mode for the ``with`` block, then the prior mode back —
        also when the block raises."""
        was_training = self.training
        self.eval()
        try:
            yield self
        finally:
            self.train(was_training)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray],
                        in_place: bool = False) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        ``in_place=True`` copies each value *into* the existing
        ``param.data`` array (``np.copyto``) instead of rebinding it —
        required when a compiled plan (:mod:`repro.nn.compile`) has
        adopted the parameter arrays as replay buffers: restoring a
        checkpoint must not invalidate the plan.  In-place loading
        additionally demands an exact dtype match (a silent cast would
        break bit-identical resume).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if in_place:
                value = np.asarray(state[name])
                if value.dtype != param.data.dtype:
                    raise ValueError(
                        f"dtype mismatch for {name}: {value.dtype} vs "
                        f"{param.data.dtype} (in-place load requires exact "
                        f"dtype)")
            else:
                value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.shape}")
            if in_place:
                np.copyto(param.data, value)
            else:
                param.data = value.copy()


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class ModuleList(Module):
    """A list container whose items are registered sub-modules."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

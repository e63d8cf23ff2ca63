"""Common interface and trainer for the baseline models.

Every baseline binds to one city at construction (each consumes different
parts of the dataset), exposes ``view_embeddings() -> list[Tensor]`` and a
``fusion`` module combining them, computes its own training ``loss()``,
and yields frozen ``embed()`` arrays for downstream evaluation.

The split between ``view_embeddings`` and ``fusion`` is what allows
Table IV's plug-in experiment: :mod:`repro.baselines.fusion_adapters`
swaps the simple fusion for DAFusion without touching the encoders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..nn import Adam, Module, Tensor, clip_grad_norm, no_grad

__all__ = ["RegionEmbeddingBaseline", "FitResult", "fit_baseline"]


@dataclass
class FitResult:
    """Loss curve and wall-clock of one baseline training run."""

    losses: list[float] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no epochs recorded")
        return self.losses[-1]

    def improved(self) -> bool:
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]


class RegionEmbeddingBaseline(Module):
    """Base class for baseline region-embedding models.

    Subclasses must set ``name`` / ``default_dim`` and implement
    ``view_embeddings`` and ``loss``; ``forward`` runs the fusion over
    the view embeddings (simple aggregation by default, replaceable).
    """

    name: str = "baseline"
    default_dim: int = 96

    def view_embeddings(self) -> list[Tensor]:
        raise NotImplementedError

    def fuse(self, views: list[Tensor]) -> Tensor:
        raise NotImplementedError

    def forward(self) -> Tensor:
        return self.fuse(self.view_embeddings())

    def loss(self) -> Tensor:
        raise NotImplementedError

    def embed(self) -> np.ndarray:
        """Frozen embeddings for downstream evaluation."""
        with self.evaluating(), no_grad():
            h = self.forward()
        return h.data.copy()


def fit_baseline(model: RegionEmbeddingBaseline, epochs: int = 300,
                 lr: float = 1e-3, grad_clip: float = 5.0,
                 log_every: int = 0) -> FitResult:
    """Full-batch Adam training loop shared by all baselines."""
    optimizer = Adam(model.parameters(), lr=lr)
    result = FitResult()
    start = time.perf_counter()
    for epoch in range(epochs):
        optimizer.zero_grad()
        loss = model.loss()
        loss.backward()
        if grad_clip > 0:
            clip_grad_norm(model.parameters(), grad_clip)
        optimizer.step()
        result.losses.append(loss.item())
        if log_every and (epoch + 1) % log_every == 0:
            print(f"[{model.name}] epoch {epoch + 1:>4}/{epochs}  loss {loss.item():.4f}")
    result.seconds = time.perf_counter() - start
    return result

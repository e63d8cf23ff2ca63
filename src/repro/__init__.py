"""Reproduction of "Urban Region Representation Learning with Attentive Fusion"
(HAFusion, ICDE 2024) on a from-scratch numpy substrate.

Public API overview
-------------------
- :mod:`repro.nn` — numpy autograd deep-learning substrate (PyTorch stand-in).
- :mod:`repro.data` — synthetic-city generators standing in for the NYC /
  Chicago / San Francisco open datasets, plus view feature matrices.
- :mod:`repro.core` — the paper's contribution: HALearning (IntraAFL,
  InterAFL), DAFusion (ViewFusion, RegionFusion), losses, trainer.
- :mod:`repro.baselines` — MVURE, MGFN, RegionDCL, HREP reimplementations
  and their DAFusion-augmented variants.
- :mod:`repro.eval` — Lasso regression, k-fold CV, MAE/RMSE/R² metrics and
  the downstream-task runner.
- :mod:`repro.experiments` — one runner per paper table/figure.
- :mod:`repro.serving` — the production serving API: typed embed
  requests/responses, an :class:`~repro.serving.EmbeddingService` with a
  shape-bucket scheduler over resident compiled plans, and deploy-time
  warm-up packs.
- :mod:`repro.train` — crash-safe training: atomic checksummed
  checkpoints with bit-identical resume, typed preemption/numerical
  errors.
- :mod:`repro.faults` — deterministic fault injection (kill, preempt,
  delay, fail) for the serving fleet and the training loop.

Quickstart
----------
>>> from repro.data import load_city
>>> from repro.core import HAFusion, HAFusionConfig, train_hafusion
>>> city = load_city("nyc", seed=7)
>>> model, history = train_hafusion(city, HAFusionConfig(epochs=50), seed=7)
>>> embeddings = model.embed(city.views())
"""

from .version import __version__

__all__ = ["__version__"]

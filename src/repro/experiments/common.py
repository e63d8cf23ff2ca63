"""Shared infrastructure for the experiment runners.

Profiles scale the training epochs to the compute budget (the paper's
full 2,500-epoch schedule is impractical to repeat dozens of times on
CPU); the architecture and evaluation protocol never change between
profiles. Embeddings are cached on disk keyed by (model, city, seed,
epochs) so that experiments sharing a trained model (e.g. Table III and
Table V) do not retrain it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baselines import make_baseline, train_baseline
from ..core import HAFusionConfig, train_hafusion
from ..data import SyntheticCity, load_city
from ..eval import TaskResult, evaluate_embeddings

__all__ = [
    "ExperimentProfile",
    "PROFILES",
    "get_profile",
    "EmbeddingResult",
    "compute_embeddings",
    "evaluate_model",
    "MODEL_ORDER",
    "MODEL_LABELS",
    "cache_dir",
    "use_compiled_training",
    "checkpoint_settings",
]

#: Canonical model ordering for tables (paper order).
MODEL_ORDER = ("mvure", "mgfn", "region_dcl", "hrep", "hafusion")

MODEL_LABELS = {
    "mvure": "MVURE",
    "mgfn": "MGFN",
    "region_dcl": "RegionDCL",
    "hrep": "HREP",
    "hafusion": "HAFusion",
    "mvure-dafusion": "MVURE-DAFusion",
    "mgfn-dafusion": "MGFN-DAFusion",
    "hrep-dafusion": "HREP-DAFusion",
}


@dataclass(frozen=True)
class ExperimentProfile:
    """Epoch budgets for one run tier."""

    name: str
    hafusion_epochs: int
    baseline_epochs: int
    seed: int = 7
    n_splits: int = 10


PROFILES = {
    # Tiny budget for CI / pytest-benchmark smoke runs.
    "smoke": ExperimentProfile("smoke", hafusion_epochs=30, baseline_epochs=30),
    # The budget used for the numbers recorded in EXPERIMENTS.md.
    "quick": ExperimentProfile("quick", hafusion_epochs=250, baseline_epochs=200),
    # The paper's schedule (hours on CPU).
    "full": ExperimentProfile("full", hafusion_epochs=2500, baseline_epochs=1500),
}


def get_profile(profile: str | ExperimentProfile) -> ExperimentProfile:
    if isinstance(profile, ExperimentProfile):
        return profile
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    return PROFILES[profile]


def cache_dir() -> Path:
    """Embedding cache directory (override with REPRO_CACHE_DIR)."""
    root = os.environ.get("REPRO_CACHE_DIR", os.path.join(os.path.dirname(__file__),
                                                          "..", "..", "..", ".cache"))
    path = Path(root).resolve()
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class EmbeddingResult:
    """Embeddings plus provenance/timing for one (model, city) pair."""

    model_name: str
    city_name: str
    embeddings: np.ndarray
    train_seconds: float
    epochs: int
    from_cache: bool = False


def _cache_key(model_name: str, city: SyntheticCity, seed: int, epochs: int,
               extra: dict | None = None) -> str:
    payload = {
        "model": model_name,
        "city": city.name,
        "n_regions": city.n_regions,
        "seed": seed,
        "epochs": epochs,
        "extra": extra or {},
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:16]


def use_compiled_training() -> bool:
    """Whether experiment runners train HAFusion through the compiled
    record/replay executor (the default; set ``REPRO_EAGER=1`` to force
    the eager tape — the escape hatch for debugging the executor itself).
    """
    return os.environ.get("REPRO_EAGER", "") != "1"


def checkpoint_settings() -> tuple[str | None, int]:
    """Crash-safety defaults for experiment training runs.

    ``REPRO_CHECKPOINT_DIR`` names a directory to persist training
    checkpoints under (per model/city sub-directories are created inside
    it); ``REPRO_CHECKPOINT_EVERY`` sets the epoch interval (default 50
    when a directory is set).  Unset directory = checkpointing off, the
    zero-overhead default for short runs.
    """
    directory = os.environ.get("REPRO_CHECKPOINT_DIR") or None
    every = int(os.environ.get("REPRO_CHECKPOINT_EVERY", "50") or 0)
    return directory, every


def compute_embeddings(model_name: str, city: SyntheticCity,
                       profile: str | ExperimentProfile = "quick",
                       use_cache: bool = True,
                       config_overrides: dict | None = None,
                       compiled: bool | None = None,
                       checkpoint_dir=None, checkpoint_every: int | None = None,
                       resume: bool = True) -> EmbeddingResult:
    """Train (or load cached) embeddings for one model on one city.

    ``model_name`` is "hafusion", a baseline name, a ``<baseline>-dafusion``
    variant, or "hafusion" with ``config_overrides`` for ablations.
    HAFusion trains through the compiled executor by default
    (``compiled=None`` defers to :func:`use_compiled_training`); the mode
    is part of the cache key so eager and compiled runs never share
    cached embeddings.

    ``checkpoint_dir`` / ``checkpoint_every`` / ``resume`` make the
    HAFusion training run crash-safe (see
    :mod:`repro.train.checkpoint`); they default to the
    ``REPRO_CHECKPOINT_DIR`` / ``REPRO_CHECKPOINT_EVERY`` environment,
    so long experiment sweeps become resumable without code changes.
    Checkpoints land in a per-run sub-directory keyed like the embedding
    cache, so different models/cities/profiles never share checkpoints.

    HAFusion's embeddings come from one
    :class:`~repro.serving.EmbedRequest` to an
    :class:`~repro.serving.EmbeddingService` over the trained model
    (compiled plan replay when training ran compiled), so every
    experiment exercises the same code as production serving; that
    route is part of the cache key (``embed: service``).
    """
    profile = get_profile(profile)
    is_hafusion = model_name == "hafusion"
    if compiled is None:
        compiled = use_compiled_training()
    compiled = bool(compiled and is_hafusion)
    epochs = profile.hafusion_epochs if is_hafusion else profile.baseline_epochs
    extra = dict(config_overrides or {})
    if compiled:
        extra["compiled"] = True
    if is_hafusion:
        # Embeddings come off the serving path (a (1, n, d) service
        # batch), not the legacy unbatched model.embed — keep the two
        # from ever sharing a cache entry.
        extra["embed"] = "service"
    key = _cache_key(model_name, city, profile.seed, epochs, extra)
    cache_file = cache_dir() / f"{model_name}-{city.name}-{key}.npz"
    if checkpoint_dir is None:
        checkpoint_dir, env_every = checkpoint_settings()
        if checkpoint_every is None:
            checkpoint_every = env_every
    if checkpoint_every is None:
        checkpoint_every = 50
    run_checkpoint_dir = None
    if checkpoint_dir is not None and is_hafusion:
        # Keyed like the embedding cache: a checkpoint can only ever be
        # resumed by the exact run configuration that wrote it.
        run_checkpoint_dir = (Path(checkpoint_dir)
                              / f"{model_name}-{city.name}-{key}")
    if use_cache and cache_file.exists():
        payload = np.load(cache_file)
        return EmbeddingResult(model_name, city.name, payload["embeddings"],
                               float(payload["train_seconds"]), epochs,
                               from_cache=True)

    from ..nn.tensor import use_dtype

    start = time.perf_counter()
    # Training runs in float32 (PyTorch's default precision) — roughly
    # half the time and memory of the library-default float64.
    with use_dtype(np.float32):
        if is_hafusion:
            overrides = dict(config_overrides or {})
            view_names = overrides.pop("view_names", None)
            config = HAFusionConfig.for_city(city.name, epochs=epochs, **overrides)
            model, _history = train_hafusion(city, config, seed=profile.seed,
                                             view_names=view_names,
                                             compiled=compiled,
                                             checkpoint_dir=run_checkpoint_dir,
                                             checkpoint_every=checkpoint_every,
                                             resume=(resume and
                                                     run_checkpoint_dir
                                                     is not None))
            views = city.views()
            if view_names is not None:
                views = views.subset(view_names)
            # Serve the embeddings through the unified service path (one
            # request, compiled plan replay when training ran compiled).
            from ..serving import EmbedRequest, EmbeddingService
            service = EmbeddingService(model, n_max=views.n_regions,
                                       compiled=compiled)
            embeddings = service.run(
                [EmbedRequest(views, name=city.name)])[0].embeddings
        else:
            model = make_baseline(model_name, city, seed=profile.seed,
                                  **(config_overrides or {}))
            train_baseline(model, epochs=epochs)
            embeddings = model.embed()
    seconds = time.perf_counter() - start

    if use_cache:
        np.savez_compressed(cache_file, embeddings=embeddings,
                            train_seconds=seconds)
    return EmbeddingResult(model_name, city.name, embeddings, seconds, epochs)


def evaluate_model(result: EmbeddingResult, city: SyntheticCity, task: str,
                   profile: str | ExperimentProfile = "quick") -> TaskResult:
    """Downstream evaluation honouring model-specific protocols.

    HREP's prompt-learning stage runs inside the regressor (that is the
    model's published protocol, and the source of its slow downstream
    column in Table V).
    """
    profile = get_profile(profile)
    if result.model_name.startswith("hrep"):
        from ..baselines.hrep import PromptedLasso
        from ..eval import cross_validated_regression
        import time as _time
        start = _time.perf_counter()
        metrics = cross_validated_regression(
            result.embeddings, city.targets.task(task),
            model_factory=lambda: PromptedLasso(seed=profile.seed),
            n_splits=profile.n_splits, seed=profile.seed)
        seconds = _time.perf_counter() - start
        return TaskResult(task=task, metrics=metrics, seconds=seconds)
    return evaluate_embeddings(result.embeddings, city, task,
                               n_splits=profile.n_splits, seed=profile.seed)

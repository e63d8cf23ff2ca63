"""Deploy-time plan warm-up packs.

A fresh serving process pays one record epoch (a full eager forward
under the tape recorder) for every plan shape it has never seen.  A
:class:`WarmupPack` moves that cost to deploy time: build it once
against a reference service over the common ``(batch_size, n_regions)``
grid, ship the directory with the model, and point the production
service's :class:`~repro.nn.plancache.PlanCache` at it — the first
request of every warmed shape then relowers a pickled
:class:`~repro.nn.plancache.PlanSpec` instead of recording
(``RECORD_STATS.total`` stays **zero** on the warm path, asserted by
``tests/serving/test_service.py`` and the ``serving-smoke`` CI job).

Plan specs bake in shapes, dtype, the mask constants and the config
digest — not parameter or input *values* — so a pack built from any
model of the right architecture serves every other one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..nn.plancache import PlanCache, config_digest
from .service import EmbeddingService

__all__ = ["WarmupPack", "default_shape_grid"]

_MANIFEST = "warmup_pack.json"
#: Bump when the manifest layout changes, or when the plans a service
#: asks for change shape: version 2 packs hold each co-batch at its
#: flush width ``min(n_max, max n_i + 1)`` instead of at ``n_max``.
_PACK_VERSION = 2


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` durably: temp file + fsync + ``os.replace``.

    The manifest is the pack's validity marker (:meth:`WarmupPack.load`
    trusts its presence), so it must appear atomically — a crash
    mid-build must leave either no manifest or a complete one, never a
    partial file a later ``load()`` would treat as a valid pack.
    """
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def default_shape_grid(policy_max_batch: int,
                       bucket_edges: Sequence[int]) -> list[tuple[int, int]]:
    """The grid a scheduler's steady state exercises: full flushes of
    every bucket edge, plus the single-request (straggler) flush."""
    grid = []
    for edge in sorted(set(int(e) for e in bucket_edges)):
        grid.append((policy_max_batch, edge))
        if policy_max_batch != 1:
            grid.append((1, edge))
    return grid


@dataclass
class WarmupPack:
    """A directory of pre-recorded plan specs plus its manifest."""

    directory: Path
    manifest: dict

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, service: EmbeddingService,
              shape_grid: "Sequence[tuple[int, int | Sequence[int]]] | None" = None,
              directory: "str | os.PathLike | None" = None,
              traffic=None) -> "WarmupPack":
        """Record the plan for every ``(batch_size, n_regions)`` shape in
        the grid through ``service`` and persist the specs.

        ``directory`` defaults to the service plan cache's directory (it
        must have one — the pack *is* the on-disk cache).  When a
        directory is given and differs from the service's, the service
        is repointed at it first.

        The default grid covers the scheduler's steady state — full and
        single-request flushes of every bucket edge — which is exact for
        uniform traffic.  Ragged traffic flushes with mixed per-row
        region counts whose masks the grid cannot enumerate; pass a
        ``traffic`` sample (a sequence of view sets representative of
        production requests) and it is played through the scheduler once
        so those exact flush compositions are recorded into the pack
        too.
        """
        from .api import EmbedRequest
        if shape_grid is None:
            scheduler = service._require_scheduler()
            shape_grid = default_shape_grid(service.policy.max_batch,
                                            scheduler.edges)
        directory = Path(directory) if directory is not None else \
            service.plan_cache.directory
        if directory is None:
            raise ValueError(
                "warm-up packs are on-disk artifacts: give the service a "
                "PlanCache(directory=...) or pass directory= explicitly")
        if service.plan_cache.directory is None or \
                Path(service.plan_cache.directory) != directory:
            service.plan_cache = PlanCache(
                capacity=service.plan_cache.capacity, directory=directory)
        shapes = []
        for batch_size, n_regions in shape_grid:
            bucket_id = service.warm(batch_size, n_regions)
            rows = ([int(n_regions)] * batch_size
                    if isinstance(n_regions, (int, np.integer))
                    else [int(n) for n in n_regions])
            shapes.append({"batch_size": int(batch_size), "n_regions": rows,
                           "bucket_id": bucket_id})
        if traffic is not None:
            mark = service.flush_seq
            service.run([EmbedRequest(vs) for vs in traffic])
            # The flush log holds the exact co-batch compositions the
            # traffic produced — each one a valid service.warm() shape.
            # Filtered by seq (not position): the log is a bounded deque
            # whose older entries may have been evicted.
            for flush in (f for f in service.flush_log
                          if f["seq"] > mark):
                shape = {"batch_size": flush["batch_size"],
                         "n_regions": list(flush["n_regions"]),
                         "bucket_id": flush["bucket_id"],
                         "from_traffic": True}
                if shape not in shapes:
                    shapes.append(shape)
        params = service.model.parameters()
        manifest = {
            "version": _PACK_VERSION,
            "config_digest": config_digest(service.model.config),
            "param_dtype": str(params[0].dtype) if params else "none",
            "n_max": service.n_max,
            "view_dims": list(service.view_dims),
            "shapes": shapes,
        }
        directory.mkdir(parents=True, exist_ok=True)
        # Specs were persisted by service.warm() above; the manifest
        # lands last and atomically, so its presence implies a complete
        # pack (load() gates worker spawns on exactly this file).
        _atomic_write_text(directory / _MANIFEST,
                           json.dumps(manifest, indent=2))
        return cls(directory=directory, manifest=manifest)

    @classmethod
    def load(cls, directory: "str | os.PathLike") -> "WarmupPack":
        """Read a pack's manifest; raises ``FileNotFoundError`` when
        there is none and ``ValueError`` when it is from another pack
        version.

        This is also the pre-flight the fleet runs before spawning
        workers (and the supervisor relies on when respawning them): a
        missing or stale pack should fail once, in the parent, with a
        clear message — not as ``n_workers`` independent worker-start
        tracebacks, and not as silent record epochs under live traffic
        when an old pack holds plans the service no longer asks for.
        """
        directory = Path(directory)
        path = directory / _MANIFEST
        if not path.exists():
            raise FileNotFoundError(
                f"no warm-up pack manifest at {path}; build one with "
                f"WarmupPack.build")
        manifest = json.loads(path.read_text())
        if manifest.get("version") != _PACK_VERSION:
            raise ValueError(
                f"warm-up pack version {manifest.get('version')} != "
                f"{_PACK_VERSION} at {path}; rebuild it with "
                f"WarmupPack.build")
        return cls(directory=directory, manifest=manifest)

    # ------------------------------------------------------------------
    @property
    def shapes(self) -> list[dict]:
        return list(self.manifest["shapes"])

    def compatible_with(self, service: EmbeddingService) -> bool:
        """Whether this pack's specs can serve ``service`` without
        recording (same architecture digest, dtype and capacity)."""
        params = service.model.parameters()
        return (self.manifest["config_digest"]
                == config_digest(service.model.config)
                and self.manifest["param_dtype"]
                == (str(params[0].dtype) if params else "none")
                and self.manifest["n_max"] == service.n_max
                and self.manifest["view_dims"] == list(service.view_dims))

    def attach(self, service: EmbeddingService) -> EmbeddingService:
        """Point ``service`` at this pack's on-disk specs (cold start →
        spec relowering, zero record epochs for warmed shapes)."""
        if not self.compatible_with(service):
            raise ValueError(
                "warm-up pack was built for a different architecture, "
                "dtype or capacity than this service")
        service.plan_cache = PlanCache(capacity=service.plan_cache.capacity,
                                       directory=self.directory)
        return service

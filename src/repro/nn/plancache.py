"""Plan cache: reuse compiled inference plans across requests, models and
processes.

A recorded :class:`~repro.nn.compile.InferencePlan` is expensive to
create (one eager forward under the tape recorder — the "record epoch")
but cheap to *rebuild*: the program is fully described by its graph
structure — per-node op, ctx, parent wiring, shape and dtype — plus the
constant leaf values.  Parameters and inputs are **not** part of that
description: a rebuilt plan binds parameter slots to the live model's
arrays (by ``model.parameters()`` order) and leaves input slots empty for
:meth:`~repro.nn.compile.InferencePlan.run` to fill per request.

Three reuse tiers, all keyed on
``(config digest, input shapes, dtype, mask signature)``:

1. **plan hit** — the same key with the same bound parameter arrays:
   return the live plan, zero work;
2. **spec hit** — the key is known (in-memory LRU or on-disk pickle) but
   the plan is unbound or bound to swapped-out/foreign parameters:
   relower the spec to kernels (`build_inference_plan`, no eager pass,
   no record epoch) and bind the given parameters;
3. **miss** — record eagerly once, then persist the spec in memory and
   (when a cache directory is configured) on disk, so later *processes*
   start at tier 2.

Robustness: a corrupted, truncated, version-skewed or key-mismatched
on-disk entry — and a stored spec whose parameter shapes no longer match
the model — falls back to a fresh record (the bad file is removed).  The
on-disk format is a pickle of :class:`PlanSpec`; treat the cache
directory with the same trust as the code importing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .compile import InferencePlan, _reachable
from .tensor import Tensor

__all__ = [
    "SPEC_VERSION",
    "PlanCacheError",
    "PlanSpec",
    "build_inference_spec",
    "build_inference_plan",
    "PlanCache",
    "config_digest",
    "mask_signature",
    "inference_plan_key",
    "default_plan_cache",
    "reset_default_plan_cache",
]

#: Bumping this invalidates every serialized spec (baked into the key
#: and checked against the loaded payload).
SPEC_VERSION = 1


class PlanCacheError(RuntimeError):
    """A stored spec cannot serve this request (stale, corrupt, or bound
    to a different architecture); callers fall back to re-recording."""


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

def config_digest(config) -> str:
    """Stable digest of a model configuration (any dataclass or dict)."""
    if is_dataclass(config) and not isinstance(config, type):
        payload = asdict(config)
    elif isinstance(config, dict):
        payload = config
    else:
        payload = {"repr": repr(config)}
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def mask_signature(mask: np.ndarray | None) -> str | None:
    """Digest of a keep mask's shape, dtype and contents (None passes
    through: the unpadded fast path has no mask baked into the plan)."""
    if mask is None:
        return None
    m = np.ascontiguousarray(mask)
    h = hashlib.sha256()
    h.update(repr((m.shape, str(m.dtype))).encode())
    h.update(m.tobytes())
    return h.hexdigest()[:16]


def inference_plan_key(config, shapes: Sequence[Sequence[int]], dtype,
                       mask: np.ndarray | None = None,
                       extra: tuple = ()) -> tuple:
    """The canonical cache key: everything that changes the lowered
    program.  Parameter *values* are deliberately absent — specs rebind
    them — but the mask is baked into the plan as constants, hence its
    signature is part of the key."""
    return ("infer", SPEC_VERSION, config_digest(config),
            tuple(tuple(int(d) for d in s) for s in shapes),
            str(np.dtype(dtype)), mask_signature(mask), tuple(extra))


# ----------------------------------------------------------------------
# PlanSpec: the serializable program
# ----------------------------------------------------------------------

@dataclass
class PlanSpec:
    """A lowered forward program as plain data.

    One combined node list — declared inputs first, then the remaining
    leaves in first-reference order, then the op nodes in execution
    order; ``parents`` reference earlier indices only.  ``kinds[i]`` is
    ``"input"`` (a rebindable slot), ``"param"`` (bound at build time by
    position in the model's parameter list), ``"const"`` (value stored
    here, e.g. the additive masks) or ``"op"``.
    """

    version: int
    key: tuple
    kinds: list[str]
    ops: list[str]
    ctxs: list[tuple | None]
    parents: list[tuple[int, ...]]
    shapes: list[tuple[int, ...]]
    dtypes: list[str]
    param_index: dict[int, int] = field(default_factory=dict)
    input_index: dict[int, int] = field(default_factory=dict)
    const_values: dict[int, np.ndarray] = field(default_factory=dict)
    output: int = -1
    param_count: int = 0


def build_inference_spec(key: tuple, output: Tensor, nodes: list[Tensor],
                         inputs: Sequence[Tensor],
                         params: Sequence[Tensor]) -> PlanSpec:
    """Describe a recorded forward graph as a :class:`PlanSpec`.

    Must run on the freshly recorded graph **before**
    :class:`~repro.nn.compile.InferencePlan` construction rebinds node
    buffers (shapes/dtypes are read from ``node.data``).
    """
    reachable = _reachable(output, nodes)
    order = [n for n in nodes if id(n) in reachable]

    param_pos = {id(p): i for i, p in enumerate(params)}
    index: dict[int, int] = {}
    spec = PlanSpec(version=SPEC_VERSION, key=key, kinds=[], ops=[],
                    ctxs=[], parents=[], shapes=[], dtypes=[],
                    param_count=len(params))

    def add(t: Tensor, kind: str, op: str = "", ctx=None,
            parent_ids: tuple[int, ...] = ()) -> int:
        idx = len(spec.kinds)
        index[id(t)] = idx
        spec.kinds.append(kind)
        spec.ops.append(op)
        spec.ctxs.append(ctx)
        spec.parents.append(parent_ids)
        spec.shapes.append(tuple(t.data.shape))
        spec.dtypes.append(str(t.data.dtype))
        return idx

    # Every declared input gets a slot — even one the graph never reads —
    # so run() keeps the caller's input arity.
    for j, t in enumerate(inputs):
        spec.input_index[add(t, "input")] = j
    for n in order:
        for p in n._prev:
            if id(p) in index:
                continue
            if p._prev:
                raise RuntimeError("recorded graph parents out of order")
            if id(p) in param_pos:
                spec.param_index[add(p, "param")] = param_pos[id(p)]
            else:
                spec.const_values[add(p, "const")] = np.array(p.data,
                                                              copy=True)
        ctx = n._ctx
        if n._op == "conv2d":
            ctx = tuple(ctx[:3])   # drop the im2col scratch; rebuilt on load
        add(n, "op", n._op, ctx, tuple(index[id(p)] for p in n._prev))
    spec.output = index[id(output)]
    return spec


def _stub(data: np.ndarray, prev: tuple = (), op: str = "",
          ctx=None) -> Tensor:
    """A bare graph node (no autograd bookkeeping, no tape interplay)."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = False
    t._backward = None
    t._prev = tuple(prev)
    t._op = op
    t._ctx = ctx
    t._grad_owned = False
    return t


def build_inference_plan(spec: PlanSpec,
                         params: Sequence[Tensor]) -> InferencePlan:
    """Relower a :class:`PlanSpec` to a live plan — no eager pass, no
    record epoch.  ``params`` must be the model's parameter list in the
    same order the spec was built with (the config digest in the key
    pins the architecture; shape/dtype mismatches raise
    :class:`PlanCacheError`)."""
    if spec.version != SPEC_VERSION:
        raise PlanCacheError(f"spec version {spec.version} != {SPEC_VERSION}")
    params = list(params)
    if spec.param_count != len(params):
        raise PlanCacheError(f"spec binds {spec.param_count} parameters, "
                             f"model has {len(params)}")
    tensors: list[Tensor] = []
    inputs: list[Tensor | None] = [None] * len(spec.input_index)
    for i, kind in enumerate(spec.kinds):
        shape = tuple(spec.shapes[i])
        dtype = np.dtype(spec.dtypes[i])
        if kind == "param":
            t = params[spec.param_index[i]]
            if tuple(t.data.shape) != shape or t.data.dtype != dtype:
                raise PlanCacheError(
                    f"parameter {spec.param_index[i]} is {t.data.dtype}"
                    f"{tuple(t.data.shape)}, spec expects {dtype}{shape}")
        elif kind == "input":
            t = _stub(np.empty(shape, dtype=dtype))
            inputs[spec.input_index[i]] = t
        elif kind == "const":
            value = spec.const_values[i]
            if tuple(value.shape) != shape:
                raise PlanCacheError("constant shape drifted from spec")
            t = _stub(value)
        else:
            prev = tuple(tensors[j] for j in spec.parents[i])
            ctx = spec.ctxs[i]
            if spec.ops[i] == "conv2d":
                kernel, pad, batched = ctx
                # The plan builder allocates its own patch buffer, so no
                # cols are shipped.
                ctx = (kernel, pad, batched, None)
            # Placeholder buffer: the plan's liveness pass replaces it
            # (np.empty reserves without touching pages).
            t = _stub(np.empty(shape, dtype=dtype), prev, spec.ops[i], ctx)
        tensors.append(t)
    order = [t for t, kind in zip(tensors, spec.kinds) if kind == "op"]
    if any(t is None for t in inputs):
        raise PlanCacheError("spec input slots are not contiguous")
    return InferencePlan(tensors[spec.output], order, inputs, params=params)


# ----------------------------------------------------------------------
# PlanCache: in-memory LRU + on-disk persistence
# ----------------------------------------------------------------------

class PlanCache:
    """LRU cache of inference-plan specs with optional disk persistence.

    ``get(key, params, record)`` implements the three reuse tiers
    described in the module docstring; ``record`` is only invoked on a
    full miss and must return ``(output, nodes, inputs)`` from a
    forward-only recording (see
    :func:`repro.nn.compile.record_forward`).
    """

    def __init__(self, capacity: int = 32,
                 directory: str | os.PathLike | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        # Size the capacity above the working set of distinct keys: a
        # ragged EmbeddingService.embed_each holds one key per distinct
        # mask pattern, and an LRU smaller than that cycle re-records every
        # plan on every pass (cache.stats()["misses"] growing linearly
        # is the tell).
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self._specs: OrderedDict[tuple, PlanSpec] = OrderedDict()
        self._plans: dict[tuple, InferencePlan] = {}   # live, by spec key
        self.hits = 0          # live plan, matching bound parameters
        self.spec_hits = 0     # relowered from a cached spec (no record)
        self.disk_hits = 0     # spec loaded from disk
        self.misses = 0        # full record epochs performed
        self.invalidations = 0  # spec present but unusable (param swap ...)
        self.disk_errors = 0   # corrupt/stale on-disk entries discarded

    # ------------------------------------------------------------------
    def _path(self, key: tuple) -> Path:
        name = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return self.directory / f"{name}.plan"

    def _load_disk(self, key: tuple) -> PlanSpec | None:
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                spec = pickle.load(f)
            if (not isinstance(spec, PlanSpec)
                    or spec.version != SPEC_VERSION or spec.key != key):
                raise PlanCacheError("stale or mismatched plan spec")
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupted / truncated / stale: discard and re-record.
            self.disk_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.disk_hits += 1
        return spec

    def _store_disk(self, key: tuple, spec: PlanSpec) -> None:
        if self.directory is None:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb") as f:
                pickle.dump(spec, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)   # atomic: readers never see a partial file
        except OSError:
            self.disk_errors += 1

    def _store_memory(self, key: tuple, spec: PlanSpec) -> None:
        self._specs[key] = spec
        self._specs.move_to_end(key)
        while len(self._specs) > self.capacity:
            evicted, _ = self._specs.popitem(last=False)
            self._plans.pop(evicted, None)

    # ------------------------------------------------------------------
    def get(self, key: tuple, params: Sequence[Tensor],
            record: Callable[[], tuple[Tensor, list[Tensor], Sequence[Tensor]]]
            ) -> InferencePlan:
        """Fetch a plan by the three reuse tiers (module docstring)."""
        params = list(params)
        plan = self._plans.get(key)
        if plan is not None and plan.matches(params):
            self.hits += 1
            if key in self._specs:
                self._specs.move_to_end(key)
            return plan

        spec = self._specs.get(key)
        if spec is not None:
            self._specs.move_to_end(key)
        elif self.directory is not None:
            spec = self._load_disk(key)
            if spec is not None:
                self._store_memory(key, spec)
        if spec is not None:
            try:
                plan = build_inference_plan(spec, params)
            except PlanCacheError:
                self.invalidations += 1
                self._specs.pop(key, None)
                self._plans.pop(key, None)
            else:
                self.spec_hits += 1
                self._plans[key] = plan
                return plan

        self.misses += 1
        output, nodes, inputs = record()
        spec = build_inference_spec(key, output, nodes, inputs, params)
        plan = InferencePlan(output, nodes, inputs, params=params)
        self._store_memory(key, spec)
        self._store_disk(key, spec)
        self._plans[key] = plan
        return plan

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "spec_hits": self.spec_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "disk_errors": self.disk_errors,
            "cached_specs": len(self._specs),
        }

    def resident_report(self) -> list[dict]:
        """One row per *live* plan (lowered kernels bound to parameter
        arrays and held in memory) — the residency view a long-lived
        serving process watches.  ``replays`` counts requests served by
        the resident program without any record or relower work."""
        rows = []
        for key, plan in self._plans.items():
            rows.append({
                "key": hashlib.sha256(repr(key).encode()).hexdigest()[:12],
                "shapes": [list(s) for s in key[3]] if len(key) > 3 else [],
                "replays": plan.replays,
                "forward_ops": plan.num_forward_ops,
                "slot_bytes": plan.buffer_report()["slot_bytes"],
            })
        return sorted(rows, key=lambda r: -r["replays"])


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------

_DEFAULT_CACHE: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """The process-wide cache the engine falls back to.  Set
    ``REPRO_PLAN_CACHE_DIR`` to persist specs across runs; unset, it is
    in-memory only."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        directory = os.environ.get("REPRO_PLAN_CACHE_DIR") or None
        _DEFAULT_CACHE = PlanCache(directory=directory)
    return _DEFAULT_CACHE


def reset_default_plan_cache() -> None:
    """Drop the process-wide cache (tests; env-var changes)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = None

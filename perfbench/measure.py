"""Measurement primitives: percentiles, the tail-percentile rule, an
in-memory span tracer, peak-RSS readings and the machine record."""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` in ``n`` samples."""
    # The epsilon keeps float noise (99.9 * 10000 / 100 > 9990) from
    # pushing an exact rank up by one.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    return ordered[rank(pct, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond its nearest rank (the
    median when the sample is too small for any)."""
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= MIN_BEYOND:
            return pct
    return 50.0


def median(values) -> float:
    return percentile(values, 50.0)


def latency_summary(seconds) -> dict:
    """p50 and tail of a latency sample, in milliseconds."""
    pct = tail_percentile(len(seconds))
    return {"p50_ms": percentile(seconds, 50.0) * 1e3,
            "tail_ms": percentile(seconds, pct) * 1e3, "tail_pct": pct}


class Tracer:
    """Spans (name, start, end, parent) kept in memory.

    :meth:`wrap` patches a method on a class or instance so every call
    records a span; :meth:`restore` undoes all patches.  Parents follow
    the calling thread's open spans.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": stack[-1]["id"] if stack else None,
                  "thread": threading.get_ident()}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span named ``name`` around ``owner.attr`` (a class,
        module or instance attribute); when given,
        ``on_return(args, result, span)`` sees each call's outcome."""
        on_class = isinstance(owner, (type, types.ModuleType))
        original = owner.__dict__[attr] if on_class else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(args, result, record)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, on_class))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, on_class = self._patches.pop()
            if on_class:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def dump(self, path: str) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        rows = [{**s, "start": s["start"] - origin,
                 "end": None if s["end"] is None else s["end"] - origin}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)


def _status_mb(field: str, pid: int | None) -> float:
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} line in {path}")


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    return _status_mb("VmHWM", pid)


def rss_mb(pid: int | None = None) -> float:
    """Current resident set size (``VmRSS``) of a live process, in MiB."""
    return _status_mb("VmRSS", pid)


def _openblas():
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get is not None and config is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    return os.path.basename(path), get(), config().decode()
    return None, None, None


def machine_record() -> dict:
    """Cores, BLAS library and its effective thread count (read, never
    set), the library's resolved plan defaults, and versions."""
    import numpy
    from repro.nn.compile import (resolve_backend, resolve_lowering,
                                  resolve_workers)
    from repro.nn.tensor import get_default_dtype
    library, threads, config = _openblas()
    backend = resolve_backend(None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_library": library,
        "blas_config": config,
        "blas_threads": threads,
        "plan_backend": backend,
        "plan_lowering": resolve_lowering(None),
        "plan_workers": resolve_workers(None) if backend == "threaded" else 1,
        "default_dtype": str(numpy.dtype(get_default_dtype())),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class PassResult:
    """One pass of a workload: end-to-end metrics, per-layer metrics
    (traced passes only), request accounting and failed output checks."""

    e2e: dict
    layers: dict
    attempted: int
    failed: int
    errors: list = field(default_factory=list)
    tracer: Tracer | None = None

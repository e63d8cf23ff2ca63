"""Repository benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload train-table5 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced, then traced (timers around
calls into each layer, from outside the library), fills in layers the
workload does not touch from short traced probe passes of the other
workloads, and prints every per-layer metric plus the tracing overhead;
its spans are written under ``.perfbench-out/``.  The last line of
standard output is the result object; the line before it is the
machine record.  A failed output check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, checkpoints and warm-up packs; removed at exit.
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
#: Traced runs leave their spans here.
OUT = os.path.join(ROOT, ".perfbench-out")


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 probe: bool = False):
    """One pass of a workload in its own scratch directory.  A probe pass
    only feeds per-layer metrics, so a serving probe sets up once."""
    import wl_serve
    import wl_train
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH)
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "embedding-cache")
    try:
        if name == "train-table5":
            return wl_train.run_pass(seed, seconds, traced, workdir)
        return wl_serve.run_pass(
            name, seed, seconds, traced, workdir,
            setups=1 if probe else wl_serve.SETUP_REPEATS)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
        shutil.rmtree(workdir, ignore_errors=True)


def stop_child_processes(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Serving passes stop their fleet workers and pack builder themselves;
    this also catches any a failed pass left behind, and the resource
    tracker that multiprocessing's spawn start method launches, which
    would otherwise outlive this process by a moment."""
    import multiprocessing as mp
    from multiprocessing import resource_tracker
    for child in mp.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()   # closes its pipe, then waits for it to exit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import catalog
    from measure import machine_record
    if args.workload not in catalog.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(catalog.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2

    try:
        base = run_workload(args.workload, args.seed, args.seconds, False)
        errors = list(base.errors)
        attempted, failed = base.attempted, base.failed
        if not args.trace:
            metrics = {name: (base.e2e[name], unit)
                       for name, unit, _, _ in catalog.END_TO_END}
        else:
            traced = run_workload(args.workload, args.seed, args.seconds, True)
            errors += traced.errors
            attempted += traced.attempted
            failed += traced.failed
            layers = dict(traced.layers)
            for name in base.e2e:
                layers[f"trace.overhead.{name}"] = traced.e2e[name] - base.e2e[name]
            tracers = {args.workload: traced.tracer}
            for probe in catalog.PROBES[args.workload]:
                extra = run_workload(probe, args.seed, catalog.PROBE_SECONDS,
                                     True, probe=True)
                errors += [f"{probe} probe: {e}" for e in extra.errors]
                attempted += extra.attempted
                failed += extra.failed
                tracers[probe] = extra.tracer
                for name, value in extra.layers.items():
                    layers.setdefault(name, value)
            missing = [n for n, *_ in catalog.PER_LAYER if n not in layers]
            if missing:
                raise RuntimeError(f"per-layer metrics not measured: {missing}")
            metrics = {name: (layers[name], unit)
                       for name, unit, _, _ in catalog.PER_LAYER}
            os.makedirs(OUT, exist_ok=True)
            for name, tracer in tracers.items():
                tracer.dump(os.path.join(
                    OUT, f"{args.workload}-seed{args.seed}-{name}-spans.json"))
    finally:
        stop_child_processes()
        try:
            os.rmdir(SCRATCH)
        except OSError:   # absent, or another run's scratch is in it
            pass

    for error in errors:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
    print(json.dumps({"machine": machine_record(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

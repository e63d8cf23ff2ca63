#!/usr/bin/env python3
"""Compare two pytest-benchmark JSON files and emit a markdown summary.

Used by the nightly CI job to diff the fresh benchmark run against the
previous night's archived artifact and surface regressions in the job
summary:

    python scripts/compare_benchmarks.py baseline.json current.json \
        [--threshold 0.2] [--fail-on-regression]

Two kinds of series are compared:

- **wall-clock means** per benchmark (``stats.mean``; higher is worse) —
  flagged when the current mean exceeds the baseline by more than the
  threshold;
- **throughput gauges** recorded in ``extra_info`` (higher is better)
  — every nested ``speedup`` key (the engine, compiled training-step,
  compiled serving and scheduler reports) and every nested
  ``*regions_per_sec`` key (the serving scheduler's per-bucket and
  per-traffic-shape throughput) — flagged when the current value falls
  below the baseline by more than the threshold;
- **latency gauges** recorded in ``extra_info`` (lower is better) —
  every nested ``p50_latency`` / ``p99_latency`` key (the serving
  frontend's per-request percentiles) — flagged when the current value
  *exceeds* the baseline by more than the threshold.

Benchmarks, and gauge paths of a shared benchmark, that appear in only
one of the two runs are listed under their own heading rather than
silently dropped.  pytest-benchmark leaves out a benchmark whose timed
call raised, so one missing from the current run may have crashed.
These are not counted as regressions.

The default exit code is 0 even with regressions (the nightly job
*surfaces* them; shared-runner noise should not fail the build) —
``--fail-on-regression`` flips that for stricter environments.

A missing baseline file is handled explicitly instead of silently
skipping the comparison: the script falls back to the in-repo seed
baseline (``benchmarks/baselines/benchmark-seed.json``, committed so a
fresh clone's first nightly has something to diff against) and says so
in the summary; with no seed baseline either, it emits a "no baseline"
summary that still lists the current run's gauges.  Either way the
summary ends with the top-5 hottest kernels recorded by
``Plan.profile()`` in the current run's ``extra_info``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.2

#: Committed seed baseline a fresh clone's first nightly diffs against
#: (relative to the repository root, i.e. this script's parent's parent).
SEED_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "baselines" / "benchmark-seed.json"

#: extra_info keys treated as higher-is-better gauges. ``speedup`` are
#: the engine/compiled/serving ratios; ``regions_per_sec`` covers the
#: serving scheduler's per-bucket and per-traffic-shape throughput
#: (matched by suffix: ``scheduler_regions_per_sec`` etc. count too).
GAUGE_SUFFIXES = ("speedup", "regions_per_sec")

#: extra_info keys treated as lower-is-better gauges: the frontend's
#: request-latency percentiles (``latency.p50_latency`` etc. in the
#: serving-frontend trace benchmark).  A current value *above* baseline
#: by more than the threshold is the regression.
LOWER_GAUGE_SUFFIXES = ("p50_latency", "p99_latency")


def load_benchmarks(path: Path) -> dict[str, dict]:
    payload = json.loads(path.read_text())
    out = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        if name:
            out[name] = bench
    return out


def iter_gauges(extra_info: dict, prefix: str = "", suffixes=GAUGE_SUFFIXES):
    """Yield (dotted_path, value) for every numeric gauge nested anywhere
    inside ``extra_info`` whose key matches ``suffixes`` (default: the
    higher-is-better GAUGE_SUFFIXES; pass LOWER_GAUGE_SUFFIXES for the
    latency percentiles)."""
    for key, value in sorted(extra_info.items()):
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from iter_gauges(value, prefix=f"{path}.",
                                   suffixes=suffixes)
        elif (isinstance(value, (int, float)) and not isinstance(value, bool)
                and any(key == s or key.endswith(f"_{s}")
                        for s in suffixes)):
            yield path, float(value)


def compare(baseline: dict[str, dict], current: dict[str, dict],
            threshold: float) -> tuple[list[str], list[str]]:
    """Returns (table_rows, regression_notes)."""
    rows, regressions = [], []
    for name in sorted(set(baseline) & set(current)):
        old = baseline[name]
        new = current[name]
        old_mean = old.get("stats", {}).get("mean")
        new_mean = new.get("stats", {}).get("mean")
        if old_mean and new_mean:
            ratio = new_mean / old_mean
            flag = ""
            if ratio > 1.0 + threshold:
                flag = " :warning:"
                regressions.append(
                    f"`{name}` mean {old_mean:.4f}s -> {new_mean:.4f}s "
                    f"({ratio - 1.0:+.0%})")
            rows.append(f"| `{name}` | mean | {old_mean:.4f}s | "
                        f"{new_mean:.4f}s | {ratio - 1.0:+.1%}{flag} |")
        old_gauges = dict(iter_gauges(old.get("extra_info", {})))
        new_gauges = dict(iter_gauges(new.get("extra_info", {})))
        for path in sorted(set(old_gauges) & set(new_gauges)):
            old_v, new_v = old_gauges[path], new_gauges[path]
            if old_v <= 0:
                continue
            ratio = new_v / old_v
            flag = ""
            if ratio < 1.0 - threshold:
                flag = " :warning:"
                regressions.append(
                    f"`{name}` {path} {old_v:.2f}x -> {new_v:.2f}x "
                    f"({ratio - 1.0:+.0%})")
            rows.append(f"| `{name}` | {path} | {old_v:.2f}x | "
                        f"{new_v:.2f}x | {ratio - 1.0:+.1%}{flag} |")
        old_lat = dict(iter_gauges(old.get("extra_info", {}),
                                   suffixes=LOWER_GAUGE_SUFFIXES))
        new_lat = dict(iter_gauges(new.get("extra_info", {}),
                                   suffixes=LOWER_GAUGE_SUFFIXES))
        for path in sorted(set(old_lat) & set(new_lat)):
            old_v, new_v = old_lat[path], new_lat[path]
            if old_v <= 0:   # empty latency window reports 0.0
                continue
            ratio = new_v / old_v
            flag = ""
            if ratio > 1.0 + threshold:
                flag = " :warning:"
                regressions.append(
                    f"`{name}` {path} {old_v * 1e3:.2f}ms -> "
                    f"{new_v * 1e3:.2f}ms ({ratio - 1.0:+.0%})")
            rows.append(f"| `{name}` | {path} | {old_v * 1e3:.2f}ms | "
                        f"{new_v * 1e3:.2f}ms | {ratio - 1.0:+.1%}{flag} |")
    return rows, regressions


def _gauge_paths(bench: dict) -> set[str]:
    extra = bench.get("extra_info", {})
    return ({path for path, _ in iter_gauges(extra)}
            | {path for path, _ in iter_gauges(
                extra, suffixes=LOWER_GAUGE_SUFFIXES)})


def unmatched(baseline: dict[str, dict],
              current: dict[str, dict]) -> list[str]:
    """Table rows for the benchmarks, and the gauge paths of shared
    benchmarks, that only one of the two runs has."""
    rows = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            rows.append(f"| `{name}` | benchmark | missing from current run |")
        elif name not in baseline:
            rows.append(f"| `{name}` | benchmark | new in current run |")
        else:
            old = _gauge_paths(baseline[name])
            new = _gauge_paths(current[name])
            rows.extend(f"| `{name}` | {path} | missing from current run |"
                        for path in sorted(old - new))
            rows.extend(f"| `{name}` | {path} | new in current run |"
                        for path in sorted(new - old))
    return rows


def print_unmatched(rows: list[str]) -> None:
    if not rows:
        return
    print()
    print("### In only one run")
    print()
    print("Not compared and not counted as regressions. pytest-benchmark "
          "omits a benchmark whose timed call raised, so one missing from "
          "the current run may have crashed.")
    print()
    print("| benchmark | metric | status |")
    print("| --- | --- | --- |")
    for row in rows:
        print(row)


def iter_top_kernels(extra_info: dict, prefix: str = ""):
    """Yield (dotted_path, top_kernels_list) for every ``top_kernels``
    entry nested inside ``extra_info`` (recorded by ``Plan.profile()``)."""
    for key, value in sorted(extra_info.items()):
        path = f"{prefix}{key}"
        if key == "top_kernels" and isinstance(value, list):
            yield path, value
        elif isinstance(value, dict):
            yield from iter_top_kernels(value, prefix=f"{path}.")


def print_top_kernels(current: dict[str, dict]) -> None:
    """Append the current run's hottest replay kernels to the summary."""
    sections = []
    for name in sorted(current):
        for path, kernels in iter_top_kernels(
                current[name].get("extra_info", {})):
            rows = [k for k in kernels
                    if isinstance(k, dict) and "kernel" in k and "seconds" in k]
            if rows:
                sections.append((name, path, rows[:5]))
    if not sections:
        return
    print()
    print("### Hottest replay kernels (current run)")
    print()
    print("| benchmark | kernel | seconds/replay | bytes |")
    print("| --- | --- | --- | --- |")
    for name, path, rows in sections:
        for k in rows:
            print(f"| `{name}` | `{k['kernel']}` | {k['seconds']:.4f}s | "
                  f"{int(k.get('bytes', 0)):,} |")


def print_no_baseline_summary(current: dict[str, dict],
                              reason: str) -> None:
    """Explicit summary for a run with nothing to diff against — the
    current gauges are still surfaced so the night is not silent."""
    print("## Nightly benchmark comparison")
    print()
    print(f"**No baseline** — {reason}. Current-run gauges:")
    print()
    print("| benchmark | metric | current |")
    print("| --- | --- | --- |")
    for name in sorted(current):
        extra = current[name].get("extra_info", {})
        for path, value in iter_gauges(extra):
            print(f"| `{name}` | {path} | {value:.2f}x |")
        for path, value in iter_gauges(extra,
                                       suffixes=LOWER_GAUGE_SUFFIXES):
            print(f"| `{name}` | {path} | {value * 1e3:.2f}ms |")
    print_top_kernels(current)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative change that counts as a regression "
                             f"(default {DEFAULT_THRESHOLD:.0%})")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any regression is detected")
    parser.add_argument("--seed-baseline", type=Path, default=SEED_BASELINE,
                        help="fallback baseline when the primary one is "
                             "missing (default: the committed seed baseline)")
    args = parser.parse_args(argv)

    current = load_benchmarks(args.current)
    baseline_path, fallback = args.baseline, False
    if not baseline_path.is_file() and args.seed_baseline.is_file():
        baseline_path, fallback = args.seed_baseline, True
    if not baseline_path.is_file():
        print_no_baseline_summary(
            current, "no previous nightly artifact and no committed seed "
            f"baseline at `{args.seed_baseline}`")
        return 0

    baseline = load_benchmarks(baseline_path)
    rows, regressions = compare(baseline, current, args.threshold)
    one_sided = unmatched(baseline, current)

    print("## Nightly benchmark comparison")
    print()
    if fallback:
        print(f"No previous nightly artifact — comparing against the "
              f"committed seed baseline (`{baseline_path.name}`). Seed "
              f"numbers come from a different machine, so treat deltas "
              f"as orientation, not regressions.")
        print()
    if not rows:
        print("No overlapping benchmarks between baseline and current run.")
        print_unmatched(one_sided)
        print_top_kernels(current)
        return 0
    if regressions:
        print(f"**{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:**")
        print()
        for note in regressions:
            print(f"- {note}")
    else:
        print(f"No regressions beyond {args.threshold:.0%}.")
    print()
    print("| benchmark | metric | baseline | current | change |")
    print("| --- | --- | --- | --- | --- |")
    for row in rows:
        print(row)
    print_unmatched(one_sided)
    print_top_kernels(current)
    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

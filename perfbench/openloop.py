"""Open-loop traffic: seeded Poisson schedules, generator lateness,
backlog detection and the highest-rate search.

Pure functions of their inputs, so the self-tests pin them down without
a server.
"""

from __future__ import annotations

import numpy as np

from measure import latency_summary, median


def poisson_schedule(rng: np.random.Generator, rate: float,
                     count: int) -> np.ndarray:
    """Send offsets (seconds from the start) of ``count`` Poisson
    arrivals at ``rate`` per second.

    The count is fixed and the window is ``count / rate``: given the
    number of arrivals in a window, Poisson arrival times are sorted
    uniform draws.  Fixing both keeps the offered load, and so every
    rate-normalised metric, the same for every seed.
    """
    if rate <= 0 or count < 1:
        raise ValueError(f"need rate > 0 and count >= 1, got {rate}, {count}")
    return np.sort(rng.uniform(0.0, count / rate, size=count))


def lateness(scheduled, sent) -> list[float]:
    """Seconds each send happened after its scheduled time (never
    negative: a send is never early)."""
    if len(scheduled) != len(sent):
        raise ValueError("scheduled and sent differ in length")
    return [max(0.0, s - t) for t, s in zip(scheduled, sent)]


#: A backlog grows when the last third of a run waits this many times
#: longer than the first third ...
BACKLOG_FACTOR = 2.0
#: ... and by at least this many seconds.
BACKLOG_MIN_SECONDS = 0.05


def has_backlog(latencies) -> bool:
    """Whether latency (in send order) grows across the run: the median
    of the last third exceeds :data:`BACKLOG_FACTOR` times the first
    third's by more than :data:`BACKLOG_MIN_SECONDS`."""
    k = len(latencies) // 3
    if k < 1:
        return False
    first, last = median(latencies[:k]), median(latencies[-k:])
    return last > BACKLOG_FACTOR * first and last - first > BACKLOG_MIN_SECONDS


def rate_passes(latencies, failed: int, limit_ms: float) -> bool:
    """A rate passes when nothing failed, its tail latency is within the
    limit and no backlog grows."""
    if failed or not latencies:
        return False
    return (latency_summary(latencies)["tail_ms"] <= limit_ms
            and not has_backlog(latencies))


def max_passing_rate(results: dict, limit_ms: float) -> float:
    """Highest rate whose run, and every lower rate's run, passes.

    ``results`` maps rate -> (latencies in send order, failed count).
    Returns 0.0 when even the lowest rate fails.
    """
    best = 0.0
    for rate in sorted(results):
        latencies, failed = results[rate]
        if not rate_passes(latencies, failed, limit_ms):
            break
        best = float(rate)
    return best

"""Statistics helpers of the benchmark: tail percentiles, open-loop timing, backlog.

Every helper is pure (lists in, numbers out) so the rules the metric
catalogue states are unit-tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(
    values: Sequence[float], q_max: float = 99.0, min_beyond: int = MIN_BEYOND
) -> Tuple[float, float, int]:
    """The highest percentile up to ``q_max`` with ``min_beyond`` samples above it.

    Nearest-rank rule on the sorted samples: rank ``k`` (1-based) reads
    ``sorted[k - 1]`` and stands for percentile ``100 * k / n``.  The rank is
    ``ceil(q_max / 100 * n)`` capped at ``n - min_beyond``, so with 1000
    samples the result is the true p99 and with 200 samples it is p95.
    With ``min_beyond`` samples or fewer no rank qualifies and the maximum
    is returned as percentile 100.

    Returns ``(value, percentile, n_samples)``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail percentile of no samples")
    ordered = sorted(values)
    rank = min(math.ceil(q_max / 100.0 * n), n - min_beyond)
    if rank < 1:
        return float(ordered[-1]), 100.0, n
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and tail percentile of a timing, with the sample count."""
    tail, q, n = tail_percentile(values)
    return {"p50": median(values), "tail": tail, "tail_q": q, "n": n}


def due_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Open-loop latency: completion minus the time the request was *due*.

    Timing from the due time (not the send time) charges a generator or
    server stall to every request scheduled behind it.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def backlog_growing(
    due: Sequence[float], latencies: Sequence[float], limit: float
) -> bool:
    """Whether latency climbs across a rung, the sign of a growing queue.

    Requests are ordered by due time and split into quarters; the backlog
    grows when the last quarter's median latency exceeds both twice the
    first quarter's and the first quarter's plus a quarter of ``limit``.
    A stable queue keeps the quarters alike, an overloaded one makes
    latency rise roughly linearly with time.
    """
    if len(due) != len(latencies):
        raise ValueError("due and latencies must pair up")
    if len(due) < 8:
        return False
    ordered = [lat for _, lat in sorted(zip(due, latencies))]
    quarter = len(ordered) // 4
    first = median(ordered[:quarter])
    last = median(ordered[-quarter:])
    return last > 2.0 * first and last > first + limit / 4.0


def meets_limit(
    latencies: Sequence[float], n_failed: int, limit: float
) -> Tuple[bool, float]:
    """Whether a rung's tail latency stays within ``limit``.

    A failed or refused request counts as a latency beyond the limit, so
    failures can only push the tail over it.  Returns ``(ok, tail)``.
    """
    values = list(latencies) + [math.inf] * int(n_failed)
    if not values:
        return True, 0.0
    tail, _, _ = tail_percentile(values)
    return tail <= limit, tail


def self_times(spans: Sequence[dict]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` are dicts with ``id``, ``start``/``end`` (integer ns) and
    ``parent`` (the parent's ``id`` or ``None``).  Children are clipped to
    their parent and overlapping children are merged, so concurrent
    children (asyncio tasks under one span) are not subtracted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent: Optional[int] = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    result = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result

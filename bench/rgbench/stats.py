"""Percentiles over per-op times, with failed ops counted as +inf."""

import math

#: Percentiles the tail is chosen from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: The tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # rounded first, so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 6)))


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int, cap: float = TAIL_LADDER[-1]) -> float:
    """Highest ladder percentile, at most ``cap``, with ten samples beyond it.

    The cap fixes the meaning of a workload's tail: without it a faster
    program, which completes more ops in the same time, would be judged at
    a higher percentile.  With fewer than twenty samples no percentile
    qualifies and the median is returned; the caller reports the count.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if pct <= cap and samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def summarize(durations, passed, tail_cap: float) -> dict:
    """End-to-end figures of one closed-loop run.

    ``durations`` are the wall times of all ops in seconds and ``passed``
    says, op by op, whether it returned and passed its check.  A failed op
    sorts as +inf in the percentiles, since it misses any latency target,
    and counts against ``ops_per_s`` and ``fail_ratio``.
    """
    if not durations or len(durations) != len(passed):
        raise ValueError("need one pass flag per op, and at least one op")
    n = len(durations)
    samples = sorted(d if ok else math.inf for d, ok in zip(durations, passed))
    n_passed = sum(passed)
    pct = tail_percentile(n, tail_cap)
    return {
        "ops": n,
        "passed": n_passed,
        "fail_ratio": (n - n_passed) / n,
        "op_ms.p50": nearest_rank(samples, 50.0) * 1e3,
        "op_ms.tail": nearest_rank(samples, pct) * 1e3,
        "tail_pct": pct,
        "tail_beyond": samples_beyond(n, pct),
        "ops_per_s": n_passed / sum(durations),
    }

"""Timing statistics and span arithmetic for the benchmark harness."""

import statistics

# Tail levels tried from the highest down; a level is reported only when
# at least MIN_BEYOND samples lie beyond it.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values, level):
    """The level-th percentile by nearest rank, and its 1-based rank."""
    n = len(sorted_values)
    tenths = int(round(level * 10))
    rank = max(1, -(-tenths * n // 1000))  # ceil(level / 100 * n), exactly
    return sorted_values[rank - 1], rank


def tail(sorted_values, level):
    """The level-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it."""
    value, rank = nearest_rank(sorted_values, level)
    return value if len(sorted_values) - rank >= MIN_BEYOND else None


def summarize(values):
    """Median and the highest tail percentile with >= MIN_BEYOND samples
    beyond it, with the sample count.

    Returns {"n": n, "median": m, "tail_level": L, "tail": v}; tail_level
    and tail are None when there are too few samples for any level."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"n": 0, "median": None, "tail_level": None, "tail": None}
    out = {"n": n, "median": statistics.median(xs), "tail_level": None, "tail": None}
    for level in TAIL_LEVELS:
        value = tail(xs, level)
        if value is not None:
            out["tail_level"], out["tail"] = level, value
            break
    return out


def scaled_times(segments, ref_chunk_s):
    """Set-up and work time of a pass scaled to the reference host speed.

    `segments` is a list of [setup_s, work_s, chunk_before, chunk_after]
    (harness calib.ml): each segment's times are multiplied by
    ref_chunk_s / mean(chunk_before, chunk_after).  Returns
    (setup, work)."""
    setup = work = 0.0
    for s, w, before, after in segments:
        factor = ref_chunk_s / ((before + after) / 2.0)
        setup += s * factor
        work += w * factor
    return setup, work


def self_times(spans):
    """Self time of every span: its duration minus the time its direct
    children cover (children of one span never overlap: the recorder is
    single-threaded).

    `spans` is a list of [name, layer, run, parent, start, end], where
    parent is an index into the list or -1."""
    child_time = [0.0] * len(spans)
    for s in spans:
        parent = s[3]
        if parent >= 0:
            child_time[parent] += s[5] - s[4]
    return [(s[5] - s[4]) - child_time[i] for i, s in enumerate(spans)]


def untraced_fraction(spans):
    """Share of the root spans' time covered by no layer span: the self
    time of the harness's own (non-layer) spans over the roots' total."""
    if not spans:
        return 0.0
    selfs = self_times(spans)
    total = sum(s[5] - s[4] for s in spans if s[3] < 0)
    if total <= 0:
        return 0.0
    return sum(t for s, t in zip(spans, selfs) if not s[1]) / total


def span_totals(spans):
    """Total duration, self time and count per span name."""
    selfs = self_times(spans)
    out = {}
    for s, t in zip(spans, selfs):
        d = out.setdefault(s[0], {"total": 0.0, "self": 0.0, "count": 0, "durations": []})
        d["total"] += s[5] - s[4]
        d["self"] += t
        d["count"] += 1
        d["durations"].append(s[5] - s[4])
    return out
